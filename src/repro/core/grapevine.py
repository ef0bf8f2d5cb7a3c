"""GrapevineLB — the original Menon & Kalé (SC'13) algorithm (§ IV-B).

Implemented as a preset of the same machinery TemperedLB uses: a single
trial and :data:`GRAPEVINE_TRANSFER` — original strict criterion (Alg. 2
l.35), original CMF built once per transfer stage (Alg. 2 l.5),
arbitrary task order, no negative acknowledgements. ``n_iters`` defaults
to 1 (the original runs its two stages once per LB invocation) but can
be raised to reproduce the § V-B iteration study, which shows the
criterion stalling.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.base import LBResult, LoadBalancer
from repro.core.cmf import CMF_ORIGINAL
from repro.core.criteria import CRITERION_ORIGINAL
from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig
from repro.core.ordering import ORDER_ARBITRARY
from repro.core.tempered import TemperedConfig, TemperedLB
from repro.core.transfer import TransferConfig

__all__ = ["GRAPEVINE_TRANSFER", "GrapevineLB"]

#: GrapevineLB's transfer stage: the one declaration of the preset.
GRAPEVINE_TRANSFER = TransferConfig(
    criterion=CRITERION_ORIGINAL, cmf=CMF_ORIGINAL, recompute_cmf=False, ordering=ORDER_ARBITRARY
)


class GrapevineLB(LoadBalancer):
    """The original gossip balancer, for baseline comparisons. Besides
    ``n_iters`` and ``threshold`` it takes only the inform stage, whole
    or as flat :class:`GossipConfig` knobs (``GrapevineLB(fanout=4)``)."""

    name = "GrapevineLB"

    def __init__(
        self,
        n_iters: int = 1,
        *,
        threshold: float = 1.0,
        gossip: GossipConfig = GossipConfig(),
        **gossip_knobs: object,
    ) -> None:
        self.config = TemperedConfig(
            gossip=replace(gossip, **gossip_knobs),
            transfer=replace(GRAPEVINE_TRANSFER, threshold=threshold),
            n_trials=1,
            n_iters=n_iters,
        )
        self._impl = TemperedLB(self.config)
        self._impl.name = self.name  # results and events report the preset's name

    def rebalance(
        self, dist: Distribution, rng: np.random.Generator | int | None = None
    ) -> LBResult:
        self._impl.registry = self.registry  # thread any attached sink through
        result = self._impl.rebalance(dist, rng)
        result.strategy = self.name
        return result
