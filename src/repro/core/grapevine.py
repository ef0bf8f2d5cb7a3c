"""GrapevineLB — the original Menon & Kalé (SC'13) algorithm (§ IV-B).

Implemented as a preset of the same machinery TemperedLB uses: a single
trial, original strict criterion (Alg. 2 l.35), original CMF built once
per transfer stage (Alg. 2 l.5), arbitrary task order, no negative
acknowledgements. ``n_iters`` defaults to 1 (the original runs its two
stages once per LB invocation) but can be raised to reproduce the § V-B
iteration study, which shows the criterion stalling.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LBResult, LoadBalancer
from repro.core.cmf import CMF_ORIGINAL
from repro.core.criteria import CRITERION_ORIGINAL
from repro.core.distribution import Distribution
from repro.core.ordering import ORDER_ARBITRARY
from repro.core.tempered import TemperedConfig, TemperedLB

__all__ = ["GrapevineLB"]


class GrapevineLB(LoadBalancer):
    """The original gossip balancer, for baseline comparisons."""

    name = "GrapevineLB"

    def __init__(
        self,
        n_iters: int = 1,
        fanout: int = 6,
        rounds: int = 10,
        threshold: float = 1.0,
    ) -> None:
        self.config = TemperedConfig(
            n_trials=1,
            n_iters=n_iters,
            fanout=fanout,
            rounds=rounds,
            threshold=threshold,
            criterion=CRITERION_ORIGINAL,
            cmf=CMF_ORIGINAL,
            recompute_cmf=False,
            ordering=ORDER_ARBITRARY,
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
