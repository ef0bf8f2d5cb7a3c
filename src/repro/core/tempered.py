"""TemperedLB — the paper's proposed distributed load balancer.

TemperedLB = GrapevineLB's inform stage + all six § V changes:

1. iterative refinement (``n_iters``) before any transfer executes;
2. multiple trials (``n_trials``) to escape local minima;
3. CMF recomputation as knowledge updates (Alg. 2 l.7);
4. the relaxed, provably optimal transfer criterion (Alg. 2 l.37);
5. the modified CMF compatible with above-average loads (Alg. 2 l.25);
6. a configurable task traversal order (§ V-E; Fig. 4d's winner,
   *Fewest Migrations*, is the default).

:class:`TemperedConfig` nests the inform stage's
:class:`~repro.core.gossip.GossipConfig` and the transfer stage's
:class:`~repro.core.transfer.TransferConfig` (changes 3–6) and adds
Algorithm 3's loop, so every knob is declared once; GrapevineLB is one
transfer-stage preset (:mod:`repro.core.grapevine`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.base import LBResult, LoadBalancer
from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig
from repro.core.ordering import ORDER_FEWEST_MIGRATIONS
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig
from repro.util.validation import check_positive_int, coerce_rng, route_knobs

__all__ = ["TemperedConfig", "TemperedLB"]


@route_knobs("gossip", "transfer")
@dataclass(frozen=True)
class TemperedConfig:
    """Full parameterization of the gossip balancer family.

    Defaults match the paper's EMPIRE configuration: 10 trials, 8
    iterations (§ VI-B / Fig. 3 discussion), fanout ``f=6``, ``k=10``
    gossip rounds and threshold ``h=1.0`` (§ V-B), relaxed criterion,
    modified CMF with recomputation, Fewest Migrations ordering. Stage
    knobs may be given flat, ``TemperedConfig(fanout=4, nacks=True)``
    (see :func:`~repro.util.validation.route_knobs`).
    """

    gossip: GossipConfig = GossipConfig()  #: inform stage (Algorithm 1)
    #: Transfer stage (Algorithm 2), with § V-E's Fewest Migrations order.
    transfer: TransferConfig = TransferConfig(ordering=ORDER_FEWEST_MIGRATIONS)
    n_trials: int = 10
    n_iters: int = 8
    #: Trial-level parallelism: None = historical serial semantics (one
    #: shared RNG stream); >= 1 = that many workers with spawned
    #: per-trial streams (bit-identical for any worker count >= 1). A
    #: process pool runs them wherever a second core, a second trial
    #: and ``fork`` exist, the serial loop elsewhere (see
    #: :func:`repro.util.parallel.resolve_backend`).
    n_workers: int | None = None

    def __post_init__(self) -> None:
        check_positive_int("n_trials", self.n_trials)
        check_positive_int("n_iters", self.n_iters)
        if self.n_workers is not None:
            check_positive_int("n_workers", self.n_workers)

    def lbaf_variant(self) -> "TemperedConfig":
        """This configuration under the paper's LBAF analysis semantics
        (:meth:`TransferConfig.lbaf_variant`)."""
        return dataclasses.replace(self, transfer=self.transfer.lbaf_variant())


class TemperedLB(LoadBalancer):
    """The paper's distributed balancer (§ V), phase-level implementation.

    Parameters may be given as a full :class:`TemperedConfig` or as
    keyword overrides of the defaults::

        TemperedLB(n_trials=2, ordering="lightest")
    """

    name = "TemperedLB"

    def __init__(self, config: TemperedConfig | None = None, **overrides: object) -> None:
        if config is not None and overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config if config is not None else TemperedConfig(**overrides)  # type: ignore[arg-type]

    def rebalance(
        self, dist: Distribution, rng: np.random.Generator | int | None = None
    ) -> LBResult:
        rng = coerce_rng(rng)
        refinement = iterative_refinement(
            dist,
            n_trials=self.config.n_trials,
            n_iters=self.config.n_iters,
            gossip=self.config.gossip,
            transfer=self.config.transfer,
            rng=rng,
            registry=self.registry,
            n_workers=self.config.n_workers,
        )
        return self._make_result(
            dist,
            refinement.best_assignment,
            records=refinement.records,
            gossip_messages=refinement.total_gossip_messages,
            gossip_bytes=refinement.total_gossip_bytes,
        )
