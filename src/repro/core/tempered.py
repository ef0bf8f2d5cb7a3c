"""TemperedLB — the paper's proposed distributed load balancer.

TemperedLB = GrapevineLB's inform stage + all six § V changes:

1. iterative refinement (``n_iters``) before any transfer executes;
2. multiple trials (``n_trials``) to escape local minima;
3. CMF recomputation as knowledge updates (Alg. 2 l.7);
4. the relaxed, provably optimal transfer criterion (Alg. 2 l.37);
5. the modified CMF compatible with above-average loads (Alg. 2 l.25);
6. a configurable task traversal order (§ V-E; Fig. 4d's winner,
   *Fewest Migrations*, is the default).

Every knob can be overridden, so a suitably configured ``TemperedLB``
also reproduces the original GrapevineLB (see
:class:`repro.core.grapevine.GrapevineLB`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.base import LBResult, LoadBalancer
from repro.core.cmf import CMF_MODIFIED
from repro.core.criteria import CRITERION_RELAXED
from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig
from repro.core.ordering import ORDER_FEWEST_MIGRATIONS
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig
from repro.sim.faults import FaultConfig
from repro.util.validation import check_positive_int, coerce_rng

__all__ = ["TemperedConfig", "TemperedLB"]


@dataclass(frozen=True)
class TemperedConfig:
    """Full parameterization of the gossip balancer family.

    Defaults match the paper's EMPIRE configuration: 10 trials, 8
    iterations (§ VI-B / Fig. 3 discussion), fanout ``f=6``, ``k=10``
    gossip rounds and threshold ``h=1.0`` (§ V-B), relaxed criterion,
    modified CMF with recomputation, Fewest Migrations ordering.
    """

    n_trials: int = 10
    n_iters: int = 8
    fanout: int = 6
    rounds: int = 10
    threshold: float = 1.0
    criterion: str = CRITERION_RELAXED
    cmf: str = CMF_MODIFIED
    recompute_cmf: bool = True
    ordering: str = ORDER_FEWEST_MIGRATIONS
    view: str = "snapshot"  #: transfer-stage load visibility (see transfer.py)
    max_passes: int | None = 1  #: task-list passes per rank per stage
    cascade: bool = False  #: re-process ranks overloaded mid-stage
    nacks: bool = False  #: recipient-side vetoes (Menon's mechanism, § V-A)
    max_known: int | None = None  #: knowledge cap (limited-info gossip)
    trim_policy: str = "random"  #: what the cap keeps (see GossipConfig)
    #: Inform-stage knowledge store: "auto" / "packed" / "sparse" (see
    #: :class:`~repro.core.gossip.GossipConfig`).
    knowledge: str = "auto"
    #: Trial-level parallelism: None = historical serial semantics (one
    #: shared RNG stream); >= 1 = that many workers with spawned
    #: per-trial streams (bit-identical for any worker count >= 1). A
    #: process pool runs them wherever a second core, a second trial
    #: and ``fork`` exist, the serial loop elsewhere (see
    #: :func:`repro.util.parallel.resolve_backend`).
    n_workers: int | None = None
    #: Optional fault injection for the inform stage (message loss,
    #: delay spikes, duplication); None or an all-zero config leaves
    #: every result bit-identical to the fault-free balancer.
    faults: "FaultConfig | None" = None

    def __post_init__(self) -> None:
        check_positive_int("n_trials", self.n_trials)
        check_positive_int("n_iters", self.n_iters)
        if self.n_workers is not None:
            check_positive_int("n_workers", self.n_workers)
        # fanout/rounds/threshold and the categorical knobs are validated
        # by the GossipConfig / TransferConfig they parameterize.
        self.gossip_config()
        self.transfer_config()

    def gossip_config(self) -> GossipConfig:
        """The inform-stage parameters as a :class:`GossipConfig`."""
        return GossipConfig(
            fanout=self.fanout,
            rounds=self.rounds,
            max_known=self.max_known,
            trim_policy=self.trim_policy,
            knowledge=self.knowledge,
            faults=self.faults,
        )

    def transfer_config(self) -> TransferConfig:
        """The transfer-stage parameters as a :class:`TransferConfig`."""
        return TransferConfig(
            criterion=self.criterion,
            cmf=self.cmf,
            recompute_cmf=self.recompute_cmf,
            ordering=self.ordering,
            threshold=self.threshold,
            view=self.view,
            max_passes=self.max_passes,
            cascade=self.cascade,
            nacks=self.nacks,
        )

    def lbaf_variant(self) -> "TemperedConfig":
        """This configuration under the paper's LBAF analysis semantics.

        The § V-B / § V-D tables were produced with the authors' Python
        LBAF tool, whose sequential simulation exposes live proposed
        loads to every rank, retries a rank's task list while it remains
        overloaded, and processes ranks that become overloaded
        mid-stage. See :mod:`repro.core.transfer` for the exact
        semantics of each knob.
        """
        return dataclasses.replace(self, view="shared", max_passes=None, cascade=True)


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
            gossip=self.config.gossip_config(),
            transfer=self.config.transfer_config(),
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
