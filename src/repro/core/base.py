"""Load balancer interface and result records.

All strategies — distributed (GrapevineLB, TemperedLB), centralized
(GreedyLB) and hierarchical (HierLB) — implement
:class:`LoadBalancer.rebalance`, taking a :class:`~repro.core.distribution.Distribution`
and returning an :class:`LBResult` with the proposed assignment and the
per-iteration accounting that the paper's § V-B / § V-D tables report.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.distribution import Distribution
from repro.core.metrics import imbalance
from repro.obs import StatsRegistry
from repro.util.validation import coerce_rng

__all__ = ["IterationRecord", "LBResult", "LoadBalancer"]


@dataclass(frozen=True)
class IterationRecord:
    """One row of the paper's iteration tables (§ V-B, § V-D)."""

    trial: int
    iteration: int
    transfers: int
    rejections: int
    imbalance: float
    gossip_messages: int = 0
    gossip_bytes: int = 0

    @property
    def rejection_rate(self) -> float:
        """Rejection rate in percent, as printed in the paper's tables."""
        attempts = self.transfers + self.rejections
        return 100.0 * self.rejections / attempts if attempts else 0.0


@dataclass
class LBResult:
    """Outcome of one load-balancing invocation."""

    strategy: str
    assignment: np.ndarray  #: proposed task -> rank mapping
    initial_imbalance: float
    final_imbalance: float
    n_migrations: int  #: tasks whose rank changed vs. the input
    records: list[IterationRecord] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        """Absolute drop in the imbalance metric."""
        return self.initial_imbalance - self.final_imbalance


class LoadBalancer(ABC):
    """Base class for all strategies."""

    #: Human-readable strategy name (matches the paper's configuration labels).
    name: str = "base"

    #: Attached observability sink (see :meth:`instrument`); ``None`` by
    #: default, in which case strategies record nothing and behave
    #: byte-identically to an un-instrumented build.
    registry: StatsRegistry | None = None

    def instrument(self, registry: StatsRegistry | None) -> "LoadBalancer":
        """Attach a :class:`~repro.obs.StatsRegistry` and return ``self``.

        Instrumentation-aware strategies (the gossip family) thread the
        registry through their inform/transfer/refinement stages; every
        strategy records a per-invocation ``lb.rebalance`` event.
        Attaching never changes RNG consumption, so results are
        unaffected. Pass ``None`` to detach.
        """
        self.registry = registry
        return self

    @abstractmethod
    def rebalance(
        self, dist: Distribution, rng: np.random.Generator | int | None = None
    ) -> LBResult:
        """Compute a new assignment for ``dist`` (which is not mutated)."""

    def apply(
        self, dist: Distribution, rng: np.random.Generator | int | None = None
    ) -> tuple[Distribution, LBResult]:
        """Rebalance and return the resulting distribution alongside the result."""
        result = self.rebalance(dist, coerce_rng(rng))
        return dist.with_assignment(result.assignment), result

    def _make_result(
        self,
        dist: Distribution,
        assignment: np.ndarray,
        records: list[IterationRecord] | None = None,
        **extra: Any,
    ) -> LBResult:
        """Assemble an :class:`LBResult`, deriving the summary metrics."""
        final_loads = np.bincount(
            assignment, weights=dist.task_loads, minlength=dist.n_ranks
        )
        result = LBResult(
            strategy=self.name,
            assignment=assignment,
            initial_imbalance=dist.imbalance(),
            final_imbalance=imbalance(final_loads),
            n_migrations=dist.migration_count(assignment),
            records=records or [],
            extra=extra,
        )
        if self.registry is not None:
            self.registry.inc("lb.rebalances")
            self.registry.event(
                "lb.rebalance",
                strategy=self.name,
                initial_imbalance=result.initial_imbalance,
                final_imbalance=result.final_imbalance,
                n_migrations=result.n_migrations,
            )
        return result
