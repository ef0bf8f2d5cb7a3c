"""The AMT runtime: overdecomposed tasks executing on simulated ranks.

One :class:`AMTRuntime` owns a :class:`~repro.sim.process.System`, a
task-to-rank assignment, and phase instrumentation. Executing a phase
charges every rank the serial execution of its tasks (task load plus
the per-task AMT overhead — the "23% overhead" ingredient of Fig. 2)
and closes with a tree barrier, returning per-rank timings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import StatsRegistry
from repro.runtime.phase import PhaseBarrier, PhaseInstrumentation
from repro.sim.network import NetworkModel
from repro.sim.process import System
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["AMTRuntime", "PhaseResult"]


@dataclass
class PhaseResult:
    """Timing of one executed phase."""

    phase_index: int
    rank_task_time: np.ndarray  #: per-rank serial task execution time
    rank_release_time: np.ndarray  #: per-rank barrier release (wall clock)
    start_time: float
    end_time: float  #: when the last rank left the barrier

    @property
    def duration(self) -> float:
        """Wall-clock phase time (start to last barrier release)."""
        return self.end_time - self.start_time

    @property
    def makespan(self) -> float:
        """The longest per-rank task time (what Eq. 1 bounds)."""
        return float(self.rank_task_time.max())

    def imbalance(self) -> float:
        """Imbalance of the *executed* loads this phase."""
        ave = self.rank_task_time.mean()
        if ave == 0:
            return 0.0
        return float(self.rank_task_time.max() / ave - 1.0)


class AMTRuntime:
    """Overdecomposed tasks on simulated ranks with phase execution."""

    def __init__(
        self,
        n_ranks: int,
        task_loads: np.ndarray,
        assignment: np.ndarray,
        network: NetworkModel | None = None,
        task_overhead: float = 0.0,
        handler_overhead: float = 2e-7,
        rank_speeds: np.ndarray | None = None,
        registry: "StatsRegistry | None" = None,
    ) -> None:
        check_positive("n_ranks", n_ranks)
        check_nonnegative("task_overhead", task_overhead)
        self.system = System(
            int(n_ranks),
            network=network,
            handler_overhead=handler_overhead,
            registry=registry,
        )
        self.task_loads = np.ascontiguousarray(task_loads, dtype=np.float64)
        self.assignment = np.ascontiguousarray(assignment, dtype=np.int64)
        if self.task_loads.shape != self.assignment.shape:
            raise ValueError("task_loads and assignment must have equal length")
        if self.task_loads.size and (
            self.assignment.min() < 0 or self.assignment.max() >= n_ranks
        ):
            raise ValueError("assignment entries must lie in [0, n_ranks)")
        #: Fixed per-task cost added by the tasking runtime (kernel launch,
        #: scheduling, smaller messages) — drives the AMT-without-LB overhead.
        self.task_overhead = float(task_overhead)
        #: Relative execution speed per rank (heterogeneous hardware,
        #: § I's "non-uniform (e.g., NUMA or heterogeneous) resources").
        #: A rank with speed 0.5 takes twice as long for the same load.
        if rank_speeds is None:
            self.rank_speeds = np.ones(int(n_ranks))
        else:
            self.rank_speeds = np.ascontiguousarray(rank_speeds, dtype=np.float64)
            if self.rank_speeds.shape != (int(n_ranks),):
                raise ValueError("need one speed per rank")
            if self.rank_speeds.min() <= 0:
                raise ValueError("rank speeds must be positive")
        self.instrumentation = PhaseInstrumentation()
        self.phases_executed = 0

    @property
    def n_ranks(self) -> int:
        return self.system.n_ranks

    @property
    def n_tasks(self) -> int:
        return self.task_loads.size

    def rank_loads(self) -> np.ndarray:
        """Per-rank total task load under the current assignment."""
        return np.bincount(self.assignment, weights=self.task_loads, minlength=self.n_ranks)

    def set_task_loads(self, task_loads: np.ndarray) -> None:
        """Update per-task loads (the workload evolves between phases)."""
        task_loads = np.ascontiguousarray(task_loads, dtype=np.float64)
        if task_loads.shape != self.task_loads.shape:
            raise ValueError("cannot change the number of tasks")
        self.task_loads = task_loads

    def execute_phase(self) -> PhaseResult:
        """Run one phase to completion and return its timing.

        Every rank executes its tasks serially (sum of loads plus
        ``task_overhead`` per task), then the phase barrier closes.
        The runtime instruments the executed per-task loads for the
        balancer.
        """
        engine = self.system.engine
        start = engine.now
        counts = np.bincount(self.assignment, minlength=self.n_ranks)
        # Heterogeneity: seconds = abstract load units / rank speed.
        work = (self.rank_loads() + counts * self.task_overhead) / self.rank_speeds
        for rank, proc in enumerate(self.system.processes):
            proc.compute(float(work[rank]))

        releases = np.full(self.n_ranks, np.nan)

        def on_release(rank: int, when: float) -> None:
            releases[rank] = when

        barrier = PhaseBarrier(self.system, on_release)
        barrier.start()
        self.system.run()
        barrier.close()
        if np.isnan(releases).any():
            raise RuntimeError("phase barrier did not release every rank")

        # Instrumentation records *measured durations*: a task that ran
        # on a slow rank looks heavier, which steers persistence-based
        # balancers off slow hardware (and slightly mispredicts after a
        # migration — the real system has the same bias).
        self.instrumentation.observe(self.task_loads / self.rank_speeds[self.assignment])
        result = PhaseResult(
            phase_index=self.phases_executed,
            rank_task_time=work,
            rank_release_time=releases,
            start_time=start,
            end_time=float(releases.max()),
        )
        self.phases_executed += 1
        return result

    def apply_assignment(self, assignment: np.ndarray) -> int:
        """Adopt a new task->rank mapping; returns the migration count.

        The messaging cost of migration is modelled separately by
        :func:`repro.runtime.migration.migrate_tasks`.
        """
        assignment = np.ascontiguousarray(assignment, dtype=np.int64)
        if assignment.shape != self.assignment.shape:
            raise ValueError("assignment length mismatch")
        moved = int(np.count_nonzero(assignment != self.assignment))
        self.assignment = assignment.copy()
        return moved
