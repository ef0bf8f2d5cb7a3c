"""Task-to-rank distributions.

A :class:`Distribution` is the phase-level state every load balancer
operates on: an array of per-task loads (seconds of work measured by the
runtime instrumentation, per the *principle of persistence*) and an array
assigning each task to a rank. Rank loads are derived with a vectorized
``bincount`` and cached until the assignment changes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.util.validation import check_positive

__all__ = ["Distribution"]


class Distribution:
    """An assignment of weighted tasks to ranks.

    Parameters
    ----------
    task_loads:
        Per-task load (any non-negative unit; the paper uses seconds).
    assignment:
        Integer rank id for each task, in ``[0, n_ranks)``.
    n_ranks:
        Total number of ranks. Ranks may hold zero tasks.
    """

    __slots__ = ("task_loads", "assignment", "n_ranks", "_rank_loads", "_rank_tasks")

    def __init__(
        self,
        task_loads: np.ndarray | Iterable[float],
        assignment: np.ndarray | Iterable[int],
        n_ranks: int,
    ) -> None:
        self.task_loads = np.ascontiguousarray(task_loads, dtype=np.float64)
        self.assignment = np.ascontiguousarray(assignment, dtype=np.int64)
        if self.task_loads.ndim != 1 or self.assignment.ndim != 1:
            raise ValueError("task_loads and assignment must be 1-D")
        if self.task_loads.shape != self.assignment.shape:
            raise ValueError(
                f"task_loads ({self.task_loads.shape}) and assignment "
                f"({self.assignment.shape}) must have the same length"
            )
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        if self.task_loads.size and (
            self.assignment.min() < 0 or self.assignment.max() >= self.n_ranks
        ):
            raise ValueError("assignment entries must lie in [0, n_ranks)")
        if self.task_loads.size and not np.isfinite(self.task_loads).all():
            raise ValueError("task loads must be finite (no NaN/inf)")
        if self.task_loads.size and self.task_loads.min() < 0:
            raise ValueError("task loads must be non-negative")
        self._rank_loads: np.ndarray | None = None
        self._rank_tasks: list[list[int]] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n_tasks(self) -> int:
        """Number of tasks in the distribution."""
        return self.task_loads.size

    def rank_loads(self) -> np.ndarray:
        """Per-rank total load (length ``n_ranks``); cached."""
        if self._rank_loads is None:
            self._rank_loads = np.bincount(
                self.assignment, weights=self.task_loads, minlength=self.n_ranks
            )
        return self._rank_loads

    def rank_tasks(self) -> list[list[int]]:
        """Task ids per rank as a list of lists; cached.

        Task ids within a rank appear in ascending id order, matching the
        "arbitrary" (identifying-index) traversal order of the paper.
        """
        if self._rank_tasks is None:
            buckets: list[list[int]] = [[] for _ in range(self.n_ranks)]
            for task, rank in enumerate(self.assignment):
                buckets[rank].append(task)
            self._rank_tasks = buckets
        return self._rank_tasks

    @property
    def total_load(self) -> float:
        """Sum of all task loads (conserved by every balancer)."""
        return float(self.task_loads.sum())

    @property
    def average_load(self) -> float:
        """:math:`\\ell_{ave}` — total load divided by the rank count."""
        return self.total_load / self.n_ranks

    @property
    def max_load(self) -> float:
        """:math:`\\ell_{max}` — the heaviest rank's total load."""
        return float(self.rank_loads().max()) if self.n_ranks else 0.0

    def imbalance(self) -> float:
        """Paper Eq. (1): :math:`I = \\ell_{max}/\\ell_{ave} - 1`."""
        ave = self.average_load
        if ave == 0.0:
            return 0.0
        return self.max_load / ave - 1.0

    # -- mutation ----------------------------------------------------------

    def move(self, task: int, dest: int) -> None:
        """Reassign one task, invalidating cached views."""
        if not 0 <= dest < self.n_ranks:
            raise ValueError(f"destination rank {dest} out of range")
        self.assignment[task] = dest
        self._rank_loads = None
        self._rank_tasks = None

    def with_assignment(self, assignment: np.ndarray) -> "Distribution":
        """A new distribution sharing task loads but with a new assignment."""
        return Distribution(self.task_loads, np.array(assignment, copy=True), self.n_ranks)

    def copy(self) -> "Distribution":
        """Deep copy (task loads are shared; they are immutable by convention)."""
        return self.with_assignment(self.assignment)

    # -- comparison / repr ---------------------------------------------------

    def migration_count(self, other_assignment: np.ndarray) -> int:
        """How many tasks moved between this assignment and another."""
        other = np.asarray(other_assignment)
        if other.shape != self.assignment.shape:
            raise ValueError("assignments must have equal length")
        return int(np.count_nonzero(self.assignment != other))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Distribution(n_tasks={self.n_tasks}, n_ranks={self.n_ranks}, "
            f"I={self.imbalance():.4g})"
        )
