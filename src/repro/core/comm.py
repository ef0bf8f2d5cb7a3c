"""Inter-task communication costs — the paper's § VII future work.

    "because the overarching goal of this work is not to reduce or even
    eliminate load imbalance for its own sake — but rather to make
    simulations run faster — our future work will consider inter-task
    communication costs in addition to task load."

:class:`CommGraph` holds sparse task-to-task communication volumes and
evaluates how much of that volume crosses rank (or node) boundaries
under an assignment. :class:`CommAwareLB` wraps any load balancer with
a locality refinement pass: tasks are greedily pulled toward the rank
hosting most of their communication partners, accepting only moves that
keep the load imbalance within a tolerance — trading a bounded amount
of balance for off-rank traffic reduction.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import LBResult, LoadBalancer
from repro.core.distribution import Distribution
from repro.core.metrics import imbalance
from repro.core.tempered import TemperedLB
from repro.util.validation import check_nonnegative, check_positive, coerce_rng

__all__ = ["CommGraph", "CommAwareLB"]


class CommGraph:
    """Sparse, undirected task-to-task communication volumes (bytes)."""

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        volume: np.ndarray,
        n_tasks: int,
    ) -> None:
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.volume = np.ascontiguousarray(volume, dtype=np.float64)
        if not (self.src.shape == self.dst.shape == self.volume.shape):
            raise ValueError("src, dst and volume must have equal length")
        check_positive("n_tasks", n_tasks)
        self.n_tasks = int(n_tasks)
        if self.src.size:
            if self.src.min() < 0 or self.src.max() >= n_tasks:
                raise ValueError("src task ids out of range")
            if self.dst.min() < 0 or self.dst.max() >= n_tasks:
                raise ValueError("dst task ids out of range")
            if (self.src == self.dst).any():
                raise ValueError("self-edges are not allowed")
            if self.volume.min() < 0:
                raise ValueError("volumes must be non-negative")
        # Adjacency index for the refinement pass.
        self._adj: list[list[tuple[int, float]]] | None = None

    @property
    def n_edges(self) -> int:
        return self.src.size

    @property
    def total_volume(self) -> float:
        """Sum of all edge volumes."""
        return float(self.volume.sum())

    def off_rank_volume(self, assignment: np.ndarray) -> float:
        """Volume crossing rank boundaries under ``assignment``."""
        assignment = np.asarray(assignment)
        crossing = assignment[self.src] != assignment[self.dst]
        return float(self.volume[crossing].sum())

    def neighbors(self, task: int) -> list[tuple[int, float]]:
        """``(partner, volume)`` pairs for one task (built lazily)."""
        if self._adj is None:
            adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_tasks)]
            for s, d, v in zip(self.src, self.dst, self.volume):
                adj[s].append((int(d), float(v)))
                adj[d].append((int(s), float(v)))
            self._adj = adj
        return self._adj[task]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def ring(cls, n_tasks: int, volume: float = 1.0) -> "CommGraph":
        """Nearest-neighbour ring (1-D halo exchange)."""
        check_positive("n_tasks", n_tasks)
        if n_tasks < 2:
            return cls(np.empty(0), np.empty(0), np.empty(0), n_tasks)
        src = np.arange(n_tasks)
        dst = (src + 1) % n_tasks
        return cls(src, dst, np.full(n_tasks, volume), n_tasks)

    @classmethod
    def random(
        cls,
        n_tasks: int,
        n_edges: int,
        mean_volume: float = 1.0,
        seed: int | np.random.Generator | None = 0,
    ) -> "CommGraph":
        """Random sparse graph with exponential volumes."""
        check_positive("n_tasks", n_tasks)
        check_nonnegative("n_edges", n_edges)
        rng = coerce_rng(seed)
        src = rng.integers(0, n_tasks, size=n_edges)
        dst = rng.integers(0, n_tasks, size=n_edges)
        keep = src != dst
        vol = rng.exponential(mean_volume, size=n_edges)
        return cls(src[keep], dst[keep], vol[keep], n_tasks)


class CommAwareLB(LoadBalancer):
    """Locality refinement on top of any load balancer.

    After the inner balancer produces its assignment, sweep the tasks:
    each task may move to the rank receiving the plurality of its
    communication volume, provided the move strictly reduces off-rank
    volume and keeps the imbalance within ``imbalance_slack`` of the
    inner result (and never above the inner result's max load + the
    task's own load... concretely: the post-move imbalance must not
    exceed ``inner_I * (1 + slack) + slack``). Repeats until a sweep
    makes no move or ``max_sweeps`` is reached.
    """

    name = "CommAwareLB"

    def __init__(
        self,
        graph: CommGraph,
        inner: LoadBalancer | None = None,
        imbalance_slack: float = 0.1,
        max_sweeps: int = 4,
    ) -> None:
        check_nonnegative("imbalance_slack", imbalance_slack)
        check_positive("max_sweeps", max_sweeps)
        self.graph = graph
        self.inner = inner if inner is not None else TemperedLB(n_trials=2, n_iters=4)
        self.imbalance_slack = float(imbalance_slack)
        self.max_sweeps = int(max_sweeps)

    def rebalance(
        self, dist: Distribution, rng: np.random.Generator | int | None = None
    ) -> LBResult:
        if self.graph.n_tasks != dist.n_tasks:
            raise ValueError("communication graph does not match the task count")
        rng = coerce_rng(rng)
        inner_result = self.inner.rebalance(dist, rng)
        assignment = np.array(inner_result.assignment, copy=True)
        loads = np.bincount(assignment, weights=dist.task_loads, minlength=dist.n_ranks)
        l_ave = loads.mean()
        budget = inner_result.final_imbalance * (1.0 + self.imbalance_slack) + self.imbalance_slack
        max_allowed = (1.0 + budget) * l_ave

        moved_total = 0
        for _ in range(self.max_sweeps):
            moved = 0
            for task in range(dist.n_tasks):
                partners = self.graph.neighbors(task)
                if not partners:
                    continue
                here = assignment[task]
                pull = np.zeros(dist.n_ranks)
                for partner, vol in partners:
                    pull[assignment[partner]] += vol
                best = int(np.argmax(pull))
                if best == here or pull[best] <= pull[here]:
                    continue  # no strict off-rank reduction
                t_load = dist.task_loads[task]
                if loads[best] + t_load > max_allowed:
                    continue  # would blow the imbalance budget
                assignment[task] = best
                loads[here] -= t_load
                loads[best] += t_load
                moved += 1
            moved_total += moved
            if moved == 0:
                break

        result = self._make_result(
            dist,
            assignment,
            records=inner_result.records,
            inner_strategy=inner_result.strategy,
            locality_moves=moved_total,
            off_rank_volume_before=self.graph.off_rank_volume(inner_result.assignment),
            off_rank_volume_after=self.graph.off_rank_volume(assignment),
        )
        return result
