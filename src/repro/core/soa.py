"""Structure-of-arrays rank/task state for the transfer stage.

The direct transcription of Algorithm 2 (kept as the test-side oracle)
materializes ``rank_tasks`` as a Python ``list[list[int]]`` — one boxed
int per task, built and garbage-collected every stage. At 2^17 ranks /
millions of tasks that construction alone dominates the stage.
:class:`RankTaskState` replaces it with a CSR view over the assignment:

- one stable ``argsort`` of the assignment gives a contiguous int32
  task-id buffer grouped by rank (ascending task id within each rank,
  exactly the naive construction order);
- ``bounds[r]:bounds[r+1]`` delimits rank ``r``'s slice, so ``tasks(r)``
  is an O(1) array view until rank ``r`` is first mutated;
- mutations are sparse: only ranks that actually send or receive tasks
  ever allocate (an override array for senders, arrival chunks promoted
  on first read for receivers). Untouched ranks — the vast majority at
  scale — never leave the shared buffer.

The float64 load vector and the int task->rank assignment stay plain
contiguous ndarrays owned by the caller; this class only manages the
inverse (rank->tasks) mapping.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RankTaskState", "rank_order"]


def rank_order(ranks: np.ndarray, n_ranks: int) -> np.ndarray:
    """Stable argsort of rank ids in ``[0, n_ranks)``.

    A stable order is fixed by the keys alone, so the id width is free:
    ids that fit 16 bits sort as ``uint16``, for which numpy's stable
    sort is a radix sort — 7x faster than its timsort of 64-bit keys at
    a few thousand ids.
    """
    if n_ranks <= 1 << 16:
        ranks = ranks.astype(np.uint16)
    return np.argsort(ranks, kind="stable")


class RankTaskState:
    """CSR rank->task mapping with sparse copy-on-write overrides.

    Semantically equivalent to a naive ``list[list[int]]``: ``tasks(r)``
    returns rank ``r``'s task ids in the same order (ascending
    construction order plus arrivals in arrival order), ``extend``
    models a pass's tasks arriving at their recipients, and
    ``set_tasks`` replaces a sender's list after a pass.

    ``readers`` (a boolean mask over ranks, or ``None`` for all) names
    the ranks whose lists will still be read: arrivals anywhere else
    are dropped on the floor, which is most of them — a stage without
    cascading only ever reads its initially overloaded ranks, and those
    are rarely anyone's recipient.
    """

    __slots__ = ("n_ranks", "_by_rank", "_bounds", "_override", "_arrivals", "_readers")

    def __init__(
        self, assignment: np.ndarray, n_ranks: int, readers: np.ndarray | None = None
    ) -> None:
        assignment = np.asarray(assignment)
        order = rank_order(assignment, n_ranks)
        #: int32 halves the buffer vs int64 task ids; 2^31 tasks is far
        #: beyond anything the stage addresses.
        self._by_rank = order.astype(np.int32, copy=False)
        self._bounds = np.searchsorted(
            assignment[order], np.arange(n_ranks + 1)
        )
        self.n_ranks = int(n_ranks)
        self._readers = readers
        self._override: dict[int, np.ndarray] = {}
        self._arrivals: dict[int, list[np.ndarray]] = {}

    def tasks(self, rank: int) -> np.ndarray:
        """Rank's current task ids (a shared view until first mutation).

        Pending arrivals are promoted into an override array here — on
        read, not on arrival — so a recipient that is never re-processed
        costs only the chunk bookkeeping.
        """
        arr = self._override.get(rank)
        if arr is None:
            arr = self._by_rank[self._bounds[rank] : self._bounds[rank + 1]]
        pend = self._arrivals.pop(rank, None)
        if pend:
            arr = np.concatenate([arr, *pend])
            self._override[rank] = arr
        return arr

    def set_tasks(self, rank: int, tasks: np.ndarray) -> None:
        """Replace a rank's task array (after a pass removes accepted)."""
        self._override[rank] = tasks

    def extend(self, ranks: np.ndarray, tasks: np.ndarray) -> None:
        """Record ``tasks[i]`` arriving at ``ranks[i]``, in order.

        One pass's accepts at once, grouped by recipient: a stable sort
        keeps each rank's arrivals in arrival order, and each run of
        equal ranks is kept as one array chunk (a view — no per-task
        Python object outlives the call).
        """
        if self._readers is not None:
            read = self._readers[ranks]
            if not read.any():
                return
            ranks, tasks = ranks[read], tasks[read]
        by_rank = rank_order(ranks, self.n_ranks)
        grouped = ranks[by_rank]
        arrived = tasks[by_rank].astype(self._by_rank.dtype)
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, grouped.size]):
            if stop > start:  # only false for an empty call
                chunks = self._arrivals.setdefault(int(grouped[start]), [])
                chunks.append(arrived[start:stop])

    def to_lists(self) -> list[list[int]]:
        """Materialize as the reference ``list[list[int]]`` (tests)."""
        return [
            [int(t) for t in self.tasks(r)] for r in range(self.n_ranks)
        ]
