"""Algorithm 2 — the transfer stage.

Every overloaded rank (``l^p > h * l_ave``) walks its tasks in the
configured order and, for each candidate, samples a potential recipient
from the CMF over the underloaded ranks it learned about during the
inform stage, then applies the transfer criterion.

Two *view* semantics are provided, because the paper uses both:

``snapshot`` (default — the distributed system)
    A sender's knowledge of recipient loads is the inform-stage snapshot
    plus only its *own* accepted transfers. Concurrent transfers from
    other overloaded ranks are invisible (no negative acknowledgements,
    § V-A), so a recipient can be overfilled by several senders at once.

``shared`` (the LBAF analysis tool of § V-B/V-D)
    All ranks observe live proposed loads, as in a sequential simulation
    with global state. This is the semantics that reproduces the paper's
    per-iteration transfer/rejection tables (e.g. >10^4 transfers in one
    iteration — tasks moving more than once via cascading).

Orthogonally, ``max_passes`` lets a rank cycle over its task list until
it stops being overloaded or a full pass accepts nothing (the paper's
rejection counts imply such retrying), and ``cascade`` re-queues ranks
that *become* overloaded during the stage.

The stage mutates a *proposed* assignment; actual migrations happen only
once at the end of Algorithm 3 (see :mod:`repro.core.refinement`).

There is one implementation: structure-of-arrays rank state
(:mod:`repro.core.soa`) walked by one loop family — the fused
:meth:`IncrementalCMF.propose_pass` for the default configuration and
:func:`_scalar_pass` for shared view / nacks / rebuilt CMFs — sharing
one bulk apply. The list-of-lists transcription it is tested against,
bit for bit, lives in ``tests/core/oracles.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from repro.core.cmf import (
    CMF_MODIFIED,
    CMF_ORIGINAL,
    IncrementalCMF,
    build_cmf,
    sample_cmf,
)
from repro.core.criteria import CRITERIA, CRITERION_RELAXED
from repro.core.gossip import GossipResult
from repro.core.ordering import ORDER_ARBITRARY, ORDERINGS, order_tasks
from repro.core.soa import RankTaskState
from repro.obs import StatsRegistry
from repro.util.validation import (
    check_in,
    check_positive,
    check_positive_int,
    coerce_rng,
)

__all__ = ["TransferConfig", "TransferStats", "transfer_stage", "transfer_from_rank"]

VIEW_SNAPSHOT = "snapshot"
VIEW_SHARED = "shared"

#: Hard cap on full passes when ``max_passes`` is None ("until no progress").
_PASS_CAP = 1000


@dataclass(frozen=True)
class TransferConfig:
    """Knobs of Algorithm 2 (the § V proposed changes toggle these)."""

    criterion: str = CRITERION_RELAXED  #: "original" (l.35) or "relaxed" (l.37)
    cmf: str = CMF_MODIFIED  #: "original" (l.23) or "modified" (l.25)
    #: Refresh F per accepted transfer (l.7, maintained incrementally:
    #: O(log n) Fenwick updates) vs build it once (l.5).
    recompute_cmf: bool = True
    ordering: str = ORDER_ARBITRARY  #: § V-E traversal order
    threshold: float = 1.0  #: h — relative imbalance threshold
    view: str = VIEW_SNAPSHOT  #: "snapshot" (distributed) or "shared" (LBAF)
    max_passes: int | None = 1  #: passes over the task list; None = no-progress
    cascade: bool = False  #: process ranks overloaded mid-stage
    nacks: bool = False  #: Menon-style negative acknowledgements (§ V-A)

    def __post_init__(self) -> None:
        check_in("criterion", self.criterion, CRITERIA)
        check_in("cmf", self.cmf, (CMF_ORIGINAL, CMF_MODIFIED))
        check_in("ordering", self.ordering, ORDERINGS)
        check_positive("threshold", self.threshold)
        check_in("view", self.view, (VIEW_SNAPSHOT, VIEW_SHARED))
        if self.max_passes is not None:
            check_positive_int("max_passes", self.max_passes)

    def lbaf_variant(self) -> "TransferConfig":
        """This stage under the semantics of the authors' LBAF tool, which
        produced the § V-B / § V-D tables (see the module docstring)."""
        return replace(self, view=VIEW_SHARED, max_passes=None, cascade=True)


@dataclass
class TransferStats:
    """Acceptance/rejection accounting for one transfer stage.

    ``transfers`` and ``rejections`` correspond to the columns of the
    § V-B / § V-D tables (a task moving twice counts twice).
    ``stalled_ranks`` counts overloaded ranks that stopped early because
    no CMF could be built (no known candidate with positive mass).
    """

    transfers: int = 0
    rejections: int = 0
    nacked: int = 0  #: transfers vetoed by the recipient (nacks mode)
    overloaded_ranks: int = 0
    stalled_ranks: int = 0
    rank_processings: int = 0
    cmf_builds: int = 0  #: full BUILDCMF invocations (l.5 vs l.7 cost)
    cmf_updates: int = 0  #: O(log n) incremental mass updates (fast path)
    budget_exhausted: bool = False
    moves: list[tuple[int, int, int]] = field(default_factory=list)  #: (task, src, dst)

    @property
    def proposed(self) -> int:
        """Criterion evaluations: accepted + rejected proposals."""
        return self.transfers + self.rejections

    @property
    def rejection_rate(self) -> float:
        """Rejected / attempts, as a fraction in [0, 1]."""
        attempts = self.transfers + self.rejections
        return self.rejections / attempts if attempts else 0.0

    def merge(self, other: "TransferStats") -> None:
        """Accumulate another stage's counters into this one."""
        self.transfers += other.transfers
        self.rejections += other.rejections
        self.nacked += other.nacked
        self.overloaded_ranks += other.overloaded_ranks
        self.stalled_ranks += other.stalled_ranks
        self.rank_processings += other.rank_processings
        self.cmf_builds += other.cmf_builds
        self.cmf_updates += other.cmf_updates
        self.budget_exhausted |= other.budget_exhausted
        self.moves.extend(other.moves)

    def record(self, registry: StatsRegistry, prefix: str = "transfer") -> None:
        """Add this stage's counters to a registry under ``prefix``."""
        registry.inc(f"{prefix}.stages")
        registry.inc(f"{prefix}.proposed", self.proposed)
        registry.inc(f"{prefix}.accepted", self.transfers)
        registry.inc(f"{prefix}.rejected", self.rejections)
        registry.inc(f"{prefix}.nacked", self.nacked)
        registry.inc(f"{prefix}.cmf_builds", self.cmf_builds)
        registry.inc(f"{prefix}.cmf_updates", self.cmf_updates)
        registry.inc(f"{prefix}.overloaded_ranks", self.overloaded_ranks)
        registry.inc(f"{prefix}.stalled_ranks", self.stalled_ranks)


class _RebuildCMF:
    """Build-once recipient sampler (``recompute_cmf=False``, Alg. 2
    l.5): ``poke`` sets a known load *without* refreshing the
    distribution. Shares a duck interface with :class:`IncrementalCMF`
    (``exhausted``, ``sample``, ``update``, ``builds``/``updates``
    counters); its ``update`` — a full BUILDCMF per refresh — is what
    the test-side rebuild-per-accept reference runs.
    """

    __slots__ = ("loads", "l_ave", "variant", "cmf", "builds", "updates")

    def __init__(self, known_loads: np.ndarray, l_ave: float, variant: str) -> None:
        self.loads = known_loads
        self.l_ave = l_ave
        self.variant = variant
        self.builds = 0
        self.updates = 0
        self._build()

    def _build(self) -> None:
        self.cmf = build_cmf(self.loads, self.l_ave, self.variant)
        self.builds += 1

    @property
    def exhausted(self) -> bool:
        return self.cmf is None

    def sample(self, rng: np.random.Generator) -> int:
        return sample_cmf(self.cmf, rng)

    def update(self, idx: int, new_load: float) -> None:
        self.loads[idx] = new_load
        self._build()

    def poke(self, idx: int, new_load: float) -> None:
        self.loads[idx] = new_load


def transfer_stage(
    assignment: np.ndarray,
    task_loads: np.ndarray,
    gossip: GossipResult,
    config: TransferConfig | None = None,
    rng: np.random.Generator | int | None = None,
    registry: StatsRegistry | None = None,
) -> TransferStats:
    """Run Algorithm 2 on every overloaded rank, mutating ``assignment``.

    Parameters
    ----------
    assignment:
        Proposed task->rank mapping; mutated in place with accepted
        transfers.
    task_loads:
        Global per-task loads (read-only).
    gossip:
        Result of the matching inform stage; provides each rank's
        knowledge ``S^p`` and the load snapshot ``LOAD^p``.
    config:
        Algorithm 2 knobs; defaults to the TemperedLB configuration.
    rng:
        Seed or generator for CMF sampling.
    registry:
        Optional :class:`~repro.obs.StatsRegistry`; records the stage's
        proposal/acceptance counters under the ``transfer.`` prefix.
        Never consumes RNG.
    """
    config = config or TransferConfig()
    rng = coerce_rng(rng)
    n_ranks = gossip.knowledge.n_ranks
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks).astype(
        np.float64
    )
    l_ave = gossip.average_load
    threshold_load = config.threshold * l_ave
    stats = TransferStats()

    is_overloaded = loads > threshold_load
    overloaded = np.flatnonzero(is_overloaded)
    stats.overloaded_ranks = overloaded.size
    if overloaded.size == 0:
        if registry is not None:
            stats.record(registry)
        return stats

    # Mutable per-rank task state. Senders only consult their own tasks;
    # recipient arrivals are maintained so cascaded processing sees them.
    # Without cascading only the ranks queued now are ever read.
    readers = None if config.cascade else is_overloaded
    state = RankTaskState(assignment, n_ranks, readers)

    queue: deque[int] = deque(int(p) for p in overloaded)
    queued = set(queue)
    # Budget against pathological re-queue cycles; generous because the
    # relaxed criterion guarantees monotone progress (Lemma 1).
    budget = 20 * n_ranks + 100
    while queue:
        p = queue.popleft()
        queued.discard(p)
        if loads[p] <= threshold_load:
            continue
        if stats.rank_processings >= budget:
            stats.budget_exhausted = True
            break
        stats.rank_processings += 1
        recipients = _transfer_from_rank_soa(
            p, state.tasks(p), state, assignment, task_loads, loads, l_ave,
            gossip, config, rng, stats,
        )
        if config.cascade:
            for r in recipients:
                if loads[r] > threshold_load and r not in queued:
                    queue.append(r)
                    queued.add(r)
    if registry is not None:
        stats.record(registry)
    return stats


def transfer_from_rank(
    p: int,
    assignment: np.ndarray,
    task_loads: np.ndarray,
    gossip: GossipResult,
    config: TransferConfig | None = None,
    rng: np.random.Generator | int | None = None,
    registry: StatsRegistry | None = None,
) -> TransferStats:
    """Run Algorithm 2 for a single rank ``p`` (the per-rank view an
    event-level runtime charges each rank for). Mutates ``assignment``
    with ``p``'s accepted proposals and returns ``p``'s own stats."""
    config = config or TransferConfig()
    rng = coerce_rng(rng)
    p = int(p)
    n_ranks = gossip.knowledge.n_ranks
    l_ave = gossip.average_load
    # ``p``'s tasks in ascending id order — what the CSR slice holds.
    # A snapshot sender without nacks reads no true load but its own,
    # so only its tasks are summed (in the full bincount's order: the
    # bits of ``loads[p]`` are the same).
    tasks = np.flatnonzero(assignment == p)
    own = slice(None) if config.view == VIEW_SHARED or config.nacks else tasks
    loads = np.bincount(assignment[own], weights=task_loads[own], minlength=n_ranks)
    stats = TransferStats()
    if loads[p] <= config.threshold * l_ave:
        return stats
    stats.overloaded_ranks = 1
    stats.rank_processings = 1
    _transfer_from_rank_soa(
        p, tasks, None, assignment, task_loads, loads, l_ave, gossip, config, rng, stats
    )
    if registry is not None:
        stats.record(registry)
    return stats


def _transfer_from_rank_soa(
    p: int,
    tasks: np.ndarray,
    state: RankTaskState | None,
    assignment: np.ndarray,
    task_loads: np.ndarray,
    loads: np.ndarray,
    l_ave: float,
    gossip: GossipResult,
    config: TransferConfig,
    rng: np.random.Generator,
    stats: TransferStats,
) -> set[int]:
    """Algorithm 2 TRANSFER for one overloaded rank ``p``, over
    structure-of-arrays state; returns the ranks that received tasks
    (for cascading).

    ``tasks`` is ``p``'s task-id array and ``state`` (``None`` for a
    lone sender, whose arrivals nobody reads) records where tasks go.
    Same float operations in the same order and the same RNG
    consumption as the list-of-lists loop in ``tests/core/oracles.py``.

    A sender whose view is its own CMF — snapshot view, incremental
    recomputation, no nacks: the default — runs each pass *fused*:
    :meth:`IncrementalCMF.propose_pass` walks the tasks over local
    scalars and only records ``(position, candidate)`` per accept, and
    the accepts are applied afterwards in bulk. ``np.add.at`` is
    unbuffered and sequential, so each recipient's additions keep their
    order and bits; the sender's load is the walk's running value.
    Every other configuration walks :func:`_scalar_pass`; both share
    the bulk tail. Per-pass work is O(tasks of ``p``), never
    O(candidates) beyond the CMF build.
    """
    candidates = gossip.knowledge.known(p)
    candidates = candidates[candidates != p]
    if candidates.size == 0:
        stats.stalled_ranks += 1
        return set()

    shared = config.view == VIEW_SHARED
    # A gather is already a private copy: the sender's own bookkeeping.
    known_loads = (loads if shared else gossip.load_snapshot)[candidates]
    if config.recompute_cmf:
        sampler = IncrementalCMF(known_loads, l_ave, config.cmf, copy=False)
    else:
        sampler = _RebuildCMF(known_loads, l_ave, config.cmf)

    fused = config.recompute_cmf and not shared and not config.nacks
    relaxed = config.criterion == CRITERION_RELAXED
    threshold_load = config.threshold * l_ave
    touched: set[int] = set()

    max_passes = config.max_passes if config.max_passes is not None else _PASS_CAP
    for _ in range(max_passes):
        if loads[p] <= threshold_load or tasks.size == 0:
            break
        order = order_tasks(
            config.ordering,
            tasks.astype(np.int64, copy=False),
            task_loads,
            l_ave,
            float(loads[p]),
        )
        o_loads = task_loads[order]
        if fused:
            walk = sampler.propose_pass(
                o_loads, float(loads[p]), threshold_load, relaxed, rng
            )
        else:
            walk = _scalar_pass(
                p, o_loads, candidates, sampler, loads, l_ave, threshold_load,
                config, rng, stats,
            )
        acc_pos, acc_idx, p_load, rejected = walk
        stats.rejections += rejected
        if len(acc_pos) == 0:
            break
        acc_pos = np.asarray(acc_pos, dtype=np.intp)
        recipients = candidates[np.asarray(acc_idx, dtype=np.intp)]
        if fused:  # the walk only recorded its accepts; _scalar_pass applied them
            loads[p] = p_load
            np.add.at(loads, recipients, o_loads[acc_pos])
        moved = order[acc_pos]
        assignment[moved] = recipients
        stats.transfers += moved.size
        arrived_at = recipients.tolist()
        stats.moves.extend(zip(moved.tolist(), repeat(p), arrived_at))
        touched.update(arrived_at)
        tasks = tasks[assignment[tasks] == p]
        if state is not None:
            state.extend(recipients, moved)
            state.set_tasks(p, tasks)
        if sampler.exhausted:
            break
    stats.cmf_builds += sampler.builds
    stats.cmf_updates += sampler.updates
    if sampler.exhausted and loads[p] > threshold_load:
        stats.stalled_ranks += 1
    return touched


def _scalar_pass(
    p: int,
    o_loads: np.ndarray,
    candidates: np.ndarray,
    sampler: IncrementalCMF | _RebuildCMF,
    loads: np.ndarray,
    l_ave: float,
    threshold_load: float,
    config: TransferConfig,
    rng: np.random.Generator,
    stats: TransferStats,
) -> tuple[list[int], list[int], float, int]:
    """One pass of the general per-proposal loop: shared view, nacks or
    a non-incremental CMF, where each proposal reads state the previous
    accept wrote outside the sampler. Updates ``loads`` as it goes;
    returns what :meth:`IncrementalCMF.propose_pass` does."""
    shared = config.view == VIEW_SHARED
    criterion = CRITERIA[config.criterion]
    known_loads = sampler.loads
    acc_pos: list[int] = []
    acc_idx: list[int] = []
    rejected = 0
    for pos, o_load in enumerate(o_loads.tolist()):
        if loads[p] <= threshold_load or sampler.exhausted:
            break
        idx = sampler.sample(rng)
        l_x = float(loads[candidates[idx]]) if shared else float(known_loads[idx])
        if not criterion(l_x, o_load, l_ave, float(loads[p])):
            rejected += 1
            continue
        recipient = int(candidates[idx])
        if config.nacks and loads[recipient] + o_load > threshold_load:
            # Menon-style veto against the recipient's *true* load; the
            # sender corrects its knowledge and keeps the task.
            stats.nacked += 1
            if not shared:
                if config.recompute_cmf:
                    sampler.update(idx, float(loads[recipient]))
                else:
                    sampler.poke(idx, float(loads[recipient]))
            continue
        loads[p] -= o_load
        loads[recipient] += o_load
        acc_pos.append(pos)
        acc_idx.append(idx)
        if config.recompute_cmf:
            sampler.update(idx, float(loads[recipient]) if shared else l_x + o_load)
        elif not shared:
            sampler.poke(idx, l_x + o_load)
    return acc_pos, acc_idx, float(loads[p]), rejected

