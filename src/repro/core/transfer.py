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

There is one implementation, in three layers (:class:`_Stage`): a
*prologue* that prepares senders with array operations (candidates,
samplers, task orders), a per-sender *walk* — the fused
:meth:`IncrementalCMF.propose_pass` for the default configuration and
:func:`_scalar_pass` for shared view / nacks / rebuilt CMFs — and one
bulk *apply*. A stage whose senders cannot affect each other prepares
them a block at a time, applying each block at once; any other stage, and
:func:`transfer_from_rank`, runs the same layers one sender at a time.
The list-of-lists transcription it is tested against, bit for bit,
lives in ``tests/core/oracles.py``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, NamedTuple

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
from repro.core.ordering import ORDER_ARBITRARY, ORDERINGS, order_segments
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


class _MoveRows(np.ndarray):
    """``TransferStats.moves``: an ndarray that a list ``+=`` extends
    with its rows, as it did the tuples the rows replaced, rather than
    adding it to elementwise."""

    def __radd__(self, other: object) -> object:
        if isinstance(other, list):
            return NotImplemented  # so the list concatenates
        return super().__radd__(other)


def _move_rows(moves: object = ()) -> np.ndarray:
    """``moves`` as one ``(n, 3)`` int64 array of ``(task, src, dst)`` rows."""
    return np.asarray(moves, dtype=np.int64).reshape(-1, 3).view(_MoveRows)


@dataclass(eq=False)
class TransferStats:
    """Acceptance/rejection accounting for one transfer stage.

    ``transfers`` and ``rejections`` correspond to the columns of the
    § V-B / § V-D tables (a task moving twice counts twice).
    ``stalled_ranks`` counts overloaded ranks that stopped early because
    no CMF could be built (no known candidate with positive mass).
    ``moves`` holds the accepted transfers ``M^p`` as one ``(transfers,
    3)`` int64 array of ``(task, src, dst)`` rows in accept order; a list
    of triples passed in is converted, and a list extended with it
    (``rows += stats.moves``) takes its rows. Two stats are equal when
    every counter and every move is.
    """

    transfers: int = 0
    rejections: int = 0
    nacked: int = 0  #: transfers vetoed by the recipient (nacks mode)
    overloaded_ranks: int = 0
    stalled_ranks: int = 0
    rank_processings: int = 0
    cmf_builds: int = 0  #: distributions defined: one l.5 build, then each l.7 move of ``l_s``
    cmf_updates: int = 0  #: O(log n) incremental mass updates (fast path)
    budget_exhausted: bool = False
    moves: np.ndarray = field(default_factory=_move_rows)  #: (task, src, dst) rows

    def __post_init__(self) -> None:
        self.moves = _move_rows(self.moves)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._counters() == other._counters() and np.array_equal(
            self.moves, other.moves
        )

    def _counters(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "moves")

    @property
    def proposed(self) -> int:
        """Criterion evaluations: accepted + rejected proposals."""
        return self.transfers + self.rejections

    @property
    def rejection_rate(self) -> float:
        """Rejected / attempts, as a fraction in [0, 1]."""
        attempts = self.transfers + self.rejections
        return self.rejections / attempts if attempts else 0.0

    def merge(self, *others: "TransferStats") -> None:
        """Accumulate other stages' counters and moves into this one (in
        argument order). The moves are joined once per call, so merging
        many stats in one call costs their total number of moves."""
        for other in others:
            self.transfers += other.transfers
            self.rejections += other.rejections
            self.nacked += other.nacked
            self.overloaded_ranks += other.overloaded_ranks
            self.stalled_ranks += other.stalled_ranks
            self.rank_processings += other.rank_processings
            self.cmf_builds += other.cmf_builds
            self.cmf_updates += other.cmf_updates
            self.budget_exhausted |= other.budget_exhausted
        self.moves = _move_rows(np.concatenate([self.moves, *(other.moves for other in others)]))

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

    def clone(self) -> "_RebuildCMF":
        """An independent copy: its own loads, the same counters. ``cmf``
        is replaced on a rebuild, never written, so the copy shares it."""
        twin = type(self).__new__(type(self))
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.loads = self.loads.copy()
        return twin


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
        proposal/acceptance counters under the ``transfer.`` prefix and
        the wall seconds of its three layers as the timers
        ``wall.transfer.prologue`` / ``.walk`` / ``.apply``. Never
        consumes RNG; without it no clock is read.
    """
    config = config or TransferConfig()
    rng = coerce_rng(rng)
    n_ranks = gossip.knowledge.n_ranks
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks).astype(
        np.float64
    )
    stage = _Stage(assignment, task_loads, loads, gossip, config, rng, registry)
    is_overloaded = loads > stage.threshold_load
    overloaded = np.flatnonzero(is_overloaded)
    stage.stats.overloaded_ranks = overloaded.size
    if overloaded.size and _independent(config, gossip, overloaded, is_overloaded):
        stage.run_independent(overloaded, is_overloaded)
    elif overloaded.size:
        stage.run_queue(overloaded, is_overloaded)
    stats = stage.close()
    if registry is not None:
        stats.record(registry)
        for layer, seconds in stage.spent.items():
            registry.add_time(f"wall.transfer.{layer}", seconds)
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
    # ``p``'s tasks in ascending id order — what the CSR slice holds.
    # A snapshot sender without nacks reads no true load but its own,
    # so only its tasks are summed (in the full bincount's order: the
    # bits of ``loads[p]`` are the same).
    tasks = np.flatnonzero(assignment == p)
    own = slice(None) if config.view == VIEW_SHARED or config.nacks else tasks
    loads = np.bincount(assignment[own], weights=task_loads[own], minlength=n_ranks)
    stage = _Stage(assignment, task_loads, loads, gossip, config, rng)
    if loads[p] <= stage.threshold_load:
        return stage.stats
    stage.stats.overloaded_ranks = 1
    stage.stats.rank_processings = 1
    stage.walk(*stage.prologue(p, tasks))
    stage.apply()
    stats = stage.close()
    if registry is not None:
        stats.record(registry)
    return stats


def _independent(
    config: TransferConfig, gossip: GossipResult, overloaded: np.ndarray,
    is_overloaded: np.ndarray,
) -> bool:
    """Whether no sender of the stage reads what another one writes.

    Under the snapshot view without nacks a sender reads only the
    inform snapshot, its own tasks and its own load; without cascading
    no rank joins mid-stage. Its own load and tasks change only if it
    receives, that is, if it is in another sender's ``S^p`` — which one
    OR of the senders' rows against the overloaded mask rules out. (It
    holds by construction for ``h >= 1``: the inform stage only spreads
    ranks below ``l_ave``.)
    """
    return (
        config.view == VIEW_SNAPSHOT
        and not config.cascade
        and not config.nacks
        and not gossip.knowledge.knows_any(overloaded, is_overloaded)
    )


#: Unpacked knowledge bytes per prologue block (``P`` per sampler
#: built): a block builds at most ``2**15 // P`` samplers, so each
#: per-candidate array stays within 256 KiB and in cache. Larger blocks
#: measured slower on senders that know ≈ 3,000 ranks.
_BLOCK_BYTES = 1 << 15
#: Tasks per prologue block, unless one sender holds more: its
#: per-task arrays stay as small as one sender's were.
_BLOCK_TASKS = 1 << 16


def _blocks(
    sizes: list[int], builds: list[bool], max_builds: int
) -> Iterator[tuple[int, int]]:
    """Consecutive ``[lo, hi)`` runs of senders (at least one each),
    each with at most ``max_builds`` of the senders flagged in
    ``builds`` and at most :data:`_BLOCK_TASKS` tasks, unless its first
    sender alone exceeds either."""
    lo = 0
    while lo < len(sizes):
        hi, held, built = lo + 1, sizes[lo], builds[lo]
        while (
            hi < len(sizes)
            and built + builds[hi] <= max_builds
            and held + sizes[hi] <= _BLOCK_TASKS
        ):
            held += sizes[hi]
            built += builds[hi]
            hi += 1
        yield lo, hi
        lo = hi


class _Sender(NamedTuple):
    """What the prologue prepares for one sender's walk."""

    rank: int
    candidates: np.ndarray  #: ``S^p`` minus ``p``, sorted
    sampler: IncrementalCMF | _RebuildCMF  #: over the candidates' known loads
    tasks: np.ndarray  #: ``p``'s task ids
    ordered: np.ndarray  #: the same ids in first-pass walk order
    ordered_loads: np.ndarray  #: their loads


class _Stage:
    """One transfer stage, as three layers over its senders.

    The prologue prepares a block of senders with array operations —
    candidates, known loads and CMF samplers (:meth:`samplers`),
    first-pass task orders (:meth:`orders`); no RNG. ``walk`` runs one
    sender's passes, the only RNG-ordered step, and records the
    accepts. ``apply`` writes every recorded accept to ``assignment``,
    the loads and the stats, in sender order, and keeps them as one
    block of ``(task, src, dst)`` rows; ``close`` joins the blocks into
    ``TransferStats.moves`` once, at the end of the stage.

    A stage whose senders are independent (:func:`_independent`) runs
    one prologue and one apply per block of senders
    (:meth:`run_independent`): only the order of their walks, which is
    the order of their draws, matters, and senders with equal ``S^p``
    share one CMF build. Every other stage, like
    :func:`transfer_from_rank`, runs the same three layers for one
    sender at a time, prepared at dequeue time (:meth:`run_queue`).

    A sender whose view is its own CMF — snapshot view, incremental
    recomputation, no nacks: the default — walks each pass *fused*
    (:meth:`IncrementalCMF.propose_pass`, accepts only recorded, the
    recipients' loads added at apply time by an unbuffered, sequential
    ``np.add.at``, so each keeps its order and bits). Every other
    configuration walks :func:`_scalar_pass`, which updates the loads as
    it goes. Same float operations in the same order and the same RNG
    consumption as the list-of-lists loop in ``tests/core/oracles.py``.
    """

    def __init__(
        self,
        assignment: np.ndarray,
        task_loads: np.ndarray,
        loads: np.ndarray,
        gossip: GossipResult,
        config: TransferConfig,
        rng: np.random.Generator,
        registry: StatsRegistry | None = None,
    ) -> None:
        self.assignment = assignment
        self.task_loads = task_loads
        self.loads = loads
        self.gossip = gossip
        self.config = config
        self.rng = rng
        self.stats = TransferStats()
        self.l_ave = gossip.average_load
        self.threshold_load = config.threshold * self.l_ave
        self.shared = config.view == VIEW_SHARED
        self.fused = config.recompute_cmf and not self.shared and not config.nacks
        self.max_passes = config.max_passes if config.max_passes is not None else _PASS_CAP
        # Accepts recorded since the last apply: per pass, its sender and
        # one array each of the moved tasks and of their recipients.
        self._senders: list[int] = []
        self._moved: list[np.ndarray] = []
        self._recipients: list[np.ndarray] = []
        # One (task, src, dst) block per apply, joined by ``close``.
        self._applied: list[np.ndarray] = []
        # Wall seconds per layer; the clock is read only with a registry.
        self.spent = {"prologue": 0.0, "walk": 0.0, "apply": 0.0}
        self._clock = time.perf_counter if registry is not None else None
        self._mark = self._clock() if self._clock is not None else 0.0

    def _lap(self, layer: str) -> None:
        """Charge the time since the previous lap to ``layer``."""
        if self._clock is not None:
            now = self._clock()
            self.spent[layer] += now - self._mark
            self._mark = now

    def run_independent(self, overloaded: np.ndarray, is_overloaded: np.ndarray) -> None:
        """Every sender once, in rank order: per block of senders, one
        prologue, one walk per sender and one apply. (Applying per block
        rather than per stage keeps the temporaries of a stage with
        hundreds of thousands of accepts as small as one block's.)

        Here no sender is in any ``S^p``, so a sender's candidates and
        sampler are a function of its ``S^p`` and the inform snapshot
        alone (Alg. 2 l.5), and senders with equal sets share them: the
        sampler is built with the first sender of its group, each sender
        but the group's last walks a clone made at walk entry, and the
        last walks the build itself. A clone copies at its first write."""
        state = RankTaskState(self.assignment, is_overloaded.size, is_overloaded)
        owned = [state.tasks(p) for p in overloaded.tolist()]
        self.stats.rank_processings = overloaded.size
        group = self.gossip.knowledge.equal_sets(overloaded)
        last = {g: i for i, g in enumerate(group)}
        first = [g == i for i, g in enumerate(group)]
        built: dict[int, tuple[np.ndarray, IncrementalCMF | _RebuildCMF]] = {}
        max_builds = _BLOCK_BYTES // is_overloaded.size
        for lo, hi in _blocks([len(t) for t in owned], first, max_builds):
            opening = [i for i in range(lo, hi) if first[i]]
            if opening:
                built.update(zip(opening, self.samplers(overloaded[opening])))
            task_bounds = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum([len(t) for t in owned[lo:hi]], out=task_bounds[1:])
            tasks = np.concatenate(owned[lo:hi])
            ordered, ordered_loads = self.orders(tasks, task_bounds, self.loads[overloaded[lo:hi]])
            self._lap("prologue")
            cuts = task_bounds.tolist()
            for i, p, a, b in zip(range(lo, hi), overloaded[lo:hi].tolist(), cuts, cuts[1:]):
                g = group[i]
                if last[g] == i:  # the group's build goes once it is walked
                    candidates, sampler = built.pop(g)
                else:
                    candidates, sampler = built[g]
                    sampler = sampler.clone()
                self.walk(p, candidates, sampler, tasks[a:b], ordered[a:b], ordered_loads[a:b])
            self._lap("walk")
            self.apply()
            self._lap("apply")

    def run_queue(self, overloaded: np.ndarray, is_overloaded: np.ndarray) -> None:
        """Senders in queue order, each prepared at dequeue time and
        applied before the next: a later sender may read what an earlier
        one wrote (its loads, its arrivals) and, with ``cascade``, ranks
        overloaded mid-stage join the queue."""
        config, loads, stats = self.config, self.loads, self.stats
        # Senders only consult their own tasks; recipient arrivals are
        # maintained so cascaded processing sees them. Without cascading
        # only the ranks queued now are ever read.
        state = RankTaskState(
            self.assignment, is_overloaded.size, None if config.cascade else is_overloaded
        )
        queue: deque[int] = deque(overloaded.tolist())
        queued = set(queue)
        # Budget against pathological re-queue cycles; generous because
        # the relaxed criterion guarantees monotone progress (Lemma 1).
        budget = 20 * is_overloaded.size + 100
        while queue:
            p = queue.popleft()
            queued.discard(p)
            if loads[p] <= self.threshold_load:
                continue
            if stats.rank_processings >= budget:
                stats.budget_exhausted = True
                break
            stats.rank_processings += 1
            tasks = state.tasks(p)
            sender = self.prologue(p, tasks)
            self._lap("prologue")
            self.walk(*sender)
            self._lap("walk")
            if not self._moved:
                continue
            moved, recipients = self.apply()
            state.extend(recipients, moved)
            state.set_tasks(p, tasks[self.assignment[tasks] == p])
            self._lap("apply")
            if config.cascade:
                # A set filled in accept order, so it iterates as the
                # one-sender loop's always did.
                for r in set(recipients.tolist()):
                    if loads[r] > self.threshold_load and r not in queued:
                        queue.append(r)
                        queued.add(r)

    def prologue(self, p: int, tasks: np.ndarray) -> _Sender:
        """Prepare sender ``p``, which holds ``tasks``, at the current loads."""
        ((candidates, sampler),) = self.samplers(np.array([p]))
        ordered, ordered_loads = self.orders(
            tasks, np.array([0, tasks.size]), self.loads[p : p + 1]
        )
        return _Sender(p, candidates, sampler, tasks, ordered, ordered_loads)

    def samplers(
        self, senders: np.ndarray
    ) -> list[tuple[np.ndarray, IncrementalCMF | _RebuildCMF]]:
        """Each sender's candidates (``S^p`` minus ``p``, sorted) and a
        sampler over their known loads, at the current loads."""
        config = self.config
        candidates, bounds = self.gossip.knowledge.known_many(senders)
        owners = senders[0] if len(senders) == 1 else np.repeat(senders, bounds[1:] - bounds[:-1])
        mine = candidates == owners
        if mine.any():  # a sender never proposes to itself
            candidates = candidates[~mine]
            kept = np.zeros(mine.size + 1, dtype=np.int64)
            np.cumsum(~mine, out=kept[1:])
            bounds = kept[bounds]
        # A gather is already a private copy: each sender's own bookkeeping.
        known = (self.loads if self.shared else self.gossip.load_snapshot)[candidates]
        cuts = bounds.tolist()
        starts, ends = cuts[:-1], cuts[1:]
        if config.recompute_cmf:
            samplers = IncrementalCMF.many(known, bounds, self.l_ave, config.cmf)
        else:
            samplers = [
                _RebuildCMF(known[a:b], self.l_ave, config.cmf) for a, b in zip(starts, ends)
            ]
        return [(candidates[a:b], sampler) for a, b, sampler in zip(starts, ends, samplers)]

    def orders(
        self, tasks: np.ndarray, task_bounds: np.ndarray, sender_loads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The runs of ``tasks`` cut at ``task_bounds`` (one per sender,
        whose load is in ``sender_loads``), each in walk order, and
        their loads."""
        ordered = tasks[
            order_segments(
                self.config.ordering, tasks, task_bounds, self.task_loads, self.l_ave,
                sender_loads,
            )
        ]
        return ordered, self.task_loads[ordered]

    def walk(
        self,
        p: int,
        candidates: np.ndarray,
        sampler: IncrementalCMF | _RebuildCMF,
        tasks: np.ndarray,
        ordered: np.ndarray,
        ordered_loads: np.ndarray,
    ) -> None:
        """Algorithm 2 TRANSFER for one prepared sender: its passes,
        recording each pass's accepts. A pass after the first orders
        what the previous one left, alone."""
        stats, loads, config = self.stats, self.loads, self.config
        if candidates.size == 0:
            stats.stalled_ranks += 1
            return
        threshold_load = self.threshold_load
        relaxed = config.criterion == CRITERION_RELAXED
        # ``loads[p]`` as a float, kept equal to it: both passes return it.
        p_load = float(loads[p])
        for pass_no in range(self.max_passes):
            if pass_no:  # what the previous pass left, ordered alone
                tasks = tasks[~np.isin(tasks, self._moved[-1])]
                ordered, ordered_loads = self.orders(
                    tasks, np.array([0, tasks.size]), loads[p : p + 1]
                )
            if p_load <= threshold_load or tasks.size == 0:
                break
            if self.fused:
                walk = sampler.propose_pass(
                    ordered_loads, p_load, threshold_load, relaxed, self.rng
                )
            else:
                walk = _scalar_pass(
                    p, ordered_loads, candidates, sampler, loads, self.l_ave,
                    threshold_load, config, self.rng, stats,
                )
            acc_pos, acc_idx, p_load, rejected = walk
            stats.rejections += rejected
            n_acc = len(acc_pos)
            if n_acc == 0:
                break
            # Faster than indexing with the lists or `asarray`, at any size.
            if self.fused:  # the walk only recorded its accepts
                loads[p] = p_load
            self._senders.append(p)
            self._moved.append(ordered[np.fromiter(acc_pos, np.intp, n_acc)])
            self._recipients.append(candidates[np.fromiter(acc_idx, np.intp, n_acc)])
            # A pass ending on the threshold leaves its last accept unapplied.
            if p_load <= threshold_load or sampler.exhausted:
                break
        stats.cmf_builds += sampler.builds
        stats.cmf_updates += sampler.updates
        if p_load > threshold_load and sampler.exhausted:
            stats.stalled_ranks += 1

    def apply(self) -> tuple[np.ndarray, np.ndarray]:
        """Apply every accept recorded since the last call, in record
        order: one gather-and-scatter. Returns ``(moved task ids,
        recipients)``."""
        if not self._moved:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        moved, recipients = _joined(self._moved), _joined(self._recipients)
        if self.fused:
            np.add.at(self.loads, recipients, self.task_loads[moved])
        self.assignment[moved] = recipients
        self.stats.transfers += moved.size
        block = np.empty((moved.size, 3), dtype=np.int64)
        block[:, 0] = moved
        block[:, 1] = np.repeat(self._senders, [part.size for part in self._moved])
        block[:, 2] = recipients
        self._applied.append(block)
        for pending in (self._senders, self._moved, self._recipients):
            pending.clear()
        return moved, recipients

    def close(self) -> TransferStats:
        """The stage's stats, its applied blocks joined into ``moves``."""
        if self._applied:
            self.stats.moves = _move_rows(_joined(self._applied))
        return self.stats


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)``, without a copy of a lone part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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

