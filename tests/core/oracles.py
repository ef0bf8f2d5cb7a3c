"""Test-side reference implementations, one per stage.

Production keeps one path per stage; these are the small, slow, direct
transcriptions the equivalence suites compare it against. Nothing under
``src/`` imports this module.

:func:`inform_oracle`
    Algorithm 1 with barrier rounds over plain Python ``set``s. It draws
    targets per sender, so it is *statistically* equivalent to the
    batched drivers (same ``f x |senders|`` message model, matched
    coverage distributions), not bit-identical. A plain
    ``list[set[int]]`` is also the API reference of the knowledge-store
    tests (:func:`member_sets`, :func:`set_coverage`).
:func:`inform_set_model`
    The production round loop (``_run_rounds``: sampler, accounting,
    fault fates) over :class:`SetStore`, a ``list[set[int]]``
    implementation of the five-method store adapter. The sampler's
    control flow depends only on candidate counts, so this one *is*
    bit-identical to both production stores — member sets, per-round
    accounting, fault counters, final RNG state — for uncapped and
    capped-"lowest" stages. It shares no storage code with them: the
    "lowest" trim is ``sorted(members, key=(load, id))[:cap]``.
:func:`transfer_stage_lists`
    Algorithm 2 over ``list[list[int]]`` rank/task state, behind
    :func:`repro.core.transfer.transfer_stage`'s signature, one sender
    at a time. It shares the CMF samplers with production (each built
    alone) and orders tasks with :func:`order_tasks`, so it is
    bit-identical to it: same assignment, same stats, same final RNG
    state. With
    ``rebuild_cmf=True`` it refreshes the CMF by a full BUILDCMF per
    accepted transfer instead of incrementally — the reference that
    :class:`repro.core.cmf.IncrementalCMF` is held to (same decisions
    and RNG stream; only the ``cmf_builds``/``cmf_updates`` counters
    differ).
:func:`sample_packed_rows` / :func:`two_group_order`
    The inform sampler and the Alg. 5/6 comparator as they stood before
    the one-sort wave dedup and the one-``lexsort`` ordering: a stable
    argsort dedup, a broadcast against the picked slots and a per-slot
    acceptance loop; two stable argsorts and a concatenate. Production
    must return the same rows, targets and order and leave the
    generator in the same state.
:func:`order_tasks`
    ORDERTASKS one sender at a time, each of the four orderings as its
    listing reads (the oracle's own; production sorts a block of
    senders at once).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.cmf import IncrementalCMF
from repro.core.criteria import CRITERIA
from repro.core.gossip import (
    _MAX_REJECTION_WAVES,
    _MAX_WAVE_WIDTH,
    _SPARSE_DIVISOR,
    GossipConfig,
    GossipResult,
    _finalize_rounds,
    _run_rounds,
    _sample_sparse_rows,
)
from repro.core.transfer import (
    _PASS_CAP,
    VIEW_SHARED,
    TransferConfig,
    TransferStats,
    _RebuildCMF,
)
from repro.sim.faults import PhaseFaultModel
from repro.util.validation import coerce_rng


def member_sets(knowledge) -> list[set[int]]:
    """``S^p`` of every rank as Python sets, whatever the store."""
    if isinstance(knowledge, list):
        return knowledge
    return [set(np.flatnonzero(row).tolist()) for row in knowledge.rows]


def set_coverage(knowledge: list[set[int]], underloaded: np.ndarray) -> float:
    """Mean fraction of the underloaded set (mask or ids) each rank knows."""
    under = np.asarray(underloaded)
    under = set((np.flatnonzero(under) if under.dtype == bool else under).tolist())
    if not under:
        return 1.0
    return float(np.mean([len(s & under) for s in knowledge])) / len(under)


@dataclass
class OracleInform:
    knowledge: list[set[int]]  #: S^p for every rank p
    underloaded: np.ndarray
    per_round_messages: list[int] = field(default_factory=list)
    per_round_senders: list[int] = field(default_factory=list)

    @property
    def n_messages(self) -> int:
        return sum(self.per_round_messages)

    def coverage(self) -> float:
        return set_coverage(self.knowledge, self.underloaded)


def inform_oracle(rank_loads, config=None, rng=None, average_load=None) -> OracleInform:
    """Algorithm 1, coalesced forwarding, barrier-synchronous rounds."""
    config = config or GossipConfig()
    assert config.max_known is None and config.faults is None
    assert config.intra_node_bias == 0.0
    rng = coerce_rng(rng)
    loads = np.asarray(rank_loads, dtype=np.float64)
    n_ranks = loads.size
    l_ave = float(loads.mean()) if average_load is None else float(average_load)
    underloaded = loads < l_ave
    know: list[set[int]] = [set() for _ in range(n_ranks)]
    senders = np.flatnonzero(underloaded).tolist()
    for p in senders:  # l.6-8: underloaded ranks seed themselves
        know[p].add(p)
    result = OracleInform(know, underloaded)
    for _ in range(config.rounds):
        # Barrier: every rank sends before anything is delivered, so
        # payloads and P \ S^p are both the round-start knowledge.
        snapshot = {p: frozenset(know[p]) for p in senders}
        received: set[int] = set()
        n_sent = 0
        for p in senders:
            avoid = snapshot[p] if config.avoid_known else ()
            candidates = [q for q in range(n_ranks) if q != p and q not in avoid]
            if len(candidates) > config.fanout:  # l.20-21
                candidates = rng.choice(candidates, size=config.fanout, replace=False)
            for q in map(int, candidates):
                know[q] |= snapshot[p]  # l.16-17
                received.add(q)
                n_sent += 1
        if n_sent == 0:
            break
        result.per_round_messages.append(n_sent)
        result.per_round_senders.append(len(senders))
        senders = sorted(received)
    return result


class _SetCandidates:
    """Candidate view over ``P \\ excluded[i]`` (the sampler's
    ``test`` / ``extract`` interface), answered from Python sets."""

    def __init__(self, n_ranks: int, excluded: list[frozenset[int]]) -> None:
        self.n_ranks, self.excluded = n_ranks, excluded
        self.counts = np.array([n_ranks - len(e) for e in excluded], dtype=np.int64)

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        out = [
            [d not in self.excluded[r] for d in row]
            for r, row in zip(rows.tolist(), draws.tolist())
        ]
        return np.array(out, dtype=bool).reshape(draws.shape)

    def extract(self, rows: np.ndarray, exclude=None):
        out = np.ones((rows.size, self.n_ranks), dtype=bool)
        for i, r in enumerate(rows.tolist()):
            out[i, list(self.excluded[r])] = False
        if exclude is not None:
            out[exclude] = False
        return np.nonzero(out)


class SetStore:
    """The round loop's store adapter over ``list[set[int]]``."""

    def __init__(self, n_ranks: int, seeds, config: GossipConfig, loads) -> None:
        # A "random" trim is modelled only where it never binds.
        cap = config.max_known
        assert cap is None or config.trim_policy == "lowest" or cap >= seeds.size
        self.know: list[set[int]] = [set() for _ in range(n_ranks)]
        for p in seeds.tolist():
            self.know[p].add(p)
        self.cap = config.max_known
        self.priority = lambda q: (loads[q], q)

    def snapshot(self, senders):
        snap = np.empty(senders.size, dtype=object)
        snap[:] = [frozenset(self.know[p]) for p in senders.tolist()]
        return snap, np.array([len(s) for s in snap], dtype=np.int64)

    def candidates(self, senders, snap, entries, full):
        excluded = [
            frozenset((p,)) if full else known | {p}
            for p, known in zip(senders.tolist(), snap)
        ]
        view = _SetCandidates(len(self.know), excluded)
        return view.counts, view

    def merge(self, receivers, bounds, payloads, src):
        for i, r in enumerate(receivers.tolist()):
            for j in src[bounds[i] : bounds[i + 1]].tolist():
                self.know[r] |= payloads[j]

    def trim(self, receivers):
        for r in receivers.tolist():
            if self.cap is not None and len(self.know[r]) > self.cap:
                self.know[r] = set(sorted(self.know[r], key=self.priority)[: self.cap])

    def finish(self):
        """Sets are read as they are."""


def inform_set_model(rank_loads, config, rng) -> tuple[list[set[int]], GossipResult]:
    """``run_inform_stage``'s result over :class:`SetStore`: the member
    sets and a ``GossipResult`` carrying the accounting."""
    assert config.intra_node_bias == 0.0
    loads = np.asarray(rank_loads, dtype=np.float64)
    underloaded = loads < float(loads.mean())
    result = GossipResult(None, underloaded, loads.copy(), float(loads.mean()))
    seeds = np.flatnonzero(underloaded)
    store = SetStore(loads.size, seeds, config, loads)
    model = PhaseFaultModel.create(config.faults)
    _run_rounds(store, seeds, config, coerce_rng(rng), result, model)
    _finalize_rounds(result)
    if model is not None:
        result.dropped, result.delayed = model.drops, model.delayed
        result.duplicated, result.retransmits = model.duplicates, model.retransmits
        result.expired = model.expired
    return store.know, result


def _mark_wave_duplicates(draws: np.ndarray) -> np.ndarray:
    """True where ``draws[i, j]`` repeats an earlier draw of row ``i``."""
    idx = np.argsort(draws, axis=1, kind="stable")
    sorted_draws = np.take_along_axis(draws, idx, axis=1)
    dup_sorted = np.zeros(draws.shape, dtype=bool)
    dup_sorted[:, 1:] = sorted_draws[:, 1:] == sorted_draws[:, :-1]
    dup = np.zeros(draws.shape, dtype=bool)
    np.put_along_axis(dup, idx, dup_sorted, axis=1)
    return dup


def sample_packed_rows(rng, cand, counts, want, n_ranks):
    """``want[i]`` distinct uniform candidates of each row of ``cand``,
    by rejection waves (dense rows) and the exact sampler (thin rows)."""
    empty = np.empty(0, dtype=np.int64)
    want = np.minimum(want, counts)
    # Rejection pays off while a couple of waves are expected to fill a
    # row; below ~1/_SPARSE_DIVISOR density the exact sampler wins.
    min_count = np.maximum(2 * want, counts.dtype.type(n_ranks // _SPARSE_DIVISOR))
    dense = counts >= min_count
    need_any = want > 0
    dense_rows = np.flatnonzero(dense & need_any)
    sparse_rows = np.flatnonzero(~dense & need_any)

    out_rows: list[np.ndarray] = []
    out_targets: list[np.ndarray] = []

    if dense_rows.size:
        fmax = int(want[dense_rows].max())
        slots = np.full((dense_rows.size, fmax), -1, dtype=np.int64)
        filled = np.zeros(dense_rows.size, dtype=np.int64)
        need = want[dense_rows].copy()
        active = np.arange(dense_rows.size)
        for _ in range(_MAX_REJECTION_WAVES):
            if active.size == 0:
                break
            remaining = need[active] - filled[active]
            density = counts[dense_rows[active]] / n_ranks
            width = int(np.ceil(1.5 * (remaining / density).max()))
            width = min(max(width, 8), _MAX_WAVE_WIDTH)
            draws = rng.integers(0, n_ranks, size=(active.size, width))
            r = dense_rows[active]
            ok = cand.test(r, draws)
            ok &= ~(draws[:, :, None] == slots[active][:, None, :]).any(axis=2)
            ok &= ~_mark_wave_duplicates(draws)
            # Accept each row's first `remaining` valid draws, in draw
            # order — exactly sequential rejection sampling.
            pos = np.where(ok, np.arange(width), width)
            pos.sort(axis=1)
            take_max = int(remaining.max())
            for j in range(take_max):
                pj = pos[:, j]
                acc = (pj < width) & (j < remaining)
                if not acc.any():
                    continue
                rows_j = active[acc]
                slots[rows_j, filled[rows_j]] = draws[acc, pj[acc]]
                filled[rows_j] += 1
            active = active[filled[active] < need[active]]
        if filled.any():
            out_rows.append(np.repeat(dense_rows, filled))
            out_targets.append(slots[slots >= 0])
        if active.size:
            # Finish exactly, without the already-picked ranks.
            leftover = dense_rows[active]
            picked_rows = np.repeat(np.arange(active.size), filled[active])
            picked = slots[active][slots[active] >= 0]
            residual = cand.extract(leftover, (picked_rows, picked))
            extra_rows, extra_targets = _sample_sparse_rows(
                rng, residual, need[active] - filled[active], n_ranks
            )
            out_rows.append(leftover[extra_rows])
            out_targets.append(extra_targets)

    if sparse_rows.size:
        s_rows, s_targets = _sample_sparse_rows(
            rng, cand.extract(sparse_rows), want[sparse_rows], n_ranks
        )
        out_rows.append(sparse_rows[s_rows])
        out_targets.append(s_targets)

    if not out_rows:
        return empty, empty
    return np.concatenate(out_rows), np.concatenate(out_targets)


def two_group_order(tasks: np.ndarray, loads: np.ndarray, cut: float) -> np.ndarray:
    """Tasks with load <= cut by descending load, then the rest ascending."""
    light = loads <= cut
    light_order = np.argsort(-loads[light], kind="stable")
    heavy_order = np.argsort(loads[~light], kind="stable")
    return np.concatenate([tasks[light][light_order], tasks[~light][heavy_order]])


def order_tasks(name: str, tasks, task_loads, l_ave: float, l_p: float) -> np.ndarray:
    """ORDERTASKS for one sender, each ordering as Alg. 4-6 read."""
    tasks = np.asarray(tasks, dtype=np.int64)
    if name == "arbitrary" or tasks.size == 0:
        return tasks
    loads = task_loads[tasks]
    descending = tasks[np.argsort(-loads, kind="stable")]
    if name == "load_intensive":
        return descending
    l_ex = l_p - l_ave
    if name == "fewest_migrations":
        over = loads > l_ex
        if not over.any():
            return descending
        return two_group_order(tasks, loads, float(loads[over].min()))
    ascending = np.argsort(loads, kind="stable")
    if l_ex <= 0.0:
        return tasks[ascending]
    sorted_loads = loads[ascending]
    crossing = np.searchsorted(np.cumsum(sorted_loads), l_ex, side="left")
    return two_group_order(tasks, loads, float(sorted_loads[min(crossing, tasks.size - 1)]))


def transfer_stage_lists(
    assignment, task_loads, gossip, config=None, rng=None, registry=None,
    rebuild_cmf=False,
) -> TransferStats:
    """Algorithm 2 on every overloaded rank, list-of-lists rank state."""
    config = config or TransferConfig()
    rng = coerce_rng(rng)
    n_ranks = gossip.knowledge.n_ranks
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks).astype(
        np.float64
    )
    l_ave = gossip.average_load
    threshold_load = config.threshold * l_ave
    stats = TransferStats()
    moves: list[tuple[int, int, int]] = []  # (task, src, dst), in accept order
    overloaded = np.flatnonzero(loads > threshold_load)
    stats.overloaded_ranks = overloaded.size
    rank_tasks: list[list[int]] = [[] for _ in range(n_ranks)]
    for task, rank in enumerate(np.asarray(assignment).tolist()):
        rank_tasks[rank].append(task)

    queue: deque[int] = deque(int(p) for p in overloaded)
    queued = set(queue)
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
        recipients = _transfer_from_rank(
            p, rank_tasks, assignment, task_loads, loads, l_ave, gossip, config, rng,
            stats, moves, rebuild_cmf,
        )
        if config.cascade:
            for r in recipients:
                if loads[r] > threshold_load and r not in queued:
                    queue.append(r)
                    queued.add(r)
    stats.moves = np.array(moves, dtype=np.int64).reshape(-1, 3)
    if registry is not None:
        stats.record(registry)
    return stats


def _transfer_from_rank(
    p, rank_tasks, assignment, task_loads, loads, l_ave, gossip, config, rng, stats,
    moves, rebuild_cmf,
) -> set[int]:
    """Algorithm 2 TRANSFER for one overloaded rank ``p``; returns the
    ranks that received tasks (for cascading)."""
    candidates = gossip.knowledge.known(p)
    candidates = candidates[candidates != p]
    if candidates.size == 0:
        stats.stalled_ranks += 1
        return set()

    shared = config.view == VIEW_SHARED
    if shared:  # live view: per-use loads re-read from the proposed loads
        known_loads = loads[candidates]
    else:  # local view: inform-time snapshot + this sender's own transfers
        known_loads = gossip.load_snapshot[candidates].copy()
    if config.recompute_cmf and not rebuild_cmf:
        sampler = IncrementalCMF(known_loads, l_ave, config.cmf, copy=False)
    else:
        sampler = _RebuildCMF(known_loads, l_ave, config.cmf)
    known_loads = sampler.loads  # single source of truth for l_x reads

    criterion = CRITERIA[config.criterion]
    threshold_load = config.threshold * l_ave
    tasks = rank_tasks[p]
    touched: set[int] = set()
    max_passes = config.max_passes if config.max_passes is not None else _PASS_CAP
    for _ in range(max_passes):
        if loads[p] <= threshold_load or not tasks:
            break
        order = order_tasks(
            config.ordering, np.asarray(tasks, dtype=np.int64), task_loads, l_ave, float(loads[p])
        )
        accepted: list[int] = []
        for task, o_load in zip(order, task_loads[order]):
            if loads[p] <= threshold_load or sampler.exhausted:
                break
            o_load = float(o_load)
            idx = sampler.sample(rng)
            l_x = float(loads[candidates[idx]]) if shared else float(known_loads[idx])
            if not criterion(l_x, o_load, l_ave, float(loads[p])):
                stats.rejections += 1
                continue
            recipient = int(candidates[idx])
            if config.nacks and loads[recipient] + o_load > threshold_load:
                # Menon-style veto against the recipient's *true* load;
                # the sender corrects its knowledge and keeps the task.
                stats.nacked += 1
                if not shared:
                    if config.recompute_cmf:
                        sampler.update(idx, float(loads[recipient]))
                    else:
                        sampler.poke(idx, float(loads[recipient]))
                continue
            loads[p] -= o_load
            loads[recipient] += o_load
            assignment[task] = recipient
            rank_tasks[recipient].append(int(task))
            accepted.append(int(task))
            touched.add(recipient)
            stats.transfers += 1
            moves.append((int(task), p, recipient))
            if config.recompute_cmf:
                sampler.update(idx, float(loads[recipient]) if shared else l_x + o_load)
            elif not shared:
                sampler.poke(idx, l_x + o_load)
        if not accepted:
            break
        remaining = set(accepted)
        rank_tasks[p] = tasks = [t for t in tasks if t not in remaining]
        if sampler.exhausted:
            break
    stats.cmf_builds += sampler.builds
    stats.cmf_updates += sampler.updates
    if sampler.exhausted and loads[p] > threshold_load:
        stats.stalled_ranks += 1
    return touched
