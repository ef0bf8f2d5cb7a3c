"""Algorithm 1 — the inform/gossip stage, phase level.

Underloaded ranks seed knowledge of their own load and gossip it for
``k`` rounds with fanout ``f``. Receivers merge the incoming knowledge
into ``S^p`` and forward it to ranks sampled from ``P \\ S^p``.

Forwarding is *coalesced*: a rank that received one or more messages in
round ``r`` forwards its merged knowledge once (``f`` messages) in
round ``r+1``. This is what practical implementations (Charm++
GrapevineLB, DARMA/vt) do and bounds traffic at ``O(P f k)`` messages.
The literal pseudocode — every received message with ``r < k`` triggers
``f`` forwards, up to ``f^k`` messages — is not implemented (see
DESIGN.md § 5).

This module is the listing and nothing else. :func:`_run_rounds` is
its ``for round in 1..k``, barrier-synchronous (payloads and candidate
sets are a round-start snapshot), and owns every *decision* of
Algorithm 1: who sends, ``min(f, |candidates|)`` targets each, the one
call into the batch sampler (rejection sampling in rank-id space while
candidate sets are dense, a segment-sorted exact sampler once they thin
out), the ``intra_node_bias`` local/global split, message and byte
accounting, the fault fates with their late-delivery table, the
group-by-receiver and early exit.

How ``S^p`` is *stored* is :mod:`repro.core.knowledge`'s business: the
loop reaches it only through a seeded five-method store
(``snapshot`` / ``candidates`` / ``merge`` / ``trim`` / ``finish``)
built by :func:`~repro.core.knowledge.inform_store` — bit rows or
sorted id arrays, whichever ``GossipConfig.resolve_knowledge`` names,
each finishing into its own container — and reads candidates only as
rank ids through the store's view (``test`` / ``extract``). The
sampler's control flow depends only on candidate *counts*, so every
store consumes the same RNG stream and produces bit-identical
knowledge, with or without fault injection, which acts on payload
handles in the loop. Only ``intra_node_bias`` needs bit rows.

``tests/core/oracles.py`` holds the set-based transcription of
Algorithm 1 that the equivalence suites compare the loop against.

:class:`RankInform` is the same listing seen from one rank: merge what
arrives, forward once per distinct received round to targets drawn
with the rank's own generator. It is the one rule behind both
event-level drivers — the asynchronous stage of
:func:`repro.runtime.lbmanager.event_inform_stage` (messages with
latencies, no round barrier, Safra termination) and the round-barrier
:class:`repro.net.episode.NodeCore` of ``repro.net`` and its simulator
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar

import numpy as np

from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge, inform_store
from repro.core.knowledge import add_bits, ids_to_row, merge_row, row_count, unknown_targets
from repro.core.soa import rank_order
from repro.obs import StatsRegistry
from repro.sim.faults import EVENT_ONLY_FAULTS, FaultConfig, PhaseFaultModel
from repro.util.validation import check_in, check_positive_int, coerce_rng

__all__ = [
    "GossipConfig",
    "GossipResult",
    "RankInform",
    "run_inform_stage",
    "resolve_auto_threshold",
]

#: Bytes for one (rank id, load) knowledge entry on the wire.
ENTRY_BYTES = 16
#: Fixed per-message envelope bytes (header, round counter).
HEADER_BYTES = 32
#: The layers a timed round is split into (``per_round_seconds`` keys).
_ROUND_LAYERS = ("sample", "merge", "trim")


# Shim for benchmarks/e2e/wl_phase.py:65; the follow-up [benchmark] PR removes it.
def resolve_auto_threshold(kernel: str) -> int:
    """The retired ``knowledge="auto"`` rank-count crossover, 8,192;
    :meth:`GossipConfig.resolve_knowledge` no longer reads it."""
    return 8_192


@dataclass(frozen=True)
class GossipConfig:
    """Inform-stage parameters (symbols of the paper's notation table)."""

    fanout: int = 6  #: f — gossip fanout factor
    rounds: int = 10  #: k — number of gossip rounds
    avoid_known: bool = True  #: sample forward targets from P \ S^p (l.20)
    #: Cap on |S^p| — the limited-information variant of the paper's
    #: § IV-B footnote (O(P) knowledge lists are a scalability pitfall).
    #: None = unlimited.
    max_known: int | None = None
    #: What to keep when the cap is hit: "random" (a uniform subset —
    #: keeps different ranks' knowledge decorrelated, which matters: if
    #: every sender kept the same globally-lowest ranks they would all
    #: dump onto the same recipients) or "lowest" (most headroom, but
    #: correlated across senders).
    trim_policy: str = "random"
    #: Topology awareness (§ I's NUMA/hierarchical networks): ranks are
    #: blocked onto nodes of this size; each gossip message targets a
    #: same-node candidate with probability ``intra_node_bias``. 1 rank
    #: per node = flat topology (the paper's algorithm); a bias there
    #: has no node to prefer and is rejected.
    ranks_per_node: int = 1
    intra_node_bias: float = 0.0
    #: Fault injection (:mod:`repro.sim.faults`): per-message loss,
    #: round-unit delay spikes, duplication and optional retransmission
    #: applied to every gossip message, on either knowledge store (the
    #: fates act on payload handles in the shared round loop). None —
    #: or a config with no active fault source — leaves the loop on its
    #: fault-free path, bit for bit (zero-fault invisibility). The
    #: fault fates draw from their own seeded generator, never from the
    #: loop's sampling RNG. The event-level knobs (``EVENT_ONLY_FAULTS``:
    #: churn, reordering, control loss, detector and stage timeouts)
    #: have no round-loop meaning and raise ``ValueError``.
    faults: FaultConfig | None = None
    #: Knowledge store: "packed" (bit rows, O(P^2) bits), "sparse"
    #: (per-rank sorted id shards, O(sum |S^p|) — bit-identical to
    #: packed), or "auto" (see :meth:`resolve_knowledge`).
    knowledge: str = "auto"
    # Shim for benchmarks/e2e/wl_phase.py:65; the follow-up [benchmark] PR removes it.
    kernel: ClassVar[str] = "auto"

    def __post_init__(self) -> None:
        check_positive_int("fanout", self.fanout)
        check_positive_int("rounds", self.rounds)
        if self.max_known is not None:
            check_positive_int("max_known", self.max_known)
        check_in("trim_policy", self.trim_policy, ("random", "lowest"))
        check_positive_int("ranks_per_node", self.ranks_per_node)
        if not 0.0 <= self.intra_node_bias <= 1.0:
            raise ValueError("intra_node_bias must be in [0, 1]")
        if self.intra_node_bias > 0.0 and self.ranks_per_node == 1:
            raise ValueError("intra_node_bias needs ranks_per_node > 1")
        check_in("knowledge", self.knowledge, ("auto", "packed", "sparse"))
        if self.knowledge == "sparse" and self.intra_node_bias > 0.0:
            raise ValueError(
                "knowledge='sparse' does not support intra_node_bias: the "
                "same-node candidate pass materialises a P-wide row per "
                "sender, the O(P^2) cost the sparse store exists to avoid"
            )
        if self.faults is not None:
            self.faults.refuse("phase-level gossip", EVENT_ONLY_FAULTS)

    def resolve_knowledge(self, n_ranks: int) -> str:
        """The knowledge store — and so the container — used at a given
        rank count; the one place a representation is chosen.

        Auto picks sorted id shards exactly when a ``max_known`` cap
        bounds them, no topology bias needs bit rows, and a bit row
        (P/8 bytes) outweighs a full shard (4 bytes an id) charged
        ``375 + 19 * sqrt(max_known)`` extra ids — the sorted-array
        merge's per-receiver cost, which grows with the cap — whatever
        the trim policy; bit rows otherwise. The charge is fitted to the
        crossovers raced at caps 16, 64 and 512 under the "lowest" trim
        (≈ 15k, 20.5k and 42.5k ranks) in docs/performance.md
        (*Backend selection*).
        """
        if self.knowledge != "auto":
            return self.knowledge
        cap = self.max_known
        if cap is None or self.intra_node_bias != 0.0:
            return "packed"
        return "sparse" if n_ranks > 32 * (cap + 375 + 19 * cap**0.5) else "packed"


@dataclass
class GossipResult:
    """Outcome of one inform stage."""

    knowledge: PackedKnowledgeBitmap | SparseKnowledge
    underloaded: np.ndarray  #: boolean mask, True where l^p < l_ave
    load_snapshot: np.ndarray  #: rank loads at inform time
    average_load: float
    n_messages: int = 0
    bytes_sent: int = 0
    inter_node_messages: int = 0  #: messages crossing node boundaries
    rounds_run: int = 0
    per_round_messages: list[int] = field(default_factory=list)
    #: Ranks that sent in each round (round 1 = the underloaded seeds);
    #: the f*|senders| message model checks against this.
    per_round_senders: list[int] = field(default_factory=list)
    #: Fault-injection accounting (all zero when no fault model ran):
    #: messages lost, delivered late, duplicated, the retransmission
    #: count behind recovered losses, and deliveries that matured after
    #: the final round barrier and were discarded.
    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    retransmits: int = 0
    expired: int = 0
    #: Backend the stage actually ran ("packed"/"sparse") — so callers
    #: (bench meta, CLI reports) never re-derive the selection and
    #: drift from it.
    knowledge_backend: str = ""
    #: Wall seconds per layer and round — ``"sample"`` (everything up
    #: to the group-by-receiver), ``"merge"``, ``"trim"`` — and of the
    #: store's ``finish()``; taken only under a registry.
    per_round_seconds: dict[str, list[float]] = field(default_factory=dict)
    finish_seconds: float = 0.0
    #: Deliveries to a receiver whose set was already complete, which
    #: the store's merge skips; counted only under a registry.
    merges_skipped: int = 0

    def coverage(self) -> float:
        """Mean fraction of underloaded ranks known per rank."""
        return self.knowledge.coverage(self.underloaded)


def run_inform_stage(
    rank_loads: np.ndarray,
    config: GossipConfig | None = None,
    rng: np.random.Generator | int | None = None,
    average_load: float | None = None,
    registry: StatsRegistry | None = None,
) -> GossipResult:
    """Execute Algorithm 1 over all ranks and return the gathered knowledge.

    Parameters
    ----------
    rank_loads:
        Current per-rank loads :math:`\\ell^p` (length ``P``).
    config:
        Gossip parameters; defaults to the paper's ``f=6, k=10``.
    rng:
        Seed or generator driving the random target selection.
    average_load:
        :math:`\\ell_{ave}`; computed from ``rank_loads`` when omitted
        (models the constant-size statistics all-reduce).
    registry:
        Optional :class:`~repro.obs.StatsRegistry`; when attached, the
        stage records its message/byte counters, per-stage series and
        knowledge-set sizes. Instrumentation never consumes RNG, so
        results are identical with or without it.
    """
    config = config or GossipConfig()
    rng = coerce_rng(rng)
    loads = np.ascontiguousarray(rank_loads, dtype=np.float64)
    if loads.ndim != 1:
        raise ValueError(f"rank_loads must be one load per rank (1-D), got shape {loads.shape}")
    n_ranks = loads.size
    if n_ranks == 0:
        raise ValueError("rank_loads must be non-empty")
    if not np.isfinite(loads).all():
        raise ValueError("rank loads must be finite (no NaN/inf)")
    l_ave = float(loads.mean()) if average_load is None else float(average_load)

    underloaded = loads < l_ave
    seeds = np.flatnonzero(underloaded)
    backend = config.resolve_knowledge(n_ranks)
    store = inform_store(
        backend, n_ranks, seeds, config.max_known, config.trim_policy, loads, rng,
        config.ranks_per_node,
    )
    result = GossipResult(
        knowledge=store.knowledge,
        underloaded=underloaded,
        load_snapshot=loads.copy(),
        average_load=l_ave,
        knowledge_backend=backend,
    )
    instrumented = registry is not None
    if seeds.size == 0:
        if instrumented:
            _record_inform_stage(registry, result)
        return result

    #: None when config.faults has no active fault source — the loop
    #: then never branches on it and runs its fault-free path.
    model = PhaseFaultModel.create(config.faults)
    _run_rounds(store, seeds, config, rng, result, model, timed=instrumented)
    _finalize_rounds(result)
    if model is not None:
        result.dropped = model.drops
        result.delayed = model.delayed
        result.duplicated = model.duplicates
        result.retransmits = model.retransmits
        result.expired = model.expired
        if instrumented:
            registry.inc("faults.gossip.dropped", model.drops)
            registry.inc("faults.gossip.delayed", model.delayed)
            registry.inc("faults.gossip.duplicated", model.duplicates)
            registry.inc("faults.gossip.retransmits", model.retransmits)
            registry.inc("faults.gossip.expired", model.expired)
    if instrumented:
        _record_inform_stage(registry, result)
    return result


def _finalize_rounds(result: GossipResult) -> None:
    """A round in which nobody sent anything did not happen: trailing
    zero-message entries (left behind whenever the last senders had
    empty candidate sets) are dropped and ``rounds_run`` is the number
    of rounds that actually carried messages."""
    while result.per_round_messages and result.per_round_messages[-1] == 0:
        result.per_round_messages.pop()
        if result.per_round_senders:
            result.per_round_senders.pop()
        for layer in result.per_round_seconds.values():
            layer.pop()
    result.rounds_run = len(result.per_round_messages)


def _record_inform_stage(registry: StatsRegistry, result: GossipResult) -> None:
    """Account one finished inform stage into a registry."""
    registry.inc("gossip.stages")
    registry.inc("gossip.messages", result.n_messages)
    registry.inc("gossip.bytes", result.bytes_sent)
    registry.inc("gossip.inter_node_messages", result.inter_node_messages)
    known_counts = result.knowledge.counts()
    registry.observe(
        "gossip.stage",
        messages=result.n_messages,
        bytes=result.bytes_sent,
        rounds_run=result.rounds_run,
        underloaded=int(result.underloaded.sum()),
        coverage=float(result.coverage()),
        mean_known=float(known_counts.mean()),
        max_known=int(known_counts.max()),
        **{
            f"{layer}_s": sum(result.per_round_seconds.get(layer, ()))
            for layer in _ROUND_LAYERS
        },
        finish_s=result.finish_seconds,
        merges_skipped=result.merges_skipped,
    )


# ---------------------------------------------------------------------------
# The batch sampler (shared by both stores).
# ---------------------------------------------------------------------------

#: Rejection-sampling wave cap before the exact sampler takes over.
_MAX_REJECTION_WAVES = 8
#: Widest draw matrix one rejection wave may allocate per row; beyond
#: this the wave's dedup sort costs more than the exact sampler.
_MAX_WAVE_WIDTH = 64
#: Candidate density (as 1/_SPARSE_DIVISOR of P) below which the exact
#: sampler beats rejection waves.
_SPARSE_DIVISOR = 64


def _sample_sparse_rows(
    rng: np.random.Generator,
    members: tuple[np.ndarray, np.ndarray],
    want: np.ndarray,
    n_ranks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row sampling for thinned-out candidate sets.

    ``members`` holds the extracted candidates of the rows aligned with
    ``want`` as ``(local row index, rank id)`` pairs, row-major with
    ids ascending in-row (a view's ``extract``). Each candidate is
    keyed with an independent uniform, and each row takes its ``want``
    smallest keys: a uniform without-replacement sample per row, via
    one argpartition over a padded id matrix. Returns flat ``(local row
    index, rank id)``.
    """
    empty = np.empty(0, dtype=np.int64)
    n_rows = want.size
    rid, cid = members
    if rid.size == 0:
        return empty, empty
    seg_counts = np.bincount(rid, minlength=n_rows)
    take = np.minimum(want, seg_counts)
    take_max = int(take.max())
    if take_max == 0:
        return empty, empty
    # Pad the ragged candidate lists into a (rows, m_max) matrix.
    m_max = int(seg_counts.max())
    seg_starts = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))
    within = np.arange(rid.size) - seg_starts[rid]
    ids = np.full((n_rows, m_max), -1, dtype=np.int64)
    ids[rid, within] = cid
    keys = rng.random((n_rows, m_max))
    keys[ids < 0] = np.inf  # padding never wins
    kth = min(take_max - 1, m_max - 1)
    part = np.argpartition(keys, kth, axis=1)[:, :take_max]
    # Order the selected block by key so a row's first take[i] columns
    # are its take[i] smallest finite keys (padding keys are inf).
    block = np.take_along_axis(keys, part, axis=1)
    part = np.take_along_axis(part, np.argsort(block, axis=1), axis=1)
    accept = np.arange(take_max)[None, :] < take[:, None]
    targets = ids[np.arange(n_rows)[:, None], part][accept]
    row_idx = np.broadcast_to(np.arange(n_rows)[:, None], accept.shape)[accept]
    return row_idx, targets


def _sample_packed_rows(
    rng: np.random.Generator,
    cand,
    counts: np.ndarray,
    want: np.ndarray,
    n_ranks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``want[i]`` distinct candidates uniformly from each row
    of ``cand``; returns flat ``(row index, rank id)``.

    ``cand`` is a store's candidate view (``test`` / ``extract``, see
    :mod:`repro.core.knowledge`); because the control flow — wave
    widths, draw shapes, the dense/sparse row split — depends only on
    ``counts``/``want``, both stores consume the identical RNG stream
    and pick identical targets.

    Hybrid fast path: rows with enough candidates draw uniform rank
    ids in vectorized waves and reject misses/duplicates — expected
    ``O(f / density)`` draws per row and *no* candidate
    materialization, which is what keeps the round cost flat as ``P``
    grows. Rows whose candidate sets have thinned out (and the rows a
    capped wave budget could not fill) use the exact sampler instead.

    A wave dedups with one in-row sort: each row's picks so far and
    its draws, keyed ``value * 2**shift + column`` (``2**shift >=``
    the column count), sort so that equal values sit together in
    column order, and every entry equal to its sorted predecessor
    repeats an earlier draw or a pick. A row then accepts its first
    ``remaining`` surviving draws in draw order (``cumsum`` rank),
    which is exactly sequential rejection sampling.
    """
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
            ok = cand.test(dense_rows[active], draws)
            # Key = value << shift | column. Picks (-1 padded; no row
            # has more than `picked`) lead the columns, so a draw equal
            # to a pick sorts after it.
            picked = int(filled[active].max())
            ncol = picked + width
            shift = (ncol - 1).bit_length()
            key = np.concatenate((slots[active, :picked], draws), axis=1)
            key <<= shift
            key |= np.arange(ncol)
            key.sort(axis=1)
            key = key.ravel()
            value = key >> shift
            dup = np.flatnonzero(value[1:] == value[:-1]) + 1
            dup = dup[dup % ncol != 0]  # a row's first entry repeats nothing
            column = (key[dup] & ((1 << shift) - 1)) - picked
            drawn = column >= 0
            ok[dup[drawn] // ncol, column[drawn]] = False
            rank = np.cumsum(ok, axis=1)
            acc = ok & (rank <= remaining[:, None])
            took = np.minimum(rank[:, -1], remaining)
            rows = np.repeat(active, took)
            slots[rows, filled[rows] + rank[acc] - 1] = draws[acc]
            filled[active] += took
            active = active[filled[active] < need[active]]
        if filled.any():
            out_rows.append(np.repeat(dense_rows, filled))
            out_targets.append(slots[slots >= 0])
        if active.size:
            # The wave budget ran out (thin rows near the density
            # threshold): finish exactly, without the picks.
            leftover = dense_rows[active]
            picked_rows = np.repeat(np.arange(active.size), filled[active])
            picked = slots[active][slots[active] >= 0]
            extra_rows, extra_targets = _sample_sparse_rows(
                rng,
                cand.extract(leftover, (picked_rows, picked)),
                need[active] - filled[active],
                n_ranks,
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


# ---------------------------------------------------------------------------
# The round loop (Algorithm 1's ``for round in 1..k``).
# ---------------------------------------------------------------------------


def _run_rounds(
    store,
    seeds: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
    result: GossipResult,
    model: PhaseFaultModel | None,
    timed: bool = False,
) -> None:
    """Algorithm 1's round loop, over either knowledge store.

    Per round: snapshot every sender's payload, sample the whole
    round's fan-out in one pass, account all messages with array
    reductions, split them by fault fate, group the deliveries by
    receiver and hand the groups to the store to merge and trim.

    ``snap`` is the round's double buffer and its payload *handles*: a
    gathered row matrix (bit rows) or an object array of shard
    references (sorted arrays). Both support fancy indexing and
    ``np.concatenate``, which is all the fate split needs to carry
    payloads across rounds.

    ``timed`` fills ``result.per_round_seconds`` / ``finish_seconds``
    from a few clock reads per round, and ``merges_skipped``; it draws
    nothing and changes no result.
    """
    n_ranks = result.load_snapshot.size
    rpn = config.ranks_per_node
    biased = config.intra_node_bias > 0.0  # implies rpn > 1, bit rows
    seconds = result.per_round_seconds
    if timed:
        seconds.update((layer, []) for layer in _ROUND_LAYERS)
    mark = perf_counter() if timed else 0.0

    def lap(layer: str) -> None:
        """Charge the time since the last lap to this round's ``layer``."""
        nonlocal mark
        if timed:
            now = perf_counter()
            seconds[layer][-1] += now - mark
            mark = now

    empty = np.empty(0, dtype=np.int64)
    senders = seeds.astype(np.int64)
    initiating = True
    #: round -> [(targets, payload handles)] late deliveries.
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for _round in range(1, config.rounds + 1):
        for layer in seconds.values():  # no layers unless timed
            layer.append(0.0)
        result.per_round_messages.append(0)
        result.per_round_senders.append(int(senders.size))
        # Payloads come from `snap`, merges land in the store, so
        # same-round merges never leak into payloads.
        snap, entries = store.snapshot(senders)
        # Alg. 1 l.10: the seeding round samples from all of P (minus
        # self); without avoid_known every round does.
        counts, cand = store.candidates(
            senders, snap, entries, initiating or not config.avoid_known
        )
        want = np.minimum(config.fanout, counts)
        if biased:
            local_counts, local = store.same_node(senders, cand)
            n_local = np.minimum(
                rng.binomial(want, config.intra_node_bias), local_counts
            )
            row_l, tgt_l = _sample_packed_rows(
                rng, local, local_counts, n_local, n_ranks
            )
            # Remove the local picks from the global pool, then fill the
            # remaining slots from it.
            cand.clear(row_l, tgt_l)
            picked = np.bincount(row_l, minlength=senders.size)
            row_g, tgt_g = _sample_packed_rows(
                rng, cand, counts - picked, want - picked, n_ranks
            )
            row_idx = np.concatenate((row_l, row_g))
            targets = np.concatenate((tgt_l, tgt_g))
        else:
            row_idx, targets = _sample_packed_rows(rng, cand, counts, want, n_ranks)
        cand = local = None  # sampled: the snapshot is all a round holds

        if targets.size:
            # Accounting for the whole round in one pass.
            n = int(targets.size)
            result.n_messages += n
            result.bytes_sent += n * HEADER_BYTES + ENTRY_BYTES * int(
                entries[row_idx].sum()
            )
            result.per_round_messages[-1] = n
            result.inter_node_messages += int(
                np.count_nonzero(targets // rpn != senders[row_idx] // rpn)
            )
        payloads, src = snap, row_idx
        if model is not None:
            # Fault fates split the round's messages into immediate
            # deliveries, future-round deliveries (delay/retransmit)
            # and losses; deliveries maturing this round join the
            # payloads that matured from earlier rounds (popped after
            # the snapshot, so they cannot ride this round's sends) in
            # one combined merge pass.
            parts = pending.pop(_round, [])
            if targets.size:
                offsets, copies = model.fates(int(targets.size))
                arrive = _round + offsets
                ok = copies > 0
                dup = copies == 2
                all_arrive = np.concatenate((arrive[ok], arrive[dup] + 1))
                all_t = np.concatenate((targets[ok], targets[dup]))
                all_src = np.concatenate((row_idx[ok], row_idx[dup]))
                now_mask = all_arrive == _round
                if now_mask.any():
                    parts.append((all_t[now_mask], snap[all_src[now_mask]]))
                future = (all_arrive > _round) & (all_arrive <= config.rounds)
                model.expired += int(np.count_nonzero(all_arrive > config.rounds))
                for r in np.unique(all_arrive[future]):
                    sel = future & (all_arrive == r)
                    pending.setdefault(int(r), []).append(
                        (all_t[sel], snap[all_src[sel]])
                    )
            targets = empty
            if parts:
                targets = np.concatenate([t for t, _ in parts])
                payloads = np.concatenate([p for _, p in parts])
            src = np.arange(targets.size)
        receivers = empty
        if targets.size:
            # Group the deliveries by receiver (stable, so a receiver's
            # payloads keep their send order); the store merges group
            # `i` = payloads[src[bounds[i]:bounds[i + 1]]] into
            # receivers[i], then caps the receivers once per round.
            order = rank_order(targets, n_ranks)
            targets = targets[order]
            cuts = np.flatnonzero(targets[1:] != targets[:-1]) + 1
            bounds = np.concatenate(([0], cuts, [targets.size]))
            receivers = targets[bounds[:-1]]
            if timed:
                result.merges_skipped += int(np.diff(bounds)[store.complete[receivers]].sum())
            lap("sample")
            store.merge(receivers, bounds, payloads, src[order])
            lap("merge")
            snap = payloads = None  # merged: trims run without the snapshot
            store.trim(receivers)
            lap("trim")
        lap("sample")
        initiating = False
        senders = receivers  # l.18: whoever received forwards next round
        if senders.size == 0 and not pending:
            break
    store.finish()
    if timed:
        result.finish_seconds = perf_counter() - mark


class RankInform:
    """Algorithm 1 for one rank, one payload at a time: the rule both
    event-level drivers run (``event_inform_stage`` as messages land,
    ``NodeCore`` once per round barrier with the round's union).

    ``row`` is ``S^p`` as a packed row — a view into a shared
    :class:`PackedKnowledgeBitmap` if the driver wants no copy at the
    end — and ``rng`` the rank's own generator. A forward is
    ``(targets, round, row, size)``: up to ``fanout`` distinct targets
    from ``P \\ S^p \\ {p} \\ exclude`` (all of them if no more, else one
    ``rng.choice`` without replacement), the round receivers see, a
    copy of the row and the modelled size of each message. ``exclude``
    is a set of rank ids (suspected peers) or None.
    """

    __slots__ = ("rank", "n_ranks", "fanout", "rounds", "rng", "row", "_forwarded")

    def __init__(
        self, rank: int, n_ranks: int, fanout: int, rounds: int,
        rng: np.random.Generator, row: np.ndarray | None = None,
    ) -> None:
        self.rank = rank
        self.n_ranks = n_ranks
        self.fanout = fanout
        self.rounds = rounds
        self.rng = rng
        self.row = ids_to_row(np.empty(0, dtype=np.int64), n_ranks) if row is None else row
        #: Received rounds already forwarded: the coalescing guard.
        self._forwarded: set[int] = set()

    def seed(self, exclude: set[int] | None = None) -> tuple | None:
        """The rank knows itself (Alg. 1 l.7) and sends round 1."""
        add_bits(self.row, self.rank)
        return self._forward(1, exclude)

    def on_inform(
        self, round_index: int, row: np.ndarray, exclude: set[int] | None = None
    ) -> tuple | None:
        """Merge one payload row; forward once per distinct received
        round below ``rounds`` (coalesced forwarding, DESIGN.md § 5)."""
        merge_row(self.row, row)
        if round_index >= self.rounds or round_index in self._forwarded:
            return None
        self._forwarded.add(round_index)
        return self._forward(round_index + 1, exclude)

    def _forward(self, next_round: int, exclude: set[int] | None) -> tuple | None:
        candidates = unknown_targets(self.row, self.rank, self.n_ranks)
        if exclude:
            drop = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
            candidates = candidates[~np.isin(candidates, drop)]
        if candidates.size == 0:
            return None
        if candidates.size > self.fanout:
            candidates = self.rng.choice(candidates, size=self.fanout, replace=False)
        size = HEADER_BYTES + ENTRY_BYTES * row_count(self.row)
        return candidates, next_round, self.row.copy(), size
