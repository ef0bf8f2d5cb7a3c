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

One round loop, two stores. :func:`_run_rounds` is the listing's
``for round in 1..k``, barrier-synchronous (payloads and candidate sets
are a round-start snapshot), and owns everything that does not depend
on how ``S^p`` is stored: sender bookkeeping, the one call into the
batch sampler (rejection sampling in rank-id space while candidate sets
are dense, a segment-sorted exact sampler once they thin out), message
and byte accounting, the fault fates with their late-delivery table,
the group-by-receiver and early exit. It reaches the knowledge through
a five-method adapter (``snapshot`` / ``candidates`` / ``merge`` /
``trim`` / ``finish``). The adapter is the rounds' *working
representation*; ``finish()`` writes the *container* the caller asked
for (``resolve_knowledge``), so the two are chosen separately:

:class:`_PackedStore` — bit rows, optionally in priority order
    Payloads are gathered bit rows, merges layered scatter-ORs. Under
    a ``max_known`` cap with the "lowest" trim, bit ``j`` stands for
    the rank at position ``j`` of the (load, id) order, so the trim is
    a prefix cut and converged receivers skip.

:class:`_SparseStore` — sorted id arrays
    Payloads are shard references (shards are immutable by
    replacement), merges skip on identity/completeness and truncate in
    priority space.

A packed container always runs on bit rows; a sparse one does when the
stage is capped-"lowest" and a bit row is no larger than a full shard
(``n_ranks <= 32 * max_known``), and on sorted arrays otherwise. The
sampler's control flow depends only on candidate *counts*, so both
stores consume the same RNG stream and produce bit-identical knowledge
— with or without fault injection, which acts on payload handles in
the shared loop. Only ``intra_node_bias`` needs a packed container.

``tests/core/oracles.py`` holds the set-based transcription of
Algorithm 1 that the equivalence suites compare the loop against.
The event-level asynchronous version (messages with latencies, no round
barrier, termination detection) lives in
:mod:`repro.runtime.distributed_gossip`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar

import numpy as np

from repro.core.knowledge import (
    PackedKnowledgeBitmap,
    SparseKnowledge,
    keep_first_bits,
)
from repro.core.soa import rank_order
from repro.obs import StatsRegistry
from repro.sim.faults import FaultConfig, PhaseFaultModel
from repro.util.validation import check_in, check_positive_int, coerce_rng

__all__ = [
    "GossipConfig",
    "GossipResult",
    "run_inform_stage",
    "resolve_auto_threshold",
    "SPARSE_AUTO_MIN_RANKS_FAST",
]

#: Bytes for one (rank id, load) knowledge entry on the wire.
ENTRY_BYTES = 16
#: Fixed per-message envelope bytes (header, round counter).
HEADER_BYTES = 32
#: The layers a timed round is split into (``per_round_seconds`` keys).
_ROUND_LAYERS = ("sample", "merge", "trim")

#: Rank count at which ``knowledge="auto"`` switches from the packed
#: bitmap (O(P^2) bits — 128 MiB at 2^15, 2 GiB at 2^17, plus a
#: same-sized row gather per round) to sparse per-rank id shards
#: (O(cap * P) bytes). Sparse only pays off once knowledge is capped,
#: so auto additionally requires ``max_known``. The constant was set
#: at PR 8 from packed/sparse wall ratios (fanout 6, 10 rounds, cap
#: 512, "lowest" trim, 1 CPU) of 0.71x at 4096 ranks, 1.02x at 8192,
#: 1.53x at 16384 and 3.55x at 32768 — measured against the packed
#: store's rank-order unpack + argpartition trim, which no longer
#: exists. It now chooses the *container* only: up to 32 * cap ranks
#: both containers run the same priority-ordered bit rows (0.84x /
#: 0.92x / 0.99x at 4096 / 8192 / 16384, the difference being
#: ``finish()``), and at 32768 the packed leg's bit rows take 1.6x
#: the sparse leg's sorted arrays (docs/performance.md has the race).
SPARSE_AUTO_MIN_RANKS_FAST = 8_192


# Shim for benchmarks/e2e/wl_phase.py:65; the follow-up [benchmark] PR removes it.
def resolve_auto_threshold(kernel: str) -> int:
    """The ``knowledge="auto"`` packed→sparse crossover rank count."""
    return SPARSE_AUTO_MIN_RANKS_FAST


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
    #: loop's sampling RNG.
    faults: FaultConfig | None = None
    #: Knowledge store: "packed" (the dense bit matrix, O(P^2) bits),
    #: "sparse" (per-rank sorted id shards, O(sum |S^p|) — the
    #: high-rank-count store, bit-identical to packed), or "auto"
    #: (sparse once the rank count reaches
    #: :data:`SPARSE_AUTO_MIN_RANKS_FAST` *and* ``max_known`` caps the
    #: shards; packed otherwise, and always under ``intra_node_bias``).
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

    def resolve_knowledge(self, n_ranks: int) -> str:
        """The knowledge store used at a given rank count.

        Auto selects sparse only where it is both applicable (no
        topology bias — that pass is packed-only) and a win: a
        ``max_known`` cap bounds the shards, and the rank count is at
        or past the measured packed/sparse crossover.
        """
        if self.knowledge != "auto":
            return self.knowledge
        if (
            self.max_known is not None
            and self.intra_node_bias == 0.0
            and n_ranks >= SPARSE_AUTO_MIN_RANKS_FAST
        ):
            return "sparse"
        return "packed"


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
    #: Backend the stage actually ran ("packed"/"sparse")
    #: and the auto crossover that applied — so callers (bench meta,
    #: CLI reports) never re-derive the selection and drift from it.
    knowledge_backend: str = ""
    auto_threshold: int = 0
    #: Wall seconds per layer and round — ``"sample"`` (everything up
    #: to the group-by-receiver), ``"merge"``, ``"trim"`` — and of the
    #: store's ``finish()``; taken only under an enabled registry.
    per_round_seconds: dict[str, list[float]] = field(default_factory=dict)
    finish_seconds: float = 0.0

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
    n_ranks = loads.size
    if n_ranks == 0:
        raise ValueError("rank_loads must be non-empty")
    if not np.isfinite(loads).all():
        raise ValueError("rank loads must be finite (no NaN/inf)")
    l_ave = float(loads.mean()) if average_load is None else float(average_load)

    underloaded = loads < l_ave
    sparse = config.resolve_knowledge(n_ranks) == "sparse"
    know: PackedKnowledgeBitmap | SparseKnowledge
    know = SparseKnowledge(n_ranks) if sparse else PackedKnowledgeBitmap(n_ranks)
    result = GossipResult(
        knowledge=know,
        underloaded=underloaded,
        load_snapshot=loads.copy(),
        average_load=l_ave,
        knowledge_backend="sparse" if sparse else "packed",
        auto_threshold=SPARSE_AUTO_MIN_RANKS_FAST,
    )
    instrumented = registry is not None and registry.enabled
    seeds = np.flatnonzero(underloaded)
    if seeds.size == 0:
        if instrumented:
            _record_inform_stage(registry, result)
        return result
    know.add_self(seeds)

    #: None when config.faults has no active fault source — the loop
    #: then never branches on it and runs its fault-free path.
    model = PhaseFaultModel.create(config.faults)
    # The working representation, stated once: bit rows for a packed
    # container, and for a sparse one whose capped-"lowest" bit row
    # (P/8 bytes) is no larger than a full int32 shard (4 * cap).
    lowest = config.max_known is not None and config.trim_policy == "lowest"
    bit_rows = not sparse or (lowest and n_ranks <= 32 * config.max_known)
    store = (_PackedStore if bit_rows else _SparseStore)(know, config, loads, rng)
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


class _PackedCandidates:
    """Candidate membership over a packed uint8 bit matrix.

    The view interface the batch sampler works against: ``test`` checks
    a matrix of drawn rank ids against each row's candidate set, and
    ``extract`` materializes selected rows as rank-ordered packed bytes
    for the exact sampler. With ``enc`` (the rank -> bit position map
    of priority-ordered rows; see :class:`_PackedStore`) rank ids are
    looked up at bit ``enc[id]`` and ``extract`` gathers the columns
    back, so the exact sampler keys the same candidates in the same
    order either way. The sorted-array store substitutes a complement
    view (:class:`_FastSparseCandidates`) so no bit matrix exists.
    """

    __slots__ = ("packed", "enc")

    def __init__(self, packed: np.ndarray, enc: np.ndarray | None = None) -> None:
        self.packed = packed
        self.enc = enc

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        if self.enc is not None:
            draws = self.enc[draws]
        # One flat gather of each draw's byte; shifting its bit up to
        # the top of the uint8 leaves the rest to wrap away.
        at = draws >> 3
        at += (rows * self.packed.shape[1])[:, None]
        byte = self.packed.ravel()[at]
        byte <<= (draws & 7).astype(np.uint8)
        return byte >= 128

    def clear(self, rows: np.ndarray, ids: np.ndarray) -> None:
        """Drop rank ``ids[i]`` from candidate row ``rows[i]``."""
        _clear_bits(self.packed, rows, ids if self.enc is None else self.enc[ids])

    def extract(self, rows: np.ndarray) -> np.ndarray:
        sel = self.packed[rows]
        if self.enc is None:
            return sel
        bools = np.unpackbits(sel, axis=1, count=self.enc.size)
        return np.packbits(bools[:, self.enc], axis=1)


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of every set bit of a packed matrix, row-major
    (rows ascending, columns sorted in-row), expanded from the nonzero
    bytes only — cheap once rows are sparse."""
    nz_r, nz_b = np.nonzero(packed)
    br, bc = np.nonzero(np.unpackbits(packed[nz_r, nz_b, None], axis=1))
    return nz_r[br], nz_b[br] * 8 + bc


def _sample_sparse_rows(
    rng: np.random.Generator,
    sel: np.ndarray,
    want: np.ndarray,
    n_ranks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row sampling for thinned-out candidate sets.

    ``sel`` holds the already-extracted packed candidate rows (aligned
    with ``want``). Candidate ids are expanded straight from the
    nonzero bytes (:func:`_set_bits`), keyed with an
    independent uniform each, and each row takes its ``want`` smallest
    keys: a uniform without-replacement sample per row, via one
    argpartition over a padded id matrix. Returns flat ``(local row
    index, rank id)``.
    """
    empty = np.empty(0, dtype=np.int64)
    n_rows = sel.shape[0]
    if n_rows == 0:
        return empty, empty
    rid, cid = _set_bits(sel)
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
    cand: "_PackedCandidates | _FastSparseCandidates",
    counts: np.ndarray,
    want: np.ndarray,
    n_ranks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``want[i]`` distinct candidates uniformly from each row
    of ``cand``; returns flat ``(row index, rank id)``.

    ``cand`` is a candidate view (``test`` / ``extract``) over bit rows
    or over shards; because the control flow — wave widths, draw
    shapes, the dense/sparse row split — depends only on
    ``counts``/``want``, both stores consume the identical RNG stream
    and pick identical targets.

    Hybrid fast path: rows with enough candidates draw uniform rank
    ids in vectorized waves and reject misses/duplicates — expected
    ``O(f / density)`` draws per row and *no* candidate
    materialization, which is what keeps the round cost flat as ``P``
    grows. Rows whose candidate sets have thinned out (and the rows a
    capped wave budget could not fill) use the exact packed-byte
    sampler instead.

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
            # threshold): clear the picks and finish exactly.
            leftover = dense_rows[active]
            residual = cand.extract(leftover)
            picked_rows = np.repeat(np.arange(active.size), filled[active])
            picked = slots[active][slots[active] >= 0]
            _clear_bits(residual, picked_rows, picked)
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


def _clear_bits(matrix: np.ndarray, rows: np.ndarray, ids: np.ndarray) -> None:
    """Clear bit ``ids[i]`` in ``matrix[rows[i]]`` (duplicate-safe)."""
    inv = ~(np.uint8(128) >> (ids & 7).astype(np.uint8))
    np.bitwise_and.at(matrix, (rows, ids >> 3), inv)


# ---------------------------------------------------------------------------
# The round loop (Algorithm 1's ``for round in 1..k``).
# ---------------------------------------------------------------------------


def _run_rounds(
    store: "_PackedStore | _SparseStore",
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
    from a few clock reads per round; it draws nothing and changes no
    result.
    """
    n_ranks = result.load_snapshot.size
    rpn = config.ranks_per_node
    biased = config.intra_node_bias > 0.0  # implies rpn > 1, packed store
    if biased:
        node_of = np.arange(n_ranks) // rpn
        # Bit j of a row stands for rank j, or for rank dec[j] when the
        # store keeps its rows in priority order.
        bit_node = node_of if store.dec is None else node_of[store.dec]
        node_masks = np.stack(
            [np.packbits(bit_node == node) for node in range(int(node_of[-1]) + 1)]
        )
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
            local = _PackedCandidates(
                cand.packed & node_masks[node_of[senders]], cand.enc
            )
            local_counts = np.bitwise_count(local.packed).sum(axis=1, dtype=np.int64)
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
            lap("sample")
            store.merge(receivers, bounds, payloads, src[order])
            lap("merge")
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

# ---------------------------------------------------------------------------
# Bit-row store.
# ---------------------------------------------------------------------------

#: Rows unpacked per pass of the "random" trim and of ``finish()``'s
#: decode. Unpacking *every* row at once is O(rows x P) bytes — a
#: 16 GiB allocation at 2^17 ranks; fixed-size chunks keep it
#: O(chunk x P). The "random" policy's key draws split along the same
#: chunk boundaries, and row-chunked ``rng.random`` fills the identical
#: stream as one full-matrix draw, so results are unchanged.
_TRIM_CHUNK_ROWS = 64


def _priority_order(loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(enc, dec)``: each rank's position in the stable (load, id)
    sort — the order whose first ``cap`` members the "lowest" trim
    keeps — and the inverse map, position -> rank."""
    dec = np.argsort(loads, kind="stable")
    enc = np.empty(loads.size, dtype=np.int64)
    enc[dec] = np.arange(loads.size)
    return enc, dec


class _PackedStore:
    """Round-loop adapter over bit rows — the working representation
    of every packed container, and of a sparse one whose capped
    "lowest" row is no larger than a shard (see the module docstring).

    Everything is a whole-round array pass: the gathered sender rows
    double as the round's send buffer, candidates are their
    complement, merges are layered scatter-ORs. :meth:`finish` writes
    the container.

    **Rank order** (uncapped, or the "random" trim, whose RNG keys are
    drawn per rank-ordered column): bit ``q`` is rank ``q``; the rows
    are the packed container's own matrix and ``finish`` is a no-op.

    **Priority order** (capped "lowest" trim): bit ``j`` is the rank at
    position ``j`` of the stable (load, id) sort (``dec[j]``; ``enc``
    is the inverse). The cap lowest members are a row's first ``cap``
    set bits, so the trim is a prefix cut (:func:`keep_first_bits`), and a
    row equal to ``{0..cap-1}`` is *complete*: no payload can displace
    a member, so its receiver skips merge and trim for the rest of the
    stage. Self bits, candidate views and the ``intra_node_bias`` node
    masks go through ``enc``; ``finish`` decodes rows to rank order.
    """

    def __init__(
        self,
        know: PackedKnowledgeBitmap | SparseKnowledge,
        config: GossipConfig,
        loads: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        n_ranks = know.n_ranks
        self.know = know
        self.config = config
        self.rng = rng
        #: All-ones candidate row with the padding bits already clear.
        self.template = np.packbits(np.ones(n_ranks, dtype=bool))
        self.enc: np.ndarray | None = None
        self.dec: np.ndarray | None = None
        cap = config.max_known
        if cap is None or config.trim_policy != "lowest":
            self.rows = know.packed
            return
        self.enc, self.dec = _priority_order(loads)
        #: |complete row| and its leading bytes: {0..cap-1}, or all of P.
        self.full = min(cap, n_ranks)
        self.head = np.packbits(np.arange(-(-self.full // 8) * 8) < self.full)
        self.complete = np.zeros(n_ranks, dtype=bool)
        if isinstance(know, SparseKnowledge):
            holders = np.repeat(np.arange(n_ranks), know.counts())
            members = np.concatenate(know.shards).astype(np.int64)
            self.rows = np.zeros((n_ranks, self.template.size), dtype=np.uint8)
        else:
            holders, members = _set_bits(know.packed)
            self.rows = know.packed
            self.rows[:] = 0
        byte, bit = PackedKnowledgeBitmap._bits(self.enc[members])
        np.bitwise_or.at(self.rows, (holders, byte), bit)
        self.trim(np.unique(holders))  # marks rows that start complete

    def snapshot(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payload rows (a gather, hence a copy) and their ``|S^p|``."""
        snap = self.rows[senders]
        return snap, np.bitwise_count(snap).sum(axis=1, dtype=np.int64)

    def candidates(
        self, senders: np.ndarray, snap: np.ndarray, entries: np.ndarray, full: bool
    ) -> tuple[np.ndarray, _PackedCandidates]:
        """``(counts, candidate rows)``: all of P when ``full``, else
        ``P \\ S^p``; never the sender itself."""
        n_ranks = self.know.n_ranks
        idx = np.arange(senders.size)
        pos = senders if self.enc is None else self.enc[senders]
        if full:
            cand = np.repeat(self.template[None, :], senders.size, axis=0)
            counts = np.full(senders.size, n_ranks - 1, dtype=np.int64)
        else:
            cand = ~snap
            cand[:, -1] &= self.template[-1]
            # |P \ S^p \ {p}| without a second popcount: subtract |S^p|
            # (= `entries`, needed for accounting anyway) and the self
            # bit when it is not already a member of S^p.
            knows_self = (
                snap[idx, pos >> 3] & (np.uint8(128) >> (pos & 7).astype(np.uint8))
            ) != 0
            counts = n_ranks - entries - (~knows_self)
        _clear_bits(cand, idx, pos)
        return counts, _PackedCandidates(cand, self.enc)

    def merge(
        self,
        receivers: np.ndarray,
        bounds: np.ndarray,
        payloads: np.ndarray,
        src: np.ndarray,
    ) -> None:
        # Scatter-OR one "j-th message per receiver" layer at a time —
        # each layer touches every receiver at most once, so a plain
        # fancy-indexed |= applies a whole layer in one vectorized pass
        # (grouped-OR via reduceat walks bytes one at a time and is
        # ~10x slower). Complete receivers take no part.
        starts = bounds[:-1]
        group_sizes = np.diff(bounds)
        if self.enc is not None:
            todo = ~self.complete[receivers]
            receivers, starts = receivers[todo], starts[todo]
            group_sizes = group_sizes[todo]
        rows = self.rows
        for j in range(int(group_sizes.max(initial=0))):
            layer = group_sizes > j
            rows[receivers[layer]] |= payloads[src[starts[layer] + j]]

    def trim(self, receivers: np.ndarray) -> None:
        cap = self.config.max_known
        if cap is None or receivers.size == 0:
            return
        rows = self.rows
        if self.enc is not None:
            receivers = receivers[~self.complete[receivers]]
            sub = rows[receivers]
            width = sub.shape[1]
            if width % 8:  # keep_first_bits reads whole 64-bit words
                sub = np.pad(sub, ((0, 0), (0, -width % 8)))
            counts, over = keep_first_bits(sub, cap)
            rows[receivers[over]] = sub[over, :width]
            full = np.flatnonzero(counts >= self.full)
            at_head = sub[full, : self.head.size] == self.head
            self.complete[receivers[full]] = at_head.all(axis=1)
            return
        # "random": a uniform cap-subset of each over-cap row, keyed per
        # rank-ordered column.
        n = self.know.n_ranks
        counts = np.bitwise_count(rows[receivers]).sum(axis=1, dtype=np.int64)
        over = receivers[counts > cap]
        for start in range(0, over.size, _TRIM_CHUNK_ROWS):
            chunk = over[start : start + _TRIM_CHUNK_ROWS]
            bools = np.unpackbits(rows[chunk], axis=1, count=n).view(bool)
            keys = self.rng.random(bools.shape)
            keys[~bools] = np.inf
            keep = np.argpartition(keys, cap, axis=1)[:, :cap]
            trimmed = np.zeros(bools.shape, dtype=np.uint8)
            np.put_along_axis(trimmed, keep, 1, axis=1)
            rows[chunk] = np.packbits(trimmed, axis=1)

    def finish(self) -> None:
        """Write the container: priority rows are unpacked and their
        columns gathered back to rank order, then re-packed in place
        (packed) or read off as sorted ids through a boolean mask
        (sparse: only positions somebody holds are gathered; shards are
        views of one id array per chunk, no per-row sort or copy). All
        complete rows share one decode — as shards, one array object."""
        if self.enc is None:
            return
        know, rows, n = self.know, self.rows, self.know.n_ranks
        sparse = isinstance(know, SparseKnowledge)
        shards = know.shards if sparse else None
        done = np.flatnonzero(self.complete)
        todo = np.append(np.flatnonzero(~self.complete), done[:1])
        if sparse:
            held = np.flatnonzero(
                np.unpackbits(np.bitwise_or.reduce(rows, axis=0), count=n)
            )
            ids = self.dec[held]
            order = np.argsort(ids)
            cols, ids = held[order], ids[order].astype(SparseKnowledge._ID_DTYPE)
        for start in range(0, todo.size, _TRIM_CHUNK_ROWS):
            chunk = todo[start : start + _TRIM_CHUNK_ROWS]
            bools = np.unpackbits(rows[chunk], axis=1, count=n)
            if not sparse:
                rows[chunk] = np.packbits(np.take(bools, self.enc, axis=1), axis=1)
                continue
            member = np.take(bools, cols, axis=1).view(bool)
            flat = np.broadcast_to(ids, member.shape)[member]
            ends = np.cumsum(np.count_nonzero(member, axis=1)).tolist()
            for r, lo, hi in zip(chunk.tolist(), [0] + ends, ends):
                shards[r] = flat[lo:hi]
        if sparse:
            for r in done[1:].tolist():
                shards[r] = shards[done[0]]
        else:
            rows[done] = rows[done[:1]]

# ---------------------------------------------------------------------------
# Sparse store: shard interning, priority-space trim.
# ---------------------------------------------------------------------------

#: Minimum rows sharing one payload object before the round builds a
#: shared membership bitmap for them. Below this the flat per-row
#: structures are cheaper than a P-sized bitmap.
_DOMINANT_MIN_ROWS = 16


class _ShardInterner:
    """Content-addressed canonical store for shard arrays.

    ``canon`` returns one canonical array per distinct content, so
    ranks whose knowledge sets converge — the steady state of capped
    "lowest"-trim gossip, where every rank settles on the same
    lowest-load members — share a single array object. The sparse
    store then skips whole merges on object identity alone (a payload
    that *is* the receiver's shard cannot add members). A lookup never
    changes values: the canonical is value-equal to the query by
    construction, so interning is invisible to results.

    Contents are bucketed by a cheap fingerprint (size, first, last,
    sum); collisions fall back to an exact compare. The table is
    dropped wholesale when it outgrows ``max_buckets`` — under the
    non-converging "random" trim it would otherwise retain every
    distinct set ever produced. Losing the table only costs future
    skips, never correctness.
    """

    __slots__ = ("buckets", "max_buckets")

    def __init__(self, max_buckets: int) -> None:
        self.buckets: dict[tuple[int, int, int, int], list[np.ndarray]] = {}
        self.max_buckets = max_buckets

    def canon(self, arr: np.ndarray) -> np.ndarray:
        if arr.size == 0:
            return arr
        fp = (arr.size, int(arr[0]), int(arr[-1]), int(arr.sum(dtype=np.int64)))
        bucket = self.buckets.get(fp)
        if bucket is None:
            if len(self.buckets) >= self.max_buckets:
                self.buckets.clear()
            self.buckets[fp] = [arr]
            return arr
        for canonical in bucket:
            if np.array_equal(arr, canonical):
                return canonical
        bucket.append(arr)
        return arr


class _FastSparseCandidates:
    """Candidate view ``P \\ (S^p u {p})`` over sparse knowledge shards.

    A draw is a candidate iff it is not the sender and not in the
    sender's shard. Sender rows are grouped by payload *object* —
    interning makes equal shards identical objects, so converged rounds
    collapse to one dominant group — and that group tests draws against
    one shared boolean bitmap of its shard; only the remaining rows pay
    per-row membership: one ``searchsorted`` against the flat key array
    ``row * P + id`` (the row-major concatenation of sorted shards is
    globally sorted). ``counts`` is ``P - |S^p| - (p not in S^p)``,
    exactly the packed store's, so the shared sampler sees the same
    inputs and consumes the same RNG stream.

    When the store keeps shards in priority space (capped "lowest"
    trim; see :class:`_SparseStore`), ``enc``/``dec`` carry the
    rank->priority permutation and its inverse: draws are rank ids, so
    membership encodes the draw (``enc``) against the priority-valued
    segments, while the dominant bitmap and the exact ``extract`` path
    decode members (``dec``) back to rank ids once. Both are ``None``
    in id space.
    """

    def __init__(
        self,
        n_ranks: int,
        senders: np.ndarray,
        snap: "np.ndarray | list[np.ndarray]",
        lens: np.ndarray,
        template: np.ndarray,
        enc: np.ndarray | None,
        dec: np.ndarray | None,
    ) -> None:
        self.n_ranks = n_ranks
        self.senders = senders
        self.snap = snap
        self.lens = lens
        self.template = template
        self.enc = enc
        self.dec = dec
        n_rows = int(senders.size)
        groups: dict[int, list[int]] = {}
        for i, s in enumerate(snap):
            groups.setdefault(id(s), []).append(i)
        dom_rows: list[int] | None = None
        if groups:
            best = max(groups.values(), key=len)
            if len(best) >= _DOMINANT_MIN_ROWS and lens[best[0]]:
                dom_rows = best
        knows_self = np.zeros(n_rows, dtype=bool)
        self.dom_mask = None
        self.bitmap = None
        if dom_rows is not None:
            dom_shard = snap[dom_rows[0]]
            if dec is not None:
                dom_shard = dec[dom_shard]
            # Always rank-indexed (decoded here), so dominant rows never
            # pay a per-wave mapping.
            self.bitmap = np.zeros(n_ranks, dtype=bool)
            self.bitmap[dom_shard] = True
            self.dom_mask = np.zeros(n_rows, dtype=bool)
            self.dom_mask[dom_rows] = True
            knows_self[self.dom_mask] = self.bitmap[senders[self.dom_mask]]
            nd_rows = np.flatnonzero(~self.dom_mask)
        else:
            nd_rows = np.arange(n_rows)
        self.nd_pos = np.full(n_rows, -1, dtype=np.int64)
        self.nd_pos[nd_rows] = np.arange(nd_rows.size)
        nd_lens = lens[nd_rows]
        if int(nd_lens.sum()):
            nd_flat = np.concatenate([snap[i] for i in nd_rows.tolist()])
        else:
            nd_flat = np.empty(0, dtype=SparseKnowledge._ID_DTYPE)
        self.nd_flat_keys = np.repeat(
            np.arange(nd_rows.size, dtype=np.int64) * n_ranks, nd_lens
        ) + nd_flat.astype(np.int64)
        if nd_rows.size:
            knows_self[nd_rows] = self._hits(
                np.arange(nd_rows.size), senders[nd_rows][:, None]
            )[:, 0]
        self.counts = n_ranks - lens - (~knows_self)

    def _hits(self, sub_rows: np.ndarray, sub_draws: np.ndarray) -> np.ndarray:
        """Shard membership for non-dominant rows (compact indices).

        ``sub_draws`` holds rank ids; with ``enc`` set they are mapped
        into the priority-valued segments first — membership of
        ``enc[draw]`` in the encoded shard equals membership of
        ``draw`` in the original, since ``enc`` is a bijection.
        """
        flat = self.nd_flat_keys
        if not flat.size:  # all-empty shards: the seeding round
            return np.zeros(sub_draws.shape, dtype=bool)
        if self.enc is not None:
            sub_draws = self.enc[sub_draws]
        keys = (sub_rows[:, None] * np.int64(self.n_ranks) + sub_draws).ravel()
        pos = np.searchsorted(flat, keys)
        return (flat[np.minimum(pos, flat.size - 1)] == keys).reshape(sub_draws.shape)

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        ok = draws != self.senders[rows][:, None]
        if self.bitmap is not None:
            dm = self.dom_mask[rows]
            if dm.any():
                ok[dm] &= ~self.bitmap[draws[dm]]
            ndm = ~dm
        else:
            ndm = np.ones(rows.size, dtype=bool)
        if ndm.any():
            sub = ndm if self.bitmap is not None else slice(None)
            hit = self._hits(self.nd_pos[rows[sub]], draws[sub])
            ok[sub] &= ~hit
        return ok

    def extract(self, rows: np.ndarray) -> np.ndarray:
        # The rare exact-sampler path (thin rows only): the packed
        # complement from an all-ones template with the shard and self
        # bits cleared; encoded members are decoded back to rank ids
        # first (order does not matter to ``_clear_bits``).
        out = np.repeat(self.template[None, :], rows.size, axis=0)
        idx = np.arange(rows.size)
        row_lens = self.lens[rows]
        if int(row_lens.sum()):
            members = np.concatenate(
                [self.snap[r] for r in rows.tolist()]
            ).astype(np.int64)
            if self.dec is not None:
                members = self.dec[members]
            _clear_bits(out, np.repeat(idx, row_lens), members)
        _clear_bits(out, idx, self.senders[rows])
        return out


def _trim_rows_sparse(
    know: SparseKnowledge,
    ranks: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
    interner: _ShardInterner,
) -> None:
    """The "random" ``max_known`` cap over sparse shards, bit-identical
    to the packed trim: the same survivor sets and the same RNG
    consumption (full-width key rows drawn in the same chunks — only
    the member positions are ever *read*, but the stream must match
    the packed store draw for draw). The "lowest" cap never gets here:
    :class:`_SparseStore` fuses it into the merge as a truncation.

    Each trimmed shard is canonicalized so ranks that converge onto the
    same survivor set share one array object — the identity the merge's
    equality-skip keys on. Interning never changes a shard's *values*.
    """
    cap = config.max_known
    if cap is None or ranks.size == 0:
        return
    shards = know.shards
    rank_list = ranks.tolist()
    lens = np.fromiter((shards[r].size for r in rank_list), np.int64, ranks.size)
    over = ranks[lens > cap]
    n = know.n_ranks
    for start in range(0, over.size, _TRIM_CHUNK_ROWS):
        chunk = over[start : start + _TRIM_CHUNK_ROWS]
        keys = rng.random((chunk.size, n))
        for i, r in enumerate(chunk.tolist()):
            shard = shards[r]
            member_keys = keys[i, shard]
            keep = shard[np.argpartition(member_keys, cap - 1)[:cap]]
            keep.sort()
            shards[r] = interner.canon(keep)


class _SparseStore:
    """Round-loop adapter over sorted id arrays — the working
    representation of a :class:`SparseKnowledge` container whenever bit
    rows would be larger than the shards (``n_ranks > 32 * max_known``)
    or must stay in rank order ("random" trim, uncapped).

    Nothing O(P) per sender is ever materialized, so round cost scales
    with shard sizes (bounded by ``max_known``) instead of ``P``. Two
    value-preserving layers keep converged rounds cheap:

    - **Priority space** (capped "lowest" trim only): shards hold
      sorted *priority* values (``enc[member]``, as the bit rows'
      positions), so the trim is a ``[:cap]`` truncation of the sorted
      union and a shard equal to ``{0..cap-1}`` is *complete* — its
      merges skip without touching the payloads. :meth:`finish`
      decodes shards back to rank ids.
    - **Interning + identity skips**: equal shard contents share one
      array object (:class:`_ShardInterner`), so messages whose
      payload *is* the receiver's shard are no-ops — detected for the
      whole round with one ``reduceat`` — and sender rows sharing the
      round's dominant payload object test sampler draws against one
      shared bitmap (:class:`_FastSparseCandidates`).

    The "random" trim draws RNG keys per over-cap row, so it cannot be
    fused or skipped; that path keeps id-space shards and the separate
    :func:`_trim_rows_sparse` pass (identical stream consumption).
    Payload handles are shard references: every mutation *replaces* a
    shard array (interning included), so a reference taken at round
    start — or held in the fault layer's late-delivery table — never
    sees a later merge.
    """

    def __init__(
        self,
        know: SparseKnowledge,
        config: GossipConfig,
        loads: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        n_ranks = know.n_ranks
        self.know = know
        self.config = config
        self.rng = rng
        self.template = np.packbits(np.ones(n_ranks, dtype=bool))
        self.interner = _ShardInterner(max_buckets=max(1024, n_ranks // 4))
        cap = config.max_known
        self.fused_trim = cap is not None and config.trim_policy == "lowest"
        self.enc: np.ndarray | None = None
        self.dec: np.ndarray | None = None
        self.complete: np.ndarray | None = None
        if self.fused_trim:
            # Loads are fixed for the stage, so the permutation pair is
            # built once, and every shard is re-encoded once on entry.
            self.enc, self.dec = _priority_order(loads)
            enc32 = self.enc.astype(SparseKnowledge._ID_DTYPE)
            self.complete = np.zeros(n_ranks, dtype=bool)
            shards = know.shards
            for r in range(n_ranks):
                s = shards[r]
                if s.size:
                    e = enc32[s]
                    e.sort()
                    shards[r] = e
                    if e.size == cap and e[-1] == cap - 1:
                        self.complete[r] = True

    def snapshot(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payload shard references and their sizes."""
        shards = self.know.shards
        n = senders.size
        snap = np.fromiter((shards[s] for s in senders.tolist()), object, n)
        return snap, np.fromiter((s.size for s in snap), np.int64, n)

    def candidates(
        self, senders: np.ndarray, snap: np.ndarray, lens: np.ndarray, full: bool
    ) -> tuple[np.ndarray, _FastSparseCandidates]:
        """``(counts, membership view)``: ``P \\ S^p`` minus self, or —
        when ``full`` — the same view over empty shards (all of P)."""
        if full:
            snap = [np.empty(0, dtype=SparseKnowledge._ID_DTYPE)] * senders.size
            lens = np.zeros(senders.size, dtype=np.int64)
        cand = _FastSparseCandidates(
            self.know.n_ranks,
            senders,
            snap,
            lens,
            self.template,
            self.enc,
            self.dec,
        )
        return cand.counts, cand

    def merge(
        self,
        receivers: np.ndarray,
        bounds: np.ndarray,
        payloads: np.ndarray,
        src: np.ndarray,
    ) -> None:
        # Complete receivers and receivers whose every payload *is*
        # their own shard object are skipped wholesale (the union
        # cannot change their set); only the rest run a real merge,
        # with the "lowest" trim fused in as a truncation.
        shards = self.know.shards
        interner = self.interner
        fused_trim = self.fused_trim
        cap = self.config.max_known
        complete = self.complete
        payload_list = payloads.tolist()
        recv_list = receivers.tolist()
        own_ids = np.fromiter(
            (id(shards[r]) for r in recv_list), np.int64, receivers.size
        )
        payload_ids = np.fromiter(
            (id(s) for s in payload_list), np.int64, len(payload_list)
        )[src]
        is_own = payload_ids == np.repeat(own_ids, np.diff(bounds))
        open_recv = ~np.logical_and.reduceat(is_own, bounds[:-1])
        if complete is not None:
            open_recv &= ~complete[receivers]
        bounds_list = bounds.tolist()
        src_list = src.tolist()
        for i in np.flatnonzero(open_recv).tolist():
            r = recv_list[i]
            own = shards[r]
            own_id = id(own)
            parts: list[np.ndarray] = []
            seen = [own_id]
            for j in range(bounds_list[i], bounds_list[i + 1]):
                p = payload_list[src_list[j]]
                pid = id(p)
                if pid != own_id and pid not in seen:
                    seen.append(pid)
                    parts.append(p)
            if not parts:  # pragma: no cover - filtered by open_recv
                continue
            if own.size == 0 and len(parts) == 1 and (
                not fused_trim or parts[0].size <= cap
            ):
                # Adopting the payload object shares it; shard arrays
                # are immutable-by-replacement, so sharing is safe.
                merged = parts[0]
            else:
                merged = np.concatenate([own, *parts])
                # In-place sort + adjacency dedup == np.unique, minus
                # the ~100us/call overhead that dominates saturated
                # rounds (every rank is a receiver).
                merged.sort()
                keep = np.empty(merged.size, dtype=bool)
                keep[0] = True
                np.not_equal(merged[1:], merged[:-1], out=keep[1:])
                merged = merged[keep]
                if fused_trim and merged.size > cap:
                    merged = merged[:cap].copy()
                merged = interner.canon(merged)
            shards[r] = merged
            if fused_trim and merged.size == cap and merged[-1] == cap - 1:
                complete[r] = True

    def trim(self, receivers: np.ndarray) -> None:
        if not self.fused_trim:
            _trim_rows_sparse(
                self.know, receivers, self.config, self.rng, self.interner
            )

    def finish(self) -> None:
        """Decode priority-space shards back to sorted rank ids, one
        conversion per distinct object. The dict pins the encoded key
        arrays so object ids cannot be recycled mid-decode."""
        if not self.fused_trim:
            return
        shards = self.know.shards
        decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for r in range(self.know.n_ranks):
            s = shards[r]
            hit = decoded.get(id(s))
            if hit is not None and hit[0] is s:
                shards[r] = hit[1]
                continue
            d = self.dec[s].astype(SparseKnowledge._ID_DTYPE)
            d.sort()
            decoded[id(s)] = (s, d)
            shards[r] = d
