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

There is one round driver per knowledge store, all barrier-synchronous
(payloads and candidate sets are a round-start snapshot):

packed (:class:`PackedKnowledgeBitmap`)
    :func:`_run_coalesced_batched` — a round's fan-out targets are
    sampled in one pass (rejection sampling in rank-id space while
    candidate sets are dense, a segment-sorted exact sampler once they
    thin out) and its merges run as layered scatter-ORs over the packed
    rows. The only driver that handles fault fates and topology bias.

sparse (:class:`SparseKnowledge`)
    :func:`_run_coalesced_sparse_fast` (shard interning, priority-space
    trim, optional numba kernels) and its per-receiver reference
    :func:`_run_coalesced_sparse` (``kernel="python"``). Both share the
    packed driver's sampler and consume its exact RNG stream, so all
    three produce bit-identical knowledge.

``tests/core/oracles.py`` holds the set-based transcription of
Algorithm 1 that the equivalence suites compare these drivers against.
The event-level asynchronous version (messages with latencies, no round
barrier, termination detection) lives in
:mod:`repro.runtime.distributed_gossip`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._kernels import get_gossip_kernels, warn_numba_missing
from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge
from repro.obs import StatsRegistry
from repro.sim.faults import FaultConfig, PhaseFaultModel
from repro.util.validation import check_in, check_positive, coerce_rng

__all__ = [
    "GossipConfig",
    "GossipResult",
    "run_inform_stage",
    "resolve_auto_threshold",
    "SPARSE_AUTO_MIN_RANKS",
    "SPARSE_AUTO_MIN_RANKS_FAST",
]

#: Bytes for one (rank id, load) knowledge entry on the wire.
ENTRY_BYTES = 16
#: Fixed per-message envelope bytes (header, round counter).
HEADER_BYTES = 32

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # pragma: no cover - NumPy < 2.0 fallback
    _POPCOUNT_TABLE = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def _popcount(x: np.ndarray) -> np.ndarray:
        return _POPCOUNT_TABLE[x]


#: Rank count at which ``knowledge="auto"`` switches
#: from the packed bitmap (O(P^2) bits — 128 MiB at 2^15, 2 GiB at
#: 2^17) to sparse per-rank id shards (O(cap * P) bytes), when the
#: sparse side runs the *reference* driver (``kernel="python"``).
#: Below the threshold the bit matrix is small enough that packed's
#: vectorized row-OR dominates (measured: ~2.7x over reference sparse
#: at 4k ranks); at 2^15 and beyond the matrix gathers outweigh the
#: shard merges (reference sparse ~1.8x faster at 32k over a full
#: 10-round episode, and the only backend that fits a sane budget at
#: 2^17, where packed would need a 2 GiB matrix plus a same-sized row
#: gather per round). Sparse only pays off once knowledge is capped,
#: so auto additionally requires ``max_known``.
SPARSE_AUTO_MIN_RANKS = 32_768

#: The same crossover under the fused sparse driver (``kernel="auto"``
#: / ``"numba"``): priority-space shards, completeness skips and shard
#: interning collapse the converged rounds to near nothing, which
#: moves the measured packed/sparse crossover (fanout 6, 10 rounds,
#: cap 512, "lowest" trim, 1 CPU) down to the 8k rung — packed/fused
#: wall ratio 0.71x at 4096 ranks, 1.02x at 8192, 1.53x at 16384,
#: 3.55x at 32768. Auto therefore switches at 8192 ranks when the
#: fused driver is selected.
SPARSE_AUTO_MIN_RANKS_FAST = 8_192


def resolve_auto_threshold(kernel: str) -> int:
    """The ``knowledge="auto"`` packed→sparse crossover rank count.

    Single source of truth for every driver that auto-selects a
    backend: the fused sparse driver (``kernel="auto"``/``"numba"``)
    crosses over at :data:`SPARSE_AUTO_MIN_RANKS_FAST`; the per-receiver
    Python reference (``kernel="python"`` — and the event-level
    :class:`repro.runtime.distributed_gossip.DistributedGossip`, whose
    scalar merge path has reference-driver economics) at
    :data:`SPARSE_AUTO_MIN_RANKS`.
    """
    return (
        SPARSE_AUTO_MIN_RANKS
        if kernel == "python"
        else SPARSE_AUTO_MIN_RANKS_FAST
    )


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
    #: applied to every gossip message. None — or a config with no
    #: active fault source — leaves the driver on its fault-free code
    #: path, bit for bit (zero-fault invisibility). The fault fates
    #: draw from their own seeded generator, never from the driver's
    #: sampling RNG.
    faults: FaultConfig | None = None
    #: Knowledge store: "packed" (the dense bit matrix, O(P^2) bits),
    #: "sparse" (per-rank sorted id shards, O(sum |S^p|) — the
    #: high-rank-count backend, bit-identical to packed), or "auto"
    #: (sparse once the rank count crosses the kernel-dependent
    #: threshold *and* ``max_known`` caps the shards; packed otherwise).
    knowledge: str = "auto"
    #: Sparse-backend driver: "auto" (the fused driver — shard
    #: interning, equality-skipped merges, jitted scalar kernels where
    #: numba is installed, vectorized NumPy fallbacks where not),
    #: "numba" (the fused driver too, but warns once when numba is
    #: missing — use it to *assert* the compiled build), or "python"
    #: (the per-receiver reference driver, kept as the behavioural
    #: oracle). All three are bit-identical — same targets, same
    #: knowledge, same RNG stream. The packed store ignores this knob;
    #: its round loop is already fully vectorized.
    kernel: str = "auto"

    def __post_init__(self) -> None:
        check_positive("fanout", self.fanout)
        check_positive("rounds", self.rounds)
        if self.max_known is not None:
            check_positive("max_known", self.max_known)
        check_in("trim_policy", self.trim_policy, ("random", "lowest"))
        check_positive("ranks_per_node", self.ranks_per_node)
        if not 0.0 <= self.intra_node_bias <= 1.0:
            raise ValueError("intra_node_bias must be in [0, 1]")
        if self.intra_node_bias > 0.0 and self.ranks_per_node == 1:
            raise ValueError("intra_node_bias needs ranks_per_node > 1")
        check_in("knowledge", self.knowledge, ("auto", "packed", "sparse"))
        check_in("kernel", self.kernel, ("auto", "python", "numba"))
        if self.knowledge == "sparse":
            if self.intra_node_bias > 0.0:
                raise ValueError(
                    "knowledge='sparse' does not support intra_node_bias"
                )
            if self.faults is not None:
                raise ValueError(
                    "knowledge='sparse' does not support fault injection"
                )

    def resolve_knowledge(self, n_ranks: int) -> str:
        """The knowledge store used at a given rank count.

        Auto selects sparse only where it is both applicable (no fault
        model or topology bias — those paths are packed-only) and a
        win: a ``max_known`` cap bounds the shards, and the rank count
        is at or past the measured packed/sparse crossover — which
        depends on the sparse driver the ``kernel`` knob selects
        (``SPARSE_AUTO_MIN_RANKS_FAST`` for the fused driver,
        ``SPARSE_AUTO_MIN_RANKS`` for the Python reference).
        """
        if self.knowledge != "auto":
            return self.knowledge
        threshold = resolve_auto_threshold(self.kernel)
        if (
            self.max_known is not None
            and self.faults is None
            and self.intra_node_bias == 0.0
            and n_ranks >= threshold
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
        auto_threshold=resolve_auto_threshold(config.kernel),
    )
    seeds = np.flatnonzero(underloaded)
    if seeds.size == 0:
        if registry is not None and registry.enabled:
            _record_inform_stage(registry, result)
        return result
    know.add_self(seeds)

    #: None when config.faults has no active fault source — the driver
    #: then never branches on it and runs its fault-free code path.
    model = PhaseFaultModel.create(config.faults)
    if sparse:
        if config.kernel == "python":
            _run_coalesced_sparse(know, seeds, config, rng, result)  # type: ignore[arg-type]
        else:
            if config.kernel == "numba":
                warn_numba_missing("the sparse inform kernel")
            _run_coalesced_sparse_fast(know, seeds, config, rng, result)  # type: ignore[arg-type]
    else:
        _run_coalesced_batched(know, seeds, config, rng, result, model)  # type: ignore[arg-type]
    _finalize_rounds(result)
    if model is not None:
        result.dropped = model.drops
        result.delayed = model.delayed
        result.duplicated = model.duplicates
        result.retransmits = model.retransmits
        result.expired = model.expired
        if registry is not None and registry.enabled:
            registry.inc("faults.gossip.dropped", model.drops)
            registry.inc("faults.gossip.delayed", model.delayed)
            registry.inc("faults.gossip.duplicated", model.duplicates)
            registry.inc("faults.gossip.retransmits", model.retransmits)
            registry.inc("faults.gossip.expired", model.expired)
    if registry is not None and registry.enabled:
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
    )


# ---------------------------------------------------------------------------
# Packed-store driver: round-level vectorization.
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
    ``extract`` materializes selected rows as packed bytes for the
    exact sampler. The packed engine's candidate matrix satisfies it
    directly; the sparse engine substitutes a complement view so the
    O(P^2)-bit matrix never exists.
    """

    __slots__ = ("packed",)

    def __init__(self, packed: np.ndarray) -> None:
        self.packed = packed

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        bit = np.uint8(128) >> (draws & 7).astype(np.uint8)
        return (self.packed[rows[:, None], draws >> 3] & bit) != 0

    def extract(self, rows: np.ndarray) -> np.ndarray:
        return self.packed[rows].copy()


class _SparseComplementCandidates:
    """Candidate view ``P \\ (S^p u {p})`` over sparse knowledge shards.

    A draw is a candidate iff it is not the sender and not in the
    sender's shard. Shard membership resolves against one flat key
    array ``row * P + id``: the row-major concatenation of sorted
    shards is globally sorted, so a whole wave of (row, draw) pairs is
    one ``searchsorted``. ``extract`` (the exact-sampler path, rare
    and only for thin rows) packs the complement from an all-ones
    template with the shard and self bits cleared.
    """

    __slots__ = ("n_ranks", "senders", "shards", "lens", "flat_keys", "template")

    def __init__(
        self,
        n_ranks: int,
        senders: np.ndarray,
        shards: list[np.ndarray] | None,
        lens: np.ndarray | None,
        flat_keys: np.ndarray | None,
        template: np.ndarray,
    ) -> None:
        self.n_ranks = n_ranks
        self.senders = senders
        self.shards = shards  # None => candidates are all of P minus self
        self.lens = lens
        self.flat_keys = flat_keys
        self.template = template

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        ok = draws != self.senders[rows][:, None]
        flat = self.flat_keys
        if flat is not None and flat.size:
            keys = (rows[:, None] * np.int64(self.n_ranks) + draws).ravel()
            pos = np.searchsorted(flat, keys)
            hit = flat[np.minimum(pos, flat.size - 1)] == keys
            ok &= ~hit.reshape(draws.shape)
        return ok

    def extract(self, rows: np.ndarray) -> np.ndarray:
        out = np.repeat(self.template[None, :], rows.size, axis=0)
        idx = np.arange(rows.size)
        if self.shards is not None:
            row_lens = self.lens[rows]
            if int(row_lens.sum()):
                members = np.concatenate(
                    [self.shards[r] for r in rows.tolist()]
                ).astype(np.int64)
                _clear_bits(out, np.repeat(idx, row_lens), members)
        _clear_bits(out, idx, self.senders[rows])
        return out


def _sample_sparse_rows(
    rng: np.random.Generator,
    sel: np.ndarray,
    want: np.ndarray,
    n_ranks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row sampling for thinned-out candidate sets.

    ``sel`` holds the already-extracted packed candidate rows (aligned
    with ``want``). Candidate ids are expanded straight from the
    nonzero bytes — cheap once sets are sparse — keyed with an
    independent uniform each, and each row takes its ``want`` smallest
    keys: a uniform without-replacement sample per row, via one
    argpartition over a padded id matrix. Returns flat ``(local row
    index, rank id)``.
    """
    empty = np.empty(0, dtype=np.int64)
    n_rows = sel.shape[0]
    if n_rows == 0:
        return empty, empty
    nz_r, nz_b = np.nonzero(sel)
    if nz_r.size == 0:
        return empty, empty
    bits = np.unpackbits(sel[nz_r, nz_b, None], axis=1)
    br, bc = np.nonzero(bits)
    rid = nz_r[br]  # row-major nonzero => rid ascending, cid sorted in-row
    cid = nz_b[br] * 8 + bc
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


def _mark_wave_duplicates(draws: np.ndarray) -> np.ndarray:
    """True where ``draws[i, j]`` repeats an earlier draw of row ``i``."""
    idx = np.argsort(draws, axis=1, kind="stable")
    sorted_draws = np.take_along_axis(draws, idx, axis=1)
    dup_sorted = np.zeros(draws.shape, dtype=bool)
    dup_sorted[:, 1:] = sorted_draws[:, 1:] == sorted_draws[:, :-1]
    dup = np.zeros(draws.shape, dtype=bool)
    np.put_along_axis(dup, idx, dup_sorted, axis=1)
    return dup


def _sample_packed_rows(
    rng: np.random.Generator,
    cand: "np.ndarray | _PackedCandidates | _SparseComplementCandidates",
    counts: np.ndarray,
    want: np.ndarray,
    n_ranks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``want[i]`` distinct set bits uniformly from each packed
    candidate row ``cand[i]``; returns flat ``(row index, rank id)``.

    ``cand`` is a packed uint8 matrix or a candidate view (``test`` /
    ``extract``); the sparse engine passes a complement view so its
    candidates are never materialized, and because the control flow —
    wave widths, draw shapes, the dense/sparse row split — depends only
    on ``counts``/``want``, both backends consume the identical RNG
    stream and pick identical targets.

    Hybrid fast path: rows with enough candidates draw uniform rank
    ids in vectorized waves and reject misses/duplicates — expected
    ``O(f / density)`` draws per row and *no* candidate
    materialization, which is what keeps the round cost flat as ``P``
    grows. Rows whose candidate sets have thinned out (and the rare
    rows a capped wave budget could not fill) use the exact
    packed-byte sampler instead.
    """
    if isinstance(cand, np.ndarray):
        cand = _PackedCandidates(cand)
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
        if active.size:  # pragma: no cover - probabilistic fallback
            # Clear already-picked bits and finish exactly.
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


#: Rows unpacked per trim pass. Trimming used to materialize *every*
#: over-cap row as booleans at once — O(|over| x P) bytes, which at
#: 2^17 ranks is a 16 GiB allocation per round. Fixed-size chunks keep
#: trim memory O(chunk x P) regardless of how many rows are over cap;
#: the "random" policy's key draws split along the same chunk
#: boundaries, and row-chunked ``rng.random`` fills the identical
#: stream as one full-matrix draw, so results are unchanged.
_TRIM_CHUNK_ROWS = 64


def _load_priority(loads: np.ndarray) -> np.ndarray:
    """Rank of each rank under the (load, id) order the "lowest" trim
    keeps: ``priority[q] = position of q in a stable sort by load``.

    A permutation, so per-row selection can use ``argpartition`` on
    integer keys (no ties) instead of a full-width stable argsort,
    while keeping exactly the same survivor set.
    """
    prio = np.empty(loads.size, dtype=np.int64)
    prio[np.argsort(loads, kind="stable")] = np.arange(loads.size)
    return prio


def _trim_rows_packed(
    know: PackedKnowledgeBitmap,
    ranks: np.ndarray,
    loads: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
) -> None:
    """Vectorized ``max_known`` cap for a batch of packed rows.

    The cap is enforced once per round, after all of the round's
    merges. Rows are unpacked in ``_TRIM_CHUNK_ROWS`` chunks so trim
    memory stays O(chunk x P).
    """
    cap = config.max_known
    if cap is None or ranks.size == 0:
        return
    counts = _popcount(know.packed[ranks]).sum(axis=1, dtype=np.int64)
    over = ranks[counts > cap]
    if over.size == 0:
        return
    n = know.n_ranks
    lowest = config.trim_policy == "lowest"
    if lowest:
        prio = _load_priority(loads)
    for start in range(0, over.size, _TRIM_CHUNK_ROWS):
        rows = over[start : start + _TRIM_CHUNK_ROWS]
        bools = np.unpackbits(know.packed[rows], axis=1, count=n).view(bool)
        if lowest:
            # Non-members get priority n — worse than any member — so
            # the cap smallest keys are exactly the members lowest in
            # the (load, id) order.
            keys = np.where(bools, prio[None, :], np.int64(n))
            keep = np.argpartition(keys, cap, axis=1)[:, :cap]
        else:
            keys = rng.random(bools.shape)
            keys[~bools] = np.inf
            keep = np.argpartition(keys, cap, axis=1)[:, :cap]
        trimmed = np.zeros(bools.shape, dtype=np.uint8)
        np.put_along_axis(trimmed, keep, 1, axis=1)
        know.packed[rows] = np.packbits(trimmed, axis=1)


def _trim_rows_sparse(
    know: SparseKnowledge,
    ranks: np.ndarray,
    loads: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
    interner: "_ShardInterner | None" = None,
) -> None:
    """``max_known`` cap over sparse shards, bit-identical to the packed
    trim: the same survivor sets, and for the "random" policy the same
    RNG consumption (full-width key rows drawn in the same chunks —
    only the member positions are ever *read*, but the stream must
    match the packed engine draw for draw).

    With an ``interner`` (the fused driver), each trimmed shard is
    canonicalized so ranks that converge onto the same survivor set
    share one array object — the identity the driver's equality-skip
    keys on. Interning never changes a shard's *values*.
    """
    cap = config.max_known
    if cap is None or ranks.size == 0:
        return
    shards = know.shards
    rank_list = ranks.tolist()
    lens = np.fromiter((shards[r].size for r in rank_list), np.int64, ranks.size)
    over = ranks[lens > cap]
    if over.size == 0:
        return
    if config.trim_policy == "lowest":
        prio = _load_priority(loads)
        for r in over.tolist():
            shard = shards[r]
            keep = shard[np.argpartition(prio[shard], cap - 1)[:cap]]
            keep.sort()
            shards[r] = keep if interner is None else interner.canon(keep)
        return
    n = know.n_ranks
    for start in range(0, over.size, _TRIM_CHUNK_ROWS):
        chunk = over[start : start + _TRIM_CHUNK_ROWS]
        keys = rng.random((chunk.size, n))
        for i, r in enumerate(chunk.tolist()):
            shard = shards[r]
            member_keys = keys[i, shard]
            keep = shard[np.argpartition(member_keys, cap - 1)[:cap]]
            keep.sort()
            shards[r] = keep if interner is None else interner.canon(keep)


def _run_coalesced_batched(
    know: PackedKnowledgeBitmap,
    seeds: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
    result: GossipResult,
    model: PhaseFaultModel | None = None,
) -> None:
    """Round-level vectorized driver over the packed store.

    Per round: build every sender's packed candidate mask, sample the
    whole round's fan-out in one pass, account all messages with array
    reductions, and apply all merges as layered scatter-ORs. The
    gathered sender rows double as the round's send buffer (2 MB of
    packed rows per round at 4096 ranks).
    """
    n_ranks = know.n_ranks
    fanout = config.fanout
    rpn = config.ranks_per_node
    #: All-ones candidate template with the padding bits already clear.
    template = np.packbits(np.ones(n_ranks, dtype=bool))
    pad_mask = template[-1]
    biased = config.intra_node_bias > 0.0  # implies rpn > 1 (validated)
    if biased:
        node_of = np.arange(n_ranks) // rpn
        n_nodes = int(node_of[-1]) + 1
        node_masks = np.zeros((n_nodes, know.n_bytes), dtype=np.uint8)
        for node in range(n_nodes):
            node_masks[node] = np.packbits(node_of == node)

    senders = seeds.astype(np.int64)
    initiating = True
    #: round -> [(targets array, payload-row matrix)] late deliveries.
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for _round in range(1, config.rounds + 1):
        result.per_round_messages.append(0)
        result.per_round_senders.append(int(senders.size))
        # Gathering the sender rows copies them: this is the round's
        # double buffer — payloads come from `snap`, merges land in
        # `know.packed`, so same-round merges never leak into payloads.
        snap = know.packed[senders]
        entries = _popcount(snap).sum(axis=1, dtype=np.int64)
        if initiating or not config.avoid_known:
            # Alg. 1 l.10: the seeding round samples from all of P
            # (minus self); without avoid_known every round does.
            cand = np.repeat(template[None, :], senders.size, axis=0)
            counts = np.full(senders.size, n_ranks - 1, dtype=np.int64)
        else:
            cand = ~snap
            cand[:, -1] &= pad_mask
            # |P \ S^p \ {p}| without a second popcount: subtract |S^p|
            # (= `entries`, needed for accounting anyway) and the self
            # bit when it is not already a member of S^p.
            knows_self = (
                snap[np.arange(senders.size), senders >> 3]
                & (np.uint8(128) >> (senders & 7).astype(np.uint8))
            ) != 0
            counts = n_ranks - entries - (~knows_self)
        _clear_bits(cand, np.arange(senders.size), senders)

        want = np.minimum(fanout, counts)
        if biased:
            local_cand = cand & node_masks[node_of[senders]]
            local_counts = _popcount(local_cand).sum(axis=1, dtype=np.int64)
            n_local = np.minimum(
                rng.binomial(want, config.intra_node_bias), local_counts
            )
            row_l, tgt_l = _sample_packed_rows(
                rng, local_cand, local_counts, n_local, n_ranks
            )
            # Remove the local picks from the global pool, then fill the
            # remaining slots from it.
            _clear_bits(cand, row_l, tgt_l)
            picked = np.bincount(row_l, minlength=senders.size)
            row_g, tgt_g = _sample_packed_rows(
                rng, cand, counts - picked, want - picked, n_ranks
            )
            row_idx = np.concatenate((row_l, row_g))
            targets = np.concatenate((tgt_l, tgt_g))
        else:
            row_idx, targets = _sample_packed_rows(rng, cand, counts, want, n_ranks)

        if targets.size == 0 and model is None:
            break
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
        if model is not None:
            # Fault fates split the round's messages into immediate
            # deliveries, future-round deliveries (delay/retransmit)
            # and losses; deliveries maturing this round join the
            # payloads that matured from earlier rounds (popped after
            # the snapshot gather, so they cannot ride this round's
            # sends) in one combined merge pass.
            merge_parts = pending.pop(_round, [])
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
                    merge_parts.append((all_t[now_mask], snap[all_src[now_mask]]))
                future = (all_arrive > _round) & (all_arrive <= config.rounds)
                model.expired += int(np.count_nonzero(all_arrive > config.rounds))
                for r in np.unique(all_arrive[future]):
                    sel = future & (all_arrive == r)
                    pending.setdefault(int(r), []).append(
                        (all_t[sel], snap[all_src[sel]])
                    )
            if merge_parts:
                merge_t = np.concatenate([t for t, _ in merge_parts])
                merge_p = np.concatenate([p for _, p in merge_parts])
                order = np.argsort(merge_t, kind="stable")
                t_sorted = merge_t[order]
                p_sorted = merge_p[order]
                receivers, starts = np.unique(t_sorted, return_index=True)
                group_sizes = np.diff(np.append(starts, t_sorted.size))
                for j in range(int(group_sizes.max())):
                    layer = group_sizes > j
                    idx = starts[layer] + j
                    know.packed[t_sorted[idx]] |= p_sorted[idx]
                _trim_rows_packed(know, receivers, result.load_snapshot, config, rng)
            else:
                receivers = np.empty(0, dtype=np.int64)
            initiating = False
            senders = receivers
            if senders.size == 0 and not pending:
                break
            continue
        # All merges at once: group messages by target, then scatter-OR
        # one "j-th message per receiver" layer at a time — each layer
        # touches every receiver at most once, so a plain fancy-indexed
        # |= applies a whole layer in one vectorized pass (grouped-OR
        # via reduceat walks bytes one at a time and is ~10x slower).
        order = np.argsort(targets, kind="stable")
        targets_sorted = targets[order]
        sources_sorted = row_idx[order]
        receivers, starts = np.unique(targets_sorted, return_index=True)
        group_sizes = np.diff(np.append(starts, targets_sorted.size))
        for j in range(int(group_sizes.max())):
            layer = group_sizes > j
            idx = starts[layer] + j
            know.packed[targets_sorted[idx]] |= snap[sources_sorted[idx]]
        _trim_rows_packed(know, receivers, result.load_snapshot, config, rng)
        initiating = False
        senders = receivers
        if senders.size == 0:  # pragma: no cover - targets imply receivers
            break


def _run_coalesced_sparse(
    know: SparseKnowledge,
    seeds: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
    result: GossipResult,
) -> None:
    """Round engine over :class:`SparseKnowledge` shards.

    Structurally the batched engine with the packed candidate matrix
    replaced by a :class:`_SparseComplementCandidates` view: nothing
    O(P) per sender is ever materialized, so round cost scales with
    shard sizes (bounded by ``max_known``) instead of ``P``. Because
    the shared sampler's control flow depends only on ``counts`` /
    ``want`` — identical here by construction — this engine consumes
    the same RNG stream and picks the same targets as the packed
    engine, draw for draw.

    ``config.__post_init__`` guarantees no faults and no intra-node
    bias on this path, so neither is handled here.
    """
    n_ranks = know.n_ranks
    fanout = config.fanout
    rpn = config.ranks_per_node
    template = np.packbits(np.ones(n_ranks, dtype=bool))

    senders = seeds.astype(np.int64)
    initiating = True
    for _round in range(1, config.rounds + 1):
        result.per_round_messages.append(0)
        result.per_round_senders.append(int(senders.size))
        sender_list = senders.tolist()
        # Shard references are the round's payload snapshot: every
        # mutation in SparseKnowledge replaces a shard array rather
        # than writing into it, so same-round merges cannot leak into
        # these payloads (the packed engine copies rows for the same
        # reason).
        snap = [know.shards[s] for s in sender_list]
        lens = np.fromiter((s.size for s in snap), np.int64, senders.size)
        entries = lens
        if initiating or not config.avoid_known:
            counts = np.full(senders.size, n_ranks - 1, dtype=np.int64)
            cand = _SparseComplementCandidates(
                n_ranks, senders, None, None, None, template
            )
        else:
            # Flat keys `row * P + id` over the row-major shard concat
            # are globally sorted (shards are sorted, rows ascend), so
            # membership for a whole wave is one searchsorted.
            if int(lens.sum()):
                flat_keys = np.repeat(
                    np.arange(senders.size, dtype=np.int64) * n_ranks, lens
                ) + np.concatenate(snap).astype(np.int64)
            else:
                flat_keys = np.empty(0, dtype=np.int64)
            self_keys = np.arange(senders.size, dtype=np.int64) * n_ranks + senders
            if flat_keys.size:
                pos = np.searchsorted(flat_keys, self_keys)
                knows_self = (
                    flat_keys[np.minimum(pos, flat_keys.size - 1)] == self_keys
                )
            else:
                knows_self = np.zeros(senders.size, dtype=bool)
            counts = n_ranks - lens - (~knows_self)
            cand = _SparseComplementCandidates(
                n_ranks, senders, snap, lens, flat_keys, template
            )

        want = np.minimum(fanout, counts)
        row_idx, targets = _sample_packed_rows(rng, cand, counts, want, n_ranks)
        if targets.size == 0:
            break
        n = int(targets.size)
        result.n_messages += n
        result.bytes_sent += n * HEADER_BYTES + ENTRY_BYTES * int(
            entries[row_idx].sum()
        )
        result.per_round_messages[-1] = n
        result.inter_node_messages += int(
            np.count_nonzero(targets // rpn != senders[row_idx] // rpn)
        )
        # Merge: group messages by receiver, union each receiver's
        # current shard with all payload shards addressed to it.
        order = np.argsort(targets, kind="stable")
        targets_sorted = targets[order]
        sources_sorted = row_idx[order]
        receivers, starts = np.unique(targets_sorted, return_index=True)
        bounds = np.append(starts, targets_sorted.size)
        src_list = sources_sorted.tolist()
        shards = know.shards
        for i, r in enumerate(receivers.tolist()):
            parts = [shards[r]]
            for j in range(bounds[i], bounds[i + 1]):
                parts.append(snap[src_list[j]])
            merged = np.concatenate(parts)
            if merged.size == 0:
                shards[r] = merged
                continue
            # In-place sort + adjacency dedup == np.unique, minus the
            # ~100us/call overhead that dominates saturated rounds
            # (every rank is a receiver, so this loop runs P times).
            merged.sort()
            keep = np.empty(merged.size, dtype=bool)
            keep[0] = True
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
            shards[r] = merged[keep]
        _trim_rows_sparse(know, receivers, result.load_snapshot, config, rng)
        initiating = False
        senders = receivers
        if senders.size == 0:  # pragma: no cover - targets imply receivers
            break


# ---------------------------------------------------------------------------
# Fused sparse driver (``kernel="auto"``/``"numba"``): shard interning.
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
    lowest-load members — share a single array object. The fused
    driver then skips whole merges on object identity alone (a payload
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
    """Membership view for the fused sparse driver.

    Identical answers to :class:`_SparseComplementCandidates`, cheaper
    cost model: rows whose payload is the round's dominant (interned)
    shard object test draws against one shared boolean bitmap of that
    shard, and only the remaining rows pay per-row membership — the
    jitted binary-search kernel when numba is installed, the flat-key
    ``searchsorted`` otherwise.

    When the driver stores shards in priority space (capped "lowest"
    trim; see :func:`_run_coalesced_sparse_fast`), ``enc``/``dec``
    carry the rank->priority permutation and its inverse: draws are
    rank ids, so membership encodes the draw (``enc``) against the
    priority-valued segments, while the dominant bitmap and the exact
    ``extract`` path decode members (``dec``) back to rank ids once.
    Both are ``None`` in id space.
    """

    __slots__ = (
        "n_ranks",
        "senders",
        "snap",
        "lens",
        "template",
        "dom_mask",
        "bitmap",
        "nd_pos",
        "nd_flat",
        "nd_starts",
        "nd_lens",
        "nd_flat_keys",
        "member_kernel",
        "enc",
        "dec",
    )

    def __init__(
        self,
        n_ranks: int,
        senders: np.ndarray,
        snap: list[np.ndarray],
        lens: np.ndarray,
        template: np.ndarray,
        dom_mask: np.ndarray | None,
        bitmap: np.ndarray | None,
        nd_pos: np.ndarray,
        nd_flat: np.ndarray,
        nd_starts: np.ndarray,
        nd_lens: np.ndarray,
        nd_flat_keys: np.ndarray | None,
        member_kernel,
        enc: np.ndarray | None,
        dec: np.ndarray | None,
    ) -> None:
        self.n_ranks = n_ranks
        self.senders = senders
        self.snap = snap
        self.lens = lens
        self.template = template
        self.dom_mask = dom_mask
        self.bitmap = bitmap
        self.nd_pos = nd_pos
        self.nd_flat = nd_flat
        self.nd_starts = nd_starts
        self.nd_lens = nd_lens
        self.nd_flat_keys = nd_flat_keys
        self.member_kernel = member_kernel
        self.enc = enc
        self.dec = dec

    def _hits(self, sub_rows: np.ndarray, sub_draws: np.ndarray) -> np.ndarray:
        """Shard membership for non-dominant rows (compact indices).

        ``sub_draws`` holds rank ids; with ``enc`` set they are mapped
        into the priority-valued segments first — membership of
        ``enc[draw]`` in the encoded shard equals membership of
        ``draw`` in the original, since ``enc`` is a bijection.
        """
        if self.enc is not None:
            sub_draws = self.enc[sub_draws]
        if self.member_kernel is not None:
            hit = np.empty(sub_draws.shape, dtype=np.bool_)
            self.member_kernel(
                self.nd_flat,
                self.nd_starts,
                self.nd_lens,
                sub_rows,
                np.ascontiguousarray(sub_draws),
                hit,
            )
            return hit
        flat = self.nd_flat_keys
        if flat is None or not flat.size:
            return np.zeros(sub_draws.shape, dtype=bool)
        keys = (sub_rows[:, None] * np.int64(self.n_ranks) + sub_draws).ravel()
        pos = np.searchsorted(flat, keys)
        return (flat[np.minimum(pos, flat.size - 1)] == keys).reshape(sub_draws.shape)

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        ok = draws != self.senders[rows][:, None]
        if self.bitmap is not None:
            # The bitmap is always rank-indexed (decoded at build time),
            # so dominant rows never pay a per-wave mapping.
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
        # The rare exact-sampler path; identical to the reference view,
        # with encoded members decoded back to rank ids for the bit
        # clears (order does not matter to ``_clear_bits``).
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


def _fast_candidates(
    n_ranks: int,
    senders: np.ndarray,
    snap: list[np.ndarray],
    lens: np.ndarray,
    template: np.ndarray,
    member_kernel,
    enc: np.ndarray | None = None,
    dec: np.ndarray | None = None,
) -> tuple[np.ndarray, _FastSparseCandidates]:
    """Candidate counts and membership view for one fused round.

    Groups sender rows by payload *object* — interning makes equal
    shards identical objects, so converged rounds collapse to one
    dominant group — and gives that group a single shared bitmap.
    ``counts`` is computed exactly as the reference driver does
    (``P - |S^p| - (p not in S^p)``), so the shared sampler sees the
    same inputs and consumes the same RNG stream. ``enc``/``dec``
    flag priority-space shards (see :class:`_FastSparseCandidates`).
    """
    n_rows = int(senders.size)
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(snap):
        groups.setdefault(id(s), []).append(i)
    dom_rows: list[int] | None = None
    if groups:
        best = max(groups.values(), key=len)
        if len(best) >= _DOMINANT_MIN_ROWS:
            dom_rows = best
    knows_self = np.zeros(n_rows, dtype=bool)
    dom_mask = None
    bitmap = None
    if dom_rows is not None:
        dom_shard = snap[dom_rows[0]]
        if dec is not None:
            dom_shard = dec[dom_shard]
        bitmap = np.zeros(n_ranks, dtype=bool)
        bitmap[dom_shard] = True
        dom_mask = np.zeros(n_rows, dtype=bool)
        dom_mask[dom_rows] = True
        knows_self[dom_mask] = bitmap[senders[dom_mask]]
        nd_rows = np.flatnonzero(~dom_mask)
    else:
        nd_rows = np.arange(n_rows)
    nd_pos = np.full(n_rows, -1, dtype=np.int64)
    nd_pos[nd_rows] = np.arange(nd_rows.size)
    nd_lens = lens[nd_rows]
    if int(nd_lens.sum()):
        nd_flat = np.concatenate([snap[i] for i in nd_rows.tolist()])
    else:
        nd_flat = np.empty(0, dtype=SparseKnowledge._ID_DTYPE)
    if nd_rows.size:
        nd_starts = np.concatenate(([0], np.cumsum(nd_lens)[:-1]))
    else:
        nd_starts = np.empty(0, dtype=np.int64)
    nd_flat_keys = None
    if member_kernel is None:
        if nd_flat.size:
            nd_flat_keys = np.repeat(
                np.arange(nd_rows.size, dtype=np.int64) * n_ranks, nd_lens
            ) + nd_flat.astype(np.int64)
        else:
            nd_flat_keys = np.empty(0, dtype=np.int64)
    cand = _FastSparseCandidates(
        n_ranks,
        senders,
        snap,
        lens,
        template,
        dom_mask,
        bitmap,
        nd_pos,
        nd_flat,
        nd_starts,
        nd_lens,
        nd_flat_keys,
        member_kernel,
        enc,
        dec,
    )
    if nd_rows.size:
        knows_self[nd_rows] = cand._hits(
            np.arange(nd_rows.size), senders[nd_rows][:, None]
        )[:, 0]
    counts = n_ranks - lens - (~knows_self)
    return counts, cand


def _run_coalesced_sparse_fast(
    know: SparseKnowledge,
    seeds: np.ndarray,
    config: GossipConfig,
    rng: np.random.Generator,
    result: GossipResult,
) -> None:
    """Fused sparse round engine (``kernel="auto"``/``"numba"``).

    Bit-identical to :func:`_run_coalesced_sparse` — same targets,
    same shard values, same RNG stream — but built around one
    observation: capped "lowest"-trim gossip *converges*. After a few
    rounds most ranks hold the identical knowledge set (the globally
    lowest-priority members), so most of the reference driver's
    per-receiver concat/sort/dedup/argpartition work rebuilds a set
    the receiver already has. Three value-preserving layers exploit
    that:

    - **Priority space** (capped "lowest" trim only): shards are
      stored as sorted *priority* values (``prio[member]``) for the
      stage. The trim's survivor set — the cap lowest members in
      (load, id) order — becomes a plain ``[:cap]`` truncation of the
      sorted union, and a rank whose shard is exactly ``{0..cap-1}``
      is *complete*: no payload can ever displace a member, so its
      merges skip without touching the payloads. Priorities are a
      bijection of rank ids, so sizes, unions and membership answers
      are unchanged; shards decode back to rank ids on exit.
    - **Interning + identity skips**: equal shard contents share one
      array object (:class:`_ShardInterner`), so messages whose
      payload *is* the receiver's shard are no-ops — detected for the
      whole round with one ``reduceat`` — and sender rows sharing the
      round's dominant payload object test sampler draws against one
      shared bitmap (:class:`_FastSparseCandidates`).
    - **Merge kernels**: the remaining real merges run through the
      jitted two-way merge kernel where numba is installed
      (:func:`repro.core._kernels.merge_shards`) and the NumPy
      sort/dedup otherwise.

    The "random" trim draws RNG keys per over-cap row, so it cannot be
    fused or skipped; that path keeps id-space shards and the separate
    :func:`_trim_rows_sparse` pass (identical stream consumption).

    ``config.__post_init__`` guarantees no faults and no intra-node
    bias on this path, so neither is handled here.
    """
    n_ranks = know.n_ranks
    fanout = config.fanout
    rpn = config.ranks_per_node
    template = np.packbits(np.ones(n_ranks, dtype=bool))
    kernels = get_gossip_kernels()
    merge_kernel = kernels[0] if kernels is not None else None
    member_kernel = kernels[1] if kernels is not None else None
    interner = _ShardInterner(max_buckets=max(1024, n_ranks // 4))
    shards = know.shards
    id_dtype = SparseKnowledge._ID_DTYPE
    merge_buf = np.empty(0, dtype=id_dtype)
    cap = config.max_known
    fused_trim = cap is not None and config.trim_policy == "lowest"
    enc: np.ndarray | None = None
    dec: np.ndarray | None = None
    complete: np.ndarray | None = None
    if fused_trim:
        # prio/dec are the permutation pair of _load_priority: loads
        # are fixed for the stage, so both are hoisted out of the
        # rounds, and every shard is re-encoded once on entry.
        dec = np.argsort(result.load_snapshot, kind="stable")
        enc = np.empty(n_ranks, dtype=np.int64)
        enc[dec] = np.arange(n_ranks)
        enc32 = enc.astype(id_dtype)
        complete = np.zeros(n_ranks, dtype=bool)
        for r in range(n_ranks):
            s = shards[r]
            if s.size:
                e = enc32[s]
                e.sort()
                shards[r] = e
                if e.size == cap and e[-1] == cap - 1:
                    complete[r] = True

    senders = seeds.astype(np.int64)
    initiating = True
    for _round in range(1, config.rounds + 1):
        result.per_round_messages.append(0)
        result.per_round_senders.append(int(senders.size))
        sender_list = senders.tolist()
        # Shard references are the round's payload snapshot: every
        # mutation replaces a shard array (interning included), so
        # same-round merges cannot leak into these payloads.
        snap = [shards[s] for s in sender_list]
        lens = np.fromiter((s.size for s in snap), np.int64, senders.size)
        entries = lens
        if initiating or not config.avoid_known:
            counts = np.full(senders.size, n_ranks - 1, dtype=np.int64)
            cand: object = _SparseComplementCandidates(
                n_ranks, senders, None, None, None, template
            )
        else:
            counts, cand = _fast_candidates(
                n_ranks, senders, snap, lens, template, member_kernel, enc, dec
            )

        want = np.minimum(fanout, counts)
        row_idx, targets = _sample_packed_rows(rng, cand, counts, want, n_ranks)
        if targets.size == 0:
            break
        n = int(targets.size)
        result.n_messages += n
        result.bytes_sent += n * HEADER_BYTES + ENTRY_BYTES * int(
            entries[row_idx].sum()
        )
        result.per_round_messages[-1] = n
        result.inter_node_messages += int(
            np.count_nonzero(targets // rpn != senders[row_idx] // rpn)
        )
        # Merge. Complete receivers and receivers whose every payload
        # *is* their own shard object are skipped wholesale (the union
        # cannot change their set); only the rest run a real merge,
        # with the "lowest" trim fused in as a truncation.
        order = np.argsort(targets, kind="stable")
        targets_sorted = targets[order]
        sources_sorted = row_idx[order]
        receivers, starts = np.unique(targets_sorted, return_index=True)
        bounds = np.append(starts, targets_sorted.size)
        recv_list = receivers.tolist()
        own_ids = np.fromiter(
            (id(shards[r]) for r in recv_list), np.int64, receivers.size
        )
        payload_ids = np.fromiter(
            (id(s) for s in snap), np.int64, senders.size
        )[sources_sorted]
        group_sizes = np.diff(bounds)
        is_own = payload_ids == np.repeat(own_ids, group_sizes)
        open_recv = ~np.logical_and.reduceat(is_own, bounds[:-1])
        if complete is not None:
            open_recv &= ~complete[receivers]
        active = np.flatnonzero(open_recv)
        bounds_list = bounds.tolist()
        src_list = sources_sorted.tolist()
        for i in active.tolist():
            r = recv_list[i]
            own = shards[r]
            own_id = id(own)
            parts: list[np.ndarray] = []
            seen = [own_id]
            for j in range(bounds_list[i], bounds_list[i + 1]):
                p = snap[src_list[j]]
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
            elif merge_kernel is not None and len(parts) == 1:
                b = parts[0]
                need = own.size + b.size
                if merge_buf.size < need:
                    merge_buf = np.empty(need, dtype=merge_buf.dtype)
                k = merge_kernel(own, b, merge_buf)
                if fused_trim and k > cap:
                    k = cap
                merged = interner.canon(merge_buf[:k].copy())
            else:
                merged = np.concatenate([own, *parts])
                # In-place sort + adjacency dedup == np.unique, minus
                # the per-call overhead (see the reference driver).
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
        if not fused_trim:
            _trim_rows_sparse(
                know, receivers, result.load_snapshot, config, rng, interner
            )
        initiating = False
        senders = receivers
        if senders.size == 0:  # pragma: no cover - targets imply receivers
            break
    if fused_trim:
        # Decode priority-space shards back to sorted rank ids, one
        # conversion per distinct object. The dict pins the encoded
        # key arrays so object ids cannot be recycled mid-decode.
        decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for r in range(n_ranks):
            s = shards[r]
            hit = decoded.get(id(s))
            if hit is not None and hit[0] is s:
                shards[r] = hit[1]
                continue
            d = dec[s].astype(id_dtype)
            d.sort()
            decoded[id(s)] = (s, d)
            shards[r] = d
