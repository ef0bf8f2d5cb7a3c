"""Per-rank partial knowledge of underloaded ranks (the sets ``S^p``),
at rest and while the inform stage runs.

:mod:`repro.core.gossip` decides *what* Algorithm 1 does: who sends,
to how many and to whom, what a message costs, which messages a fault
loses. This module decides *how* ``S^p`` is laid out — the bit and
shard formats, the per-round working representation, the trims and
the candidate views — and nothing outside it touches a bit or a shard.

Two *containers* hold a finished stage, sharing ``add`` /
``merge_many`` / ``known`` / ``known_many`` / ``knows_any`` /
``equal_sets`` / ``counts`` / ``coverage`` / ``rows`` /
``memory_bytes``: :class:`PackedKnowledgeBitmap` (``P x ceil(P/8)``
bytes, ``np.packbits`` layout: O(P^2) bits, 2 GiB at 2^17 ranks) and
:class:`SparseKnowledge` (a sorted ``int32`` shard per rank, immutable
by replacement: ~``4cP`` bytes under a cap of c, 268 MB at 2^17 ranks
and c=512).

Two *stores* are the round loop's working representation, behind five
methods (``snapshot`` / ``candidates`` / ``merge`` / ``trim`` /
``finish``); :func:`inform_store` builds the one its backend names,
seeded (each seed knows itself, Alg. 1 l.7), and the container follows
the store. :class:`_PackedStore` runs bit rows into a packed container
and :class:`_SparseStore` sorted id arrays into a sparse one, left in
``store.knowledge``; under a capped "lowest" trim both keep members in
(load, id) priority order, which makes the trim a prefix cut. Their
candidate views answer the sampler's only two queries,
``test(rows, draws)`` and ``extract(rows, exclude)`` (members as
``(row, rank id)`` pairs), for the same sets in the same order, so both
stores consume the same RNG stream and finish bit-identical.

Both stores keep one *complete-row* rule, flagged in ``store.complete``:
a row is complete when it holds every seed or, under a binding
"lowest" cap, the cap lowest priority positions. No payload can change
a complete row, so its receiver takes no merge.

One rank's ``S^p`` on its own is a packed row, private or a view into
a :class:`PackedKnowledgeBitmap`; the per-rank inform rule
(:class:`repro.core.gossip.RankInform`) touches it only through the
row helpers (:func:`add_bits` ... :func:`unknown_targets`).

The tests check everything here against plain Python ``set``s. Loads do
not change during an inform stage, so ``LOAD^p`` is simply the global
load snapshot restricted to ``S^p`` (see DESIGN.md § 5).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "PackedKnowledgeBitmap", "SparseKnowledge", "inform_store", "keep_first_bits",
    "add_bits", "ids_to_row", "merge_row", "row_count", "row_ids", "unknown_targets",
]

#: Rank ids in a shard.
_ID_DTYPE = np.int32
#: Bytes of rows (packed, unpacked or ``float64`` keys: a pass's widest; at least one row)
#: the merge, the trims, ``finish()`` and the popcounts hold at once, so a round holds its
#: snapshot plus O(chunk), not a matrix a pass (128 MiB at 2^15 ranks). Passes are per
#: row, and row-chunked ``rng.random`` draws the same stream: results are unchanged.
_CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# The bit layout: rank q of a row lives in byte q >> 3, bit 128 >> (q & 7).
# ---------------------------------------------------------------------------


def _bits(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(byte index, bit value) for each rank id, big bit order."""
    ids = np.asarray(ids, dtype=np.int64)
    return ids >> 3, (np.uint8(128) >> (ids & 7).astype(np.uint8))


def _or_bits(matrix: np.ndarray, rows, ids: np.ndarray) -> None:
    """Set bit ``ids[i]`` in ``matrix[rows[i]]`` (duplicate-safe: several
    ids can share a byte, where a fancy ``|=`` would keep only one)."""
    byte, bit = _bits(ids)
    np.bitwise_or.at(matrix, (rows, byte), bit)


def _clear_bits(matrix: np.ndarray, rows, ids: np.ndarray) -> None:
    """Clear bit ``ids[i]`` in ``matrix[rows[i]]`` (duplicate-safe)."""
    byte, bit = _bits(ids)
    np.bitwise_and.at(matrix, (rows, byte), ~bit)


def _leading_ones(n_bits: int) -> np.ndarray:
    """A packed row of ``ceil(n_bits / 8)`` bytes whose first ``n_bits``
    bits are set and whose padding bits are clear."""
    return np.packbits(np.ones(n_bits, dtype=bool))


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of every set bit of a packed matrix, row-major
    (rows ascending, columns sorted in-row), expanded from the nonzero
    bytes only — cheap once rows are sparse."""
    nz_r, nz_b = np.nonzero(packed)
    br, bc = np.nonzero(np.unpackbits(packed[nz_r, nz_b, None], axis=1))
    return nz_r[br], nz_b[br] * 8 + bc


def _chunks(n_rows: int, row_bytes: int):
    """Slices cutting ``n_rows`` rows of ``row_bytes`` bytes into chunks."""
    step = max(1, _CHUNK_BYTES // max(1, row_bytes))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _popcounts(rows: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """Row popcounts of ``rows`` (``rows[at]``) a chunk at a time, of whole 64-bit words if any."""
    out = np.empty(rows.shape[0] if at is None else at.size, dtype=np.int64)
    for part in _chunks(out.size, rows.shape[1]):
        chunk = rows[part] if at is None else rows[at[part]]
        if chunk.shape[1] % 8 == 0 and chunk.flags.c_contiguous:
            chunk = chunk.view(np.uint64)
        np.bitwise_count(chunk).sum(axis=1, dtype=np.int64, out=out[part])
    return out


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Run bounds ``[0, c0, c0 + c1, ...]`` of consecutive runs of ``counts``."""
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _coverage_denominator(underloaded: np.ndarray) -> int:
    """``|U|`` for a boolean mask or an array of rank ids."""
    if underloaded.dtype == bool:
        return int(np.count_nonzero(underloaded))
    return len(underloaded)


#: ``_KEEP_FIRST[v, k]``: byte ``v`` with only its first ``k`` set bits
#: (big bit order, as ``np.packbits`` lays them out) kept.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_KEEP_FIRST = np.packbits(
    _BYTE_BITS[:, None, :]
    & (np.cumsum(_BYTE_BITS, axis=1)[:, None, :] <= np.arange(9)[None, :, None]),
    axis=2,
)[:, :, 0]


def keep_first_bits(rows: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut each bit row to its first ``cap`` set bits, in place — on
    priority-ordered rows, the "lowest" trim.

    One popcount per 64-bit word and a cumulative sum locate the word
    in which the ``cap``-th bit falls; later words are zeroed, and the
    same search over that word's 8 bytes finds the crossing byte, which
    is masked through :data:`_KEEP_FIRST`: O(P/64) per row. ``rows`` is
    C-contiguous, its width a multiple of 8 bytes. Returns ``(set bits
    per row before the cut, indices of the rows cut)``.
    """
    words = rows.view(np.uint64)
    per_word = np.bitwise_count(words)
    cum = np.cumsum(per_word, axis=1, dtype=np.int32)
    over = np.flatnonzero(cum[:, -1] > cap)
    if over.size:
        idx = np.arange(over.size)
        word = (cum[over] < cap).sum(axis=1)  # where the cap-th bit falls
        need = cap - (cum[over, word] - per_word[over, word])  # 1..64 kept in it
        tail = words[over]
        tail[np.arange(words.shape[1])[None, :] > word[:, None]] = 0
        words[over] = tail
        cols = 8 * word[:, None] + np.arange(8)
        octet = rows[over[:, None], cols]
        per_byte = np.bitwise_count(octet)
        bcum = np.cumsum(per_byte, axis=1, dtype=np.int64)
        byte = (bcum < need[:, None]).sum(axis=1)
        keep = need - (bcum[idx, byte] - per_byte[idx, byte])  # 1..8
        octet[np.arange(8)[None, :] > byte[:, None]] = 0
        octet[idx, byte] = _KEEP_FIRST[octet[idx, byte], keep]
        rows[over[:, None], cols] = octet
    return cum[:, -1], over


def _priority_order(loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(enc, dec)``: each rank's position in the stable (load, id)
    sort — the order whose first ``cap`` members the "lowest" trim
    keeps — and the inverse map, position -> rank."""
    dec = np.argsort(loads, kind="stable")
    enc = np.empty(loads.size, dtype=np.int64)
    enc[dec] = np.arange(loads.size)
    return enc, dec


# ---------------------------------------------------------------------------
# One rank's row, for the per-rank inform rule.
# ---------------------------------------------------------------------------


def add_bits(row: np.ndarray, ids) -> None:
    """Set the bits of rank id(s) ``ids`` in one packed row, in place."""
    byte, bit = _bits(np.atleast_1d(ids))
    np.bitwise_or.at(row, byte, bit)


def merge_row(row: np.ndarray, other: np.ndarray) -> None:
    """OR packed row ``other`` into ``row``, in place: ``S |= S'``."""
    np.bitwise_or(row, other, out=row)


def ids_to_row(ids: np.ndarray, n_ranks: int) -> np.ndarray:
    """A new packed row holding the rank ids ``ids`` (duplicates allowed)."""
    mask = np.zeros(n_ranks, dtype=bool)
    mask[ids] = True
    return np.packbits(mask)


def row_ids(row: np.ndarray, n_ranks: int) -> np.ndarray:
    """The members of one packed row as a sorted ``int64`` id array."""
    return np.flatnonzero(np.unpackbits(row, count=n_ranks).view(bool))


def row_count(row: np.ndarray) -> int:
    """``|S|``: the popcount of one packed row."""
    return int.from_bytes(row.tobytes(), "little").bit_count()


def unknown_targets(row: np.ndarray, rank: int, n_ranks: int) -> np.ndarray:
    """``P \\ S^p`` minus ``rank`` itself, sorted: the forward candidates of
    Alg. 1 l.20. The padding bits past ``n_ranks`` never surface."""
    mask = np.unpackbits(row, count=n_ranks).view(bool)
    np.logical_not(mask, out=mask)
    mask[rank] = False
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# Containers.
# ---------------------------------------------------------------------------


class PackedKnowledgeBitmap:
    """Knowledge sets ``S^p`` bit-packed: ``P x ceil(P/8)`` uint8 bytes.

    Rank ``p`` knows rank ``q`` is underloaded iff bit ``q`` of row
    ``p`` is set; rows are ``np.packbits`` bit rows (big bit order: rank
    ``q`` lives in byte ``q >> 3``, bit value ``128 >> (q & 7)``).
    :meth:`merge_many` takes a *packed* row. The :attr:`rows` property
    unpacks the full boolean matrix for analysis/test code — it is a
    read-only copy, never a view.

    Memory is ``P * ceil(P/8)`` bytes plus O(P) object overhead
    (32768 ranks: 128 MiB).
    """

    __slots__ = ("n_ranks", "n_bytes", "packed")

    def __init__(self, n_ranks: int) -> None:
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        self.n_bytes = (self.n_ranks + 7) >> 3
        self.packed = np.zeros((self.n_ranks, self.n_bytes), dtype=np.uint8)

    # -- knowledge-store API ------------------------------------------------

    def add(self, rank: int, members: np.ndarray | list[int]) -> None:
        """Add ``members`` to ``S^rank``."""
        _or_bits(self.packed, rank, members)

    def merge_many(self, dsts: int | np.ndarray, src_row: np.ndarray) -> None:
        """Merge one packed row (:meth:`row`) into one destination or
        several at once."""
        self.packed[dsts] |= src_row

    def row(self, rank: int) -> np.ndarray:
        """``S^rank``'s packed row, live: a view that the row helpers
        (:func:`merge_row`, :func:`add_bits`) write through."""
        return self.packed[rank]

    def known(self, rank: int) -> np.ndarray:
        """``S^rank`` as a sorted array of rank ids."""
        return row_ids(self.packed[rank], self.n_ranks)

    def known_many(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``S^r`` for each of ``ranks`` at once: the sorted id arrays
        :meth:`known` returns, concatenated, and the ``len(ranks) + 1``
        bounds of each rank's run. Unpacks ``len(ranks) x P`` bytes."""
        if len(ranks) == 1:
            ids = self.known(ranks[0])
            return ids, np.array([0, ids.size])
        unpacked = np.unpackbits(self.packed[ranks], axis=1, count=self.n_ranks).view(bool)
        counts = np.count_nonzero(unpacked, axis=1)
        starts = np.arange(0, unpacked.size, self.n_ranks)
        ids = np.flatnonzero(unpacked) - np.repeat(starts, counts)
        return ids, _bounds(counts)

    def knows_any(self, ranks: np.ndarray, members: np.ndarray) -> bool:
        """Whether any of ``ranks`` knows a rank of the boolean mask
        ``members``: one OR of their rows, ANDed with the packed mask."""
        union = np.bitwise_or.reduce(self.packed[ranks], axis=0)
        return bool((union & np.packbits(members)).any())

    def equal_sets(self, ranks: np.ndarray) -> list[int]:
        """For each of ``ranks``, the position in ``ranks`` of the first
        rank whose ``S^r`` equals its own: rows keyed by their bytes (a
        dict compares keys whose hashes collide)."""
        first: dict[bytes, int] = {}
        packed = self.packed
        return [first.setdefault(packed[r].tobytes(), i) for i, r in enumerate(ranks.tolist())]

    def counts(self) -> np.ndarray:
        """``|S^p|`` for every rank ``p`` (vectorized popcount)."""
        return _popcounts(self.packed)

    def discard_members(self, ranks: np.ndarray) -> None:
        """Remove ``ranks`` from every ``S^p`` (bit-column clear).

        Used when membership changes: a crashed or suspected rank must
        stop being a transfer candidate everywhere, even if gossip
        already spread knowledge of it.
        """
        mask = np.full((1, self.n_bytes), 0xFF, dtype=np.uint8)
        _clear_bits(mask, 0, ranks)
        self.packed &= mask

    def coverage(self, underloaded: np.ndarray) -> float:
        """Mean fraction of the underloaded set each rank knows.

        Used by the gossip-convergence analysis: with ``k >= log_f P``
        rounds this approaches 1 with high probability. ``underloaded``
        may be a boolean mask or an array of rank ids. Computed without
        unpacking: AND the rows with the packed underloaded mask and
        popcount the intersection, a chunk of rows at a time.
        """
        n_under = _coverage_denominator(underloaded)
        if n_under == 0:
            return 1.0
        if underloaded.dtype == bool:
            packed_mask = np.packbits(underloaded)
        else:
            packed_mask = ids_to_row(underloaded, self.n_ranks)
        hits = 0
        for part in _chunks(self.n_ranks, self.n_bytes):
            hits += int(_popcounts(self.packed[part] & packed_mask).sum())
        return hits / self.n_ranks / n_under

    @property
    def rows(self) -> np.ndarray:
        """The full boolean matrix, unpacked on demand (read-only copy).

        For analysis and test code; mutations must go through the
        methods, so the copy is marked non-writeable.
        """
        out = np.unpackbits(self.packed, axis=1, count=self.n_ranks).view(bool)
        out.flags.writeable = False
        return out

    def memory_bytes(self) -> int:
        """Bytes held by the packed matrix (the ``P^2/8`` bound)."""
        return int(self.packed.nbytes)


class SparseKnowledge:
    """Knowledge sets ``S^p`` as per-rank sorted ``int32`` id shards.

    Same semantics as :class:`PackedKnowledgeBitmap`, but each rank's
    set is a sorted, duplicate-free array of member rank ids instead of
    a row of P bits. :meth:`merge_many` takes a sorted id array; the
    :attr:`rows` property materializes the boolean matrix for
    analysis/test code (read-only copy — only sensible at small rank
    counts).

    Shard arrays are treated as immutable: every mutation *replaces* a
    rank's shard, so references handed out earlier (e.g. a gossip
    round's payload snapshot) stay valid. Memory is O(sum |S^p|) plus
    O(P) list overhead — with the inform stage's ``max_known`` cap this
    is what makes 2^17-rank episodes fit in a laptop's RAM (131072
    ranks, cap 512: ~268 MB of shards vs 2 GiB bit-packed).
    """

    __slots__ = ("n_ranks", "shards")

    def __init__(self, n_ranks: int) -> None:
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        self.shards: list[np.ndarray] = [np.empty(0, dtype=_ID_DTYPE)] * self.n_ranks

    # -- knowledge-store API ------------------------------------------------

    def add(self, rank: int, members: np.ndarray | list[int]) -> None:
        """Add ``members`` to ``S^rank``."""
        ids = np.asarray(members, dtype=_ID_DTYPE)
        if ids.size:
            self.shards[rank] = np.union1d(self.shards[rank], ids)

    def merge_many(self, dsts: np.ndarray, src_ids: np.ndarray) -> None:
        """Merge one id shard into several destinations at once."""
        ids = np.asarray(src_ids, dtype=_ID_DTYPE)
        for dst in np.asarray(dsts, dtype=np.int64).tolist():
            self.shards[dst] = np.union1d(self.shards[dst], ids)

    def known(self, rank: int) -> np.ndarray:
        """``S^rank`` as a sorted array of rank ids."""
        return self.shards[rank].astype(np.int64)

    def known_many(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``S^r`` for each of ``ranks`` at once: the sorted id arrays
        :meth:`known` returns, concatenated, and the ``len(ranks) + 1``
        bounds of each rank's run."""
        shards = [self.shards[r] for r in np.asarray(ranks).tolist()]
        counts = np.fromiter((s.size for s in shards), dtype=np.int64, count=len(shards))
        ids = np.concatenate(shards) if shards else np.empty(0, dtype=_ID_DTYPE)
        return ids.astype(np.int64), _bounds(counts)

    def knows_any(self, ranks: np.ndarray, members: np.ndarray) -> bool:
        """Whether any of ``ranks`` knows a rank of the boolean mask
        ``members``."""
        return any(members[self.shards[r]].any() for r in np.asarray(ranks).tolist())

    def equal_sets(self, ranks: np.ndarray) -> list[int]:
        """As :meth:`PackedKnowledgeBitmap.equal_sets`: shards by object
        first (complete rows share one decode), then by their bytes."""
        shards = [self.shards[r] for r in np.asarray(ranks).tolist()]
        by_object: dict[int, int] = {}
        by_bytes: dict[bytes, int] = {}
        for i, shard in enumerate(shards):
            if id(shard) not in by_object:
                by_object[id(shard)] = by_bytes.setdefault(shard.tobytes(), i)
        return [by_object[id(shard)] for shard in shards]

    def counts(self) -> np.ndarray:
        """``|S^p|`` for every rank ``p``."""
        return np.fromiter(
            (s.size for s in self.shards), dtype=np.int64, count=self.n_ranks
        )

    def coverage(self, underloaded: np.ndarray) -> float:
        """Mean fraction of the underloaded set each rank knows.

        One flat pass over the *distinct* shard objects: concatenate
        them, test membership against the underloaded mask, segment-sum
        the hits per shard (differences of one cumulative sum) and
        expand to ranks.
        """
        n_under = _coverage_denominator(underloaded)
        if n_under == 0:
            return 1.0
        if underloaded.dtype == bool:
            mask = np.asarray(underloaded, dtype=bool)
        else:
            mask = np.zeros(self.n_ranks, dtype=bool)
            mask[underloaded] = True
        # Converged ranks share one array object (the inform stage hands
        # every complete rank the same one): count once per object.
        ids = np.fromiter(map(id, self.shards), dtype=np.int64, count=self.n_ranks)
        _, first, holder = np.unique(ids, return_index=True, return_inverse=True)
        distinct = [self.shards[i] for i in first.tolist()]
        lens = np.fromiter((s.size for s in distinct), np.int64, len(distinct))
        if int(lens.sum()) == 0:
            return 0.0
        flat = np.concatenate(distinct)
        hits = np.concatenate(([0], np.cumsum(mask[flat], dtype=np.int64)))
        ends = np.cumsum(lens)
        per_shard = hits[ends] - hits[ends - lens]
        return float(per_shard[holder].mean() / n_under)

    @property
    def rows(self) -> np.ndarray:
        """The full boolean matrix, materialized (read-only copy).

        O(P^2) — for analysis and tests at small rank counts only.
        """
        out = np.zeros((self.n_ranks, self.n_ranks), dtype=bool)
        for p, shard in enumerate(self.shards):
            out[p, shard] = True
        out.flags.writeable = False
        return out

    def memory_bytes(self) -> int:
        """Bytes actually held by the shard arrays, counted per distinct
        array *object*: the inform stage hands every complete rank the
        same shard, so thousands of ranks may reference one array."""
        return int(sum({id(s): s.nbytes for s in self.shards}.values()))


# ---------------------------------------------------------------------------
# The inform stage's stores.
# ---------------------------------------------------------------------------


def inform_store(
    backend: str,
    n_ranks: int,
    seeds: np.ndarray,
    cap: int | None,
    trim_policy: str,
    loads: np.ndarray,
    rng: np.random.Generator,
    ranks_per_node: int = 1,
) -> "_PackedStore | _SparseStore":
    """The working representation of one inform stage, seeded: bit rows
    for ``backend="packed"``, sorted id arrays for ``"sparse"``. Each
    store's ``finish()`` writes its own container; which one to run is
    :meth:`repro.core.gossip.GossipConfig.resolve_knowledge`'s rule."""
    if backend == "packed":
        return _PackedStore(n_ranks, seeds, cap, trim_policy, loads, rng, ranks_per_node)
    return _SparseStore(n_ranks, seeds, cap, trim_policy, loads, rng)


class _PackedCandidates:
    """Candidate rows ``packed``, or — ``packed`` None — read off the
    snapshot rows ``snap``: their complement (all of P if ``snap`` is
    None) minus each sender's own bit ``pos[i]``. ``extract`` complements
    the rows asked for; the whole complement (:attr:`packed`) is built
    only for :meth:`clear` or :meth:`_PackedStore.same_node`.

    With ``enc`` (the rank -> bit position map of priority-ordered
    rows; see :class:`_PackedStore`) rank ids are looked up at bit
    ``enc[id]`` and ``extract`` gathers the columns back, so the exact
    sampler keys the same candidates in the same order either way.
    """

    __slots__ = ("_packed", "enc", "snap", "pos", "template")

    def __init__(self, packed, enc=None, snap=None, pos=None, template=None) -> None:
        self._packed, self.enc = packed, enc
        self.snap, self.pos, self.template = snap, pos, template

    @property
    def packed(self) -> np.ndarray:
        """Every row's packed candidates, built on first use."""
        if self._packed is None:
            self._packed = self._complement(np.arange(self.pos.size))
        return self._packed

    def _complement(self, rows: np.ndarray) -> np.ndarray:
        """Candidate rows ``rows`` off the snapshot, padding and self bits clear."""
        if self.snap is None:
            out = np.repeat(self.template[None, :], rows.size, axis=0)
        else:
            out = self.snap[rows]
            np.invert(out, out=out)
            out[:, -1] &= self.template[-1]
        _clear_bits(out, np.arange(rows.size), self.pos[rows])
        return out

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        if self.enc is not None:
            draws = self.enc[draws]
        packed = self.snap if self._packed is None else self._packed
        if packed is None:  # all of P but self
            return draws != self.pos[rows][:, None]
        # One flat gather of each draw's byte; shifting its bit up to
        # the top of the uint8 leaves the rest to wrap away.
        at = draws >> 3
        at += (rows * packed.shape[1])[:, None]
        byte = packed.ravel()[at]
        byte <<= (draws & 7).astype(np.uint8)
        if self._packed is not None:
            return byte >= 128
        return (byte < 128) & (draws != self.pos[rows][:, None])

    def clear(self, rows: np.ndarray, ids: np.ndarray) -> None:
        """Drop rank ``ids[i]`` from candidate row ``rows[i]``."""
        _clear_bits(self.packed, rows, ids if self.enc is None else self.enc[ids])

    def extract(
        self, rows: np.ndarray, exclude: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(i, rank id)`` of every candidate of ``rows[i]``, rank ids
        ascending within each row, minus the ``exclude`` pairs."""
        sel = self._complement(rows) if self._packed is None else self._packed[rows]
        if self.enc is not None:
            bools = np.unpackbits(sel, axis=1, count=self.enc.size)
            sel = np.packbits(bools[:, self.enc], axis=1)
        if exclude is not None:
            _clear_bits(sel, *exclude)
        return _set_bits(sel)


class _PackedStore:
    """Round-loop adapter over the bit rows of ``knowledge``.

    The gathered sender rows are the round's send buffer and its one
    whole-round copy; candidates are read off their bits, and merges,
    trims and ``finish`` walk :data:`_CHUNK_BYTES` chunks of rows. A
    *complete* row can grow no further, so its receiver takes no part
    in merge for the rest of the stage: in either order, one holding
    every seed — rows hold nothing else — flagged by :meth:`snapshot`
    from the popcount it takes anyway (never, while a cap below the seed
    count binds: trimmed rows hold at most ``cap``).

    **Rank order** (uncapped, or the "random" trim, whose RNG keys are
    drawn per rank-ordered column): bit ``q`` is rank ``q`` and
    ``finish`` is a no-op.

    **Priority order** (capped "lowest" trim): bit ``j`` is the rank at
    position ``j`` of the stable (load, id) sort (``dec[j]``; ``enc``
    is the inverse). The cap lowest members are a row's first ``cap``
    set bits, so the trim is a prefix cut (:func:`keep_first_bits`), and a
    row equal to ``{0..cap-1}`` is complete too: no payload can
    displace a member. Self bits, candidate views and the same-node
    views go through ``enc``; ``finish`` decodes rows to rank order.
    """

    def __init__(
        self,
        n_ranks: int,
        seeds: np.ndarray,
        cap: int | None,
        trim_policy: str,
        loads: np.ndarray,
        rng: np.random.Generator,
        ranks_per_node: int = 1,
    ) -> None:
        self.n_ranks = n_ranks
        self.cap = cap
        self.rng = rng
        self.ranks_per_node = ranks_per_node
        self.node_masks: np.ndarray | None = None
        self.knowledge = PackedKnowledgeBitmap(n_ranks)
        self.rows = self.knowledge.packed
        #: All-ones candidate row with the padding bits already clear.
        self.template = _leading_ones(n_ranks)
        self.enc: np.ndarray | None = None
        self.dec: np.ndarray | None = None
        self.n_seeds = seeds.size
        self.complete = np.zeros(n_ranks, dtype=bool)
        if cap is None or trim_policy != "lowest":
            _or_bits(self.rows, seeds, seeds)
            return
        self.enc, self.dec = _priority_order(loads)
        #: |complete row| and its leading bytes: {0..cap-1}, or all of P.
        self.full = min(cap, n_ranks)
        self.head = _leading_ones(self.full)
        pos = self.enc[seeds]
        _or_bits(self.rows, seeds, pos)
        # A seed's row {p} is complete only if the cap keeps one member
        # and p comes first.
        self.complete[seeds] = (pos == 0) & (self.full == 1)

    def snapshot(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payload rows (a gather, hence a copy) and their ``|S^p|``;
        a sender that holds every seed is flagged complete."""
        snap = self.rows[senders]
        entries = _popcounts(snap)
        self.complete[senders[entries == self.n_seeds]] = True
        return snap, entries

    def candidates(
        self, senders: np.ndarray, snap: np.ndarray, entries: np.ndarray, full: bool
    ) -> tuple[np.ndarray, _PackedCandidates]:
        """``(counts, candidate view)``: all of P when ``full``, else
        ``P \\ S^p``; never the sender itself. The view reads ``snap``."""
        pos = senders if self.enc is None else self.enc[senders]
        if full:
            counts = np.full(senders.size, self.n_ranks - 1, dtype=np.int64)
        else:
            # |P \ S^p \ {p}| without a second popcount: subtract |S^p|
            # (= `entries`, needed for accounting anyway) and the self
            # bit when it is not already a member of S^p.
            byte, bit = _bits(pos)
            counts = self.n_ranks - entries - ((snap[np.arange(senders.size), byte] & bit) == 0)
        return counts, _PackedCandidates(None, self.enc, None if full else snap, pos, self.template)

    def same_node(
        self, senders: np.ndarray, cand: _PackedCandidates
    ) -> tuple[np.ndarray, _PackedCandidates]:
        """``(counts, view)`` of the part of ``cand`` on each sender's
        own node — the ``intra_node_bias`` pool."""
        rpn = self.ranks_per_node
        if self.node_masks is None:
            # Bit j of a row stands for rank j, or for rank dec[j].
            node_of = np.arange(self.n_ranks) // rpn
            bit_node = node_of if self.dec is None else node_of[self.dec]
            self.node_masks = np.stack(
                [np.packbits(bit_node == node) for node in range(int(node_of[-1]) + 1)]
            )
        local = cand.packed & self.node_masks[senders // rpn]
        counts = _popcounts(local)
        return counts, _PackedCandidates(local, cand.enc)

    def merge(
        self, receivers: np.ndarray, bounds: np.ndarray, payloads: np.ndarray, src: np.ndarray
    ) -> None:
        # Receivers still growing, by descending group size, a chunk at a
        # time: the j-th payloads (of the chunk's receivers with more than
        # j) OR into a prefix of the chunk's buffer.
        sizes = np.diff(bounds)
        todo = np.flatnonzero(~self.complete[receivers])
        todo = todo[np.argsort(-sizes[todo], kind="stable")]
        receivers, starts, sizes = receivers[todo], bounds[todo], sizes[todo]
        for part in _chunks(todo.size, self.rows.shape[1]):
            at, size = starts[part], sizes[part]
            buf = payloads[src[at]]
            prefix = np.searchsorted(-size, -np.arange(1, size[0]))
            for j, m in enumerate(prefix.tolist(), 1):
                buf[:m] |= payloads[src[at[:m] + j]]
            self.rows[receivers[part]] |= buf

    def trim(self, receivers: np.ndarray) -> None:
        cap = self.cap
        if cap is None or receivers.size == 0:
            return
        rows = self.rows
        width = rows.shape[1]
        if self.enc is not None:
            receivers = receivers[~self.complete[receivers]]
            for part in _chunks(receivers.size, width):
                chunk = receivers[part]
                sub = rows[chunk]
                if width % 8:  # keep_first_bits reads whole 64-bit words
                    sub = np.pad(sub, ((0, 0), (0, -width % 8)))
                counts, over = keep_first_bits(sub, cap)
                rows[chunk[over]] = sub[over, :width]
                full = np.flatnonzero(counts >= self.full)
                at_head = sub[full, : self.head.size] == self.head
                self.complete[chunk[full]] = at_head.all(axis=1)
            return
        # "random": a uniform cap-subset of each over-cap row, keyed per
        # rank-ordered column.
        n = self.n_ranks
        over = receivers[_popcounts(rows, receivers) > cap]
        for part in _chunks(over.size, 8 * n):
            chunk = over[part]
            bools = np.unpackbits(rows[chunk], axis=1, count=n).view(bool)
            keys = self.rng.random(bools.shape)
            keys[~bools] = np.inf
            keep = np.argpartition(keys, cap, axis=1)[:, :cap]
            trimmed = np.zeros(bools.shape, dtype=np.uint8)
            np.put_along_axis(trimmed, keep, 1, axis=1)
            rows[chunk] = np.packbits(trimmed, axis=1)

    def finish(self) -> None:
        """Decode priority rows to rank order in place: unpack, gather
        the columns back, re-pack. All complete rows share one decode."""
        if self.enc is None:
            return
        rows, n = self.rows, self.n_ranks
        done = np.flatnonzero(self.complete)
        todo = np.append(np.flatnonzero(~self.complete), done[:1])
        for part in _chunks(todo.size, n):
            chunk = todo[part]
            bools = np.unpackbits(rows[chunk], axis=1, count=n)
            rows[chunk] = np.packbits(np.take(bools, self.enc, axis=1), axis=1)
        rows[done] = rows[done[:1]]


class _SparseCandidates:
    """Candidate view ``P \\ (S^p u {p})`` over sorted shards, answering
    as :class:`_PackedCandidates` does.

    A draw is a candidate iff it is neither the sender nor in the
    sender's shard. Rows holding the store's complete shard (``whole``)
    test draws against one P-wide mask of it; the others look draws up
    with one ``searchsorted`` in the flat keys ``row * P + member`` (the
    row-major concatenation of sorted shards is globally sorted).
    ``counts`` is ``P - |S^p| - (p not in S^p)``, the packed store's.

    Priority-space shards (see :class:`_SparseStore`) come with ``enc``
    / ``dec``: draws are encoded for the flat lookup, and the mask and
    ``extract`` decode members back to rank ids.
    """

    def __init__(
        self,
        n_ranks: int,
        senders: np.ndarray,
        snap: "np.ndarray | list[np.ndarray]",
        lens: np.ndarray,
        template: np.ndarray,
        whole: np.ndarray | None,
        enc: np.ndarray | None,
        dec: np.ndarray | None,
    ) -> None:
        self.n_ranks, self.senders, self.snap, self.lens = n_ranks, senders, snap, lens
        self.template, self.enc, self.dec = template, enc, dec
        self.is_whole = np.fromiter((s is whole for s in snap), bool, senders.size)
        self.mask = np.zeros(n_ranks, dtype=bool)
        if self.is_whole.any():
            self.mask[whole if dec is None else dec[whole]] = True
        rest = np.flatnonzero(~self.is_whole)
        self.rest_pos = np.full(senders.size, -1, dtype=np.int64)
        self.rest_pos[rest] = np.arange(rest.size)
        members = [snap[i] for i in rest.tolist()] or [np.empty(0, dtype=_ID_DTYPE)]
        self.keys = np.repeat(np.arange(rest.size, dtype=np.int64) * n_ranks, lens[rest])
        self.keys += np.concatenate(members)
        knows_self = self.mask[senders]
        knows_self[rest] = self._hits(np.arange(rest.size), senders[rest][:, None])[:, 0]
        self.counts = n_ranks - lens - ~knows_self

    def _hits(self, at: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Whether rank id ``draws[i, j]`` is in the shard of flat row ``at[i]``."""
        keys = self.keys
        if not keys.size:  # empty shards only: the seeding round
            return np.zeros(draws.shape, dtype=bool)
        if self.enc is not None:
            draws = self.enc[draws]
        probe = (at[:, None] * np.int64(self.n_ranks) + draws).ravel()
        pos = np.searchsorted(keys, probe)
        return (keys[np.minimum(pos, keys.size - 1)] == probe).reshape(draws.shape)

    def test(self, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        ok = draws != self.senders[rows][:, None]
        whole = self.is_whole[rows]
        rest = slice(None)
        if whole.any():
            ok[whole] &= ~self.mask[draws[whole]]
            rest = ~whole
        ok[rest] &= ~self._hits(self.rest_pos[rows[rest]], draws[rest])
        return ok

    def extract(
        self, rows: np.ndarray, exclude: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """As :meth:`_PackedCandidates.extract`. The rare exact-sampler
        path (thin rows only): the packed complement from an all-ones
        template with the shard and self bits cleared; encoded members
        are decoded back to rank ids first."""
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
        if exclude is not None:
            _clear_bits(out, *exclude)
        return _set_bits(out)


class _SparseStore:
    """Round-loop adapter over the sorted ``int32`` shards of ``knowledge``.

    Nothing O(P) per sender is materialized, so a round costs in shard
    sizes (bounded by ``max_known``), not in ``P``. Every mutation
    *replaces* a shard, so a payload reference taken at round start — or
    held in the fault layer's late-delivery table — never sees a later
    merge.

    **Complete shards** follow :class:`_PackedStore`'s rule: a shard
    is complete when it holds every seed, or, under a binding "lowest"
    cap, the cap lowest priority positions ``{0..cap-1}``. Every
    complete shard is one array object, :attr:`whole`. A complete
    receiver takes no merge, a receiver handed a complete payload adopts
    it (their union, trimmed, is that payload), and complete rows test
    sampler draws against one P-wide mask (:class:`_SparseCandidates`).
    Under a binding "random" cap no shard completes (``whole`` is None).

    **Priority space** (capped "lowest" trim): shards hold positions
    ``enc[member]``, as the bit rows do, so the trim is a ``[:cap]`` cut
    fused into :meth:`merge`, and :meth:`finish` decodes shards to rank
    ids. The "random" trim keeps rank-id shards and draws its keys in
    :meth:`trim`, on the bit rows' stream.
    """

    def __init__(
        self,
        n_ranks: int,
        seeds: np.ndarray,
        cap: int | None,
        trim_policy: str,
        loads: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self.n_ranks = n_ranks
        self.cap = cap
        self.rng = rng
        self.knowledge = SparseKnowledge(n_ranks)
        self.template = _leading_ones(n_ranks)
        self.fused_trim = cap is not None and trim_policy == "lowest"
        self.enc: np.ndarray | None = None
        self.dec: np.ndarray | None = None
        members = seeds
        if self.fused_trim:
            # Loads are fixed for the stage: one permutation pair.
            self.enc, self.dec = _priority_order(loads)
            members = self.enc[seeds]
        #: The one object every complete shard holds; None where no shard
        #: can complete (no seeds, or a binding "random" cap).
        self.whole: np.ndarray | None = np.sort(members).astype(_ID_DTYPE)
        if cap is not None and cap < seeds.size:
            self.whole = np.arange(cap, dtype=_ID_DTYPE) if self.fused_trim else None
        if seeds.size == 0:
            self.whole = None
        self.complete = np.zeros(n_ranks, dtype=bool)
        for p, shard in zip(seeds.tolist(), members.astype(_ID_DTYPE).reshape(-1, 1)):
            self._put(p, shard)

    def _put(self, rank: int, shard: np.ndarray) -> None:
        """Store ``shard`` as ``S^rank``, as :attr:`whole` if complete.
        Size and last member decide: rows hold seeds only, and
        ``{0..cap-1}`` is the one sorted set of ``cap`` ids ending at
        ``cap - 1``."""
        whole = self.whole
        if whole is not None and shard.size == whole.size and shard[-1] == whole[-1]:
            shard = whole
            self.complete[rank] = True
        self.knowledge.shards[rank] = shard

    def snapshot(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payload shard references and their sizes."""
        shards = self.knowledge.shards
        n = senders.size
        snap = np.fromiter((shards[s] for s in senders.tolist()), object, n)
        return snap, np.fromiter((s.size for s in snap), np.int64, n)

    def candidates(
        self, senders: np.ndarray, snap: np.ndarray, lens: np.ndarray, full: bool
    ) -> tuple[np.ndarray, _SparseCandidates]:
        """``(counts, membership view)``: ``P \\ S^p`` minus self, or —
        when ``full`` — the same view over empty shards (all of P)."""
        if full:
            snap = [np.empty(0, dtype=_ID_DTYPE)] * senders.size
            lens = np.zeros(senders.size, dtype=np.int64)
        cand = _SparseCandidates(
            self.n_ranks, senders, snap, lens, self.template, self.whole, self.enc, self.dec
        )
        return cand.counts, cand

    def merge(
        self, receivers: np.ndarray, bounds: np.ndarray, payloads: np.ndarray, src: np.ndarray
    ) -> None:
        # A complete receiver takes no merge, and one handed a complete
        # payload adopts it: their union, trimmed, is that payload.
        shards, complete = self.knowledge.shards, self.complete
        payload_list = payloads.tolist()
        handed = np.fromiter((p is self.whole for p in payload_list), bool, len(payload_list))
        adopt = receivers[np.logical_or.reduceat(handed[src], bounds[:-1]) & ~complete[receivers]]
        for r in adopt.tolist():
            shards[r] = self.whole
        complete[adopt] = True
        # The rest union their payloads, the "lowest" trim fused in as a cut.
        cap = self.cap if self.fused_trim else None
        recv_list, bounds_list, src_list = receivers.tolist(), bounds.tolist(), src.tolist()
        for i in np.flatnonzero(~complete[receivers]).tolist():
            r = recv_list[i]
            parts = (payload_list[j] for j in src_list[bounds_list[i] : bounds_list[i + 1]])
            merged = np.concatenate([shards[r], *parts])
            # In-place sort + adjacent dedup: np.unique minus its per-call
            # overhead, which dominates rounds where every rank receives.
            merged.sort()
            keep = np.empty(merged.size, dtype=bool)
            keep[:1] = True
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
            merged = merged[keep]
            if cap is not None and merged.size > cap:
                merged = merged[:cap].copy()
            self._put(r, merged)

    def trim(self, receivers: np.ndarray) -> None:
        """The "random" ``max_known`` cap (the fused "lowest" one never
        gets here), bit-identical to the bit-row trim: the same survivor
        sets and the same RNG consumption (full-width key rows drawn in
        the same chunks — only member positions are ever *read*, but
        the stream must match draw for draw)."""
        cap = self.cap
        if self.fused_trim or cap is None or receivers.size == 0:
            return
        shards = self.knowledge.shards
        lens = np.fromiter((shards[r].size for r in receivers.tolist()), np.int64)
        over = receivers[lens > cap]
        for part in _chunks(over.size, 8 * self.n_ranks):
            chunk = over[part]
            keys = self.rng.random((chunk.size, self.n_ranks))
            for i, r in enumerate(chunk.tolist()):
                shard = shards[r]
                keep = shard[np.argpartition(keys[i, shard], cap - 1)[:cap]]
                keep.sort()
                shards[r] = keep

    def finish(self) -> None:
        """Decode priority-space shards to sorted rank ids; complete
        shards share one decode."""
        if not self.fused_trim:
            return

        def decode(shard: np.ndarray) -> np.ndarray:
            ids = self.dec[shard].astype(_ID_DTYPE)
            ids.sort()
            return ids

        shards = self.knowledge.shards
        whole = None if self.whole is None else decode(self.whole)
        for r, done in enumerate(self.complete.tolist()):
            shards[r] = whole if done else decode(shards[r])
