"""Per-rank partial knowledge of underloaded ranks (the sets ``S^p``).

During the inform stage, every rank accumulates a set of underloaded
ranks it has heard about, together with those ranks' (snapshot) loads.
At 2^12 ranks a Python ``set`` per rank makes the knowledge merge the
bottleneck, so the sets are stored in one of two array forms sharing
``add`` / ``add_self`` / ``merge_many`` / ``known`` / ``counts`` /
``coverage`` / ``rows`` / ``memory_bytes``:

:class:`PackedKnowledgeBitmap`
    A ``P x P`` membership matrix bit-packed into ``P x ceil(P/8)``
    uint8 bytes (``np.packbits`` layout, big bit order). Merges are
    byte-wise ORs, set sizes are ``np.bitwise_count`` popcounts
    (4096 ranks: 2.1 MB). Still O(P^2) bits — 2 GiB at 2^17 ranks.
    The event-level inform stage also reads ``unknown_targets`` and
    clears failed ranks with ``discard_members``.

:class:`SparseKnowledge`
    One sorted ``int32`` id shard per rank. Memory is O(sum |S^p|), so
    under a ``max_known`` cap of c it is ~``4cP`` bytes (131072 ranks,
    c=512: 268 MB vs 2 GiB packed). Rows exchanged by merges are id
    arrays rather than bit rows; ``GossipConfig(knowledge="auto")``
    selects this store at high rank counts. Shards are immutable by
    replacement, which is what lets the inform round loop (one loop
    over both stores, fault fates included) hold payload references.

The inform stage's bit-row store may keep its rows in (load, id)
*priority* order while it runs — :func:`keep_first_bits` is the prefix
cut that makes the "lowest" trim of such a row O(P/64) — and decodes
them into one of the two containers above when it finishes.

The tests check both against a plain list of Python ``set``s. Loads do
not change during an inform stage, so ``LOAD^p`` is simply the global
load snapshot restricted to ``S^p`` (see DESIGN.md § 5).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = ["PackedKnowledgeBitmap", "SparseKnowledge", "keep_first_bits"]


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

    # -- bit helpers --------------------------------------------------------

    @staticmethod
    def _bits(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(byte index, bit value) for each rank id, big bit order."""
        ids = np.asarray(ids, dtype=np.int64)
        return ids >> 3, (np.uint8(128) >> (ids & 7).astype(np.uint8))

    def _unpack_row(self, rank: int) -> np.ndarray:
        return np.unpackbits(self.packed[rank], count=self.n_ranks).view(bool)

    # -- knowledge-store API ------------------------------------------------

    def add(self, rank: int, members: np.ndarray | list[int]) -> None:
        """Add ``members`` to ``S^rank``."""
        members = np.asarray(members, dtype=np.int64)
        if members.size == 0:
            return
        byte, bit = self._bits(members)
        # Several members can land in the same byte; fancy |= would drop
        # all but one, so accumulate with a ufunc scatter.
        np.bitwise_or.at(self.packed[rank], byte, bit)

    def add_self(self, ranks: np.ndarray) -> None:
        """Seed each rank in ``ranks`` with knowledge of itself (Alg. 1 l.7)."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return
        byte, bit = self._bits(ranks)
        self.packed[ranks, byte] |= bit

    def merge_many(self, dsts: np.ndarray, src_row: np.ndarray) -> None:
        """Merge one packed row into several destinations at once."""
        self.packed[dsts] |= src_row

    def known(self, rank: int) -> np.ndarray:
        """``S^rank`` as a sorted array of rank ids."""
        return np.flatnonzero(self._unpack_row(rank))

    def counts(self) -> np.ndarray:
        """``|S^p|`` for every rank ``p`` (vectorized popcount)."""
        return np.bitwise_count(self.packed).sum(axis=1, dtype=np.int64)

    def unknown_targets(self, rank: int) -> np.ndarray:
        """``P \\ S^p`` minus self — candidate targets (Alg. 1 l.20)."""
        mask = ~self._unpack_row(rank)
        mask[rank] = False
        return np.flatnonzero(mask)

    def discard_members(self, ranks: np.ndarray) -> None:
        """Remove ``ranks`` from every ``S^p`` (bit-column clear).

        Used when membership changes: a crashed or suspected rank must
        stop being a transfer candidate everywhere, even if gossip
        already spread knowledge of it. Several discarded ranks can
        share a byte, so the clear mask is accumulated with a ufunc
        scatter before the single AND pass.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return
        byte, bit = self._bits(ranks)
        mask = np.full(self.n_bytes, 0xFF, dtype=np.uint8)
        np.bitwise_and.at(mask, byte, ~bit)
        self.packed &= mask

    def coverage(self, underloaded: np.ndarray) -> float:
        """Mean fraction of the underloaded set each rank knows.

        Used by the gossip-convergence analysis: with ``k >= log_f P``
        rounds this approaches 1 with high probability. ``underloaded``
        may be a boolean mask or an array of rank ids. Computed without
        unpacking: AND every row with the packed underloaded mask and
        popcount the intersection.
        """
        n_under = _coverage_denominator(underloaded)
        if n_under == 0:
            return 1.0
        if underloaded.dtype == bool:
            mask = np.asarray(underloaded, dtype=bool)
        else:
            mask = np.zeros(self.n_ranks, dtype=bool)
            mask[underloaded] = True
        packed_mask = np.packbits(mask)
        per_rank = np.bitwise_count(self.packed & packed_mask).sum(
            axis=1, dtype=np.int64
        )
        return float(per_rank.mean() / n_under)

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

    _ID_DTYPE = np.int32

    def __init__(self, n_ranks: int) -> None:
        check_positive("n_ranks", n_ranks)
        self.n_ranks = int(n_ranks)
        empty = np.empty(0, dtype=self._ID_DTYPE)
        self.shards: list[np.ndarray] = [empty] * self.n_ranks

    def _as_ids(self, members: np.ndarray | list[int]) -> np.ndarray:
        ids = np.asarray(members, dtype=self._ID_DTYPE)
        return ids

    # -- knowledge-store API ------------------------------------------------

    def add(self, rank: int, members: np.ndarray | list[int]) -> None:
        """Add ``members`` to ``S^rank``."""
        ids = self._as_ids(members)
        if ids.size == 0:
            return
        self.shards[rank] = np.union1d(self.shards[rank], ids)

    def add_self(self, ranks: np.ndarray) -> None:
        """Seed each rank in ``ranks`` with knowledge of itself (Alg. 1 l.7)."""
        ranks = np.asarray(ranks, dtype=np.int64)
        shards = self.shards
        for r in ranks.tolist():
            shard = shards[r]
            if shard.size == 0:
                shards[r] = np.array([r], dtype=self._ID_DTYPE)
            else:
                shards[r] = np.union1d(shard, np.array([r], dtype=self._ID_DTYPE))

    def merge_many(self, dsts: np.ndarray, src_ids: np.ndarray) -> None:
        """Merge one id shard into several destinations at once."""
        ids = self._as_ids(src_ids)
        for dst in np.asarray(dsts, dtype=np.int64).tolist():
            self.shards[dst] = np.union1d(self.shards[dst], ids)

    def known(self, rank: int) -> np.ndarray:
        """``S^rank`` as a sorted array of rank ids."""
        return self.shards[rank].astype(np.int64)

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
        """Bytes actually held by the shard arrays.

        Counted per distinct array *object*, not per rank: the inform
        stage interns converged shards, so thousands of ranks
        may reference one physical array. Summing ``nbytes`` per rank
        would report that storage once per referencing rank — at 4k
        ranks / cap 512 that inflated 8 MB of logical entries into the
        benchmark report when the resident footprint was a fraction of
        it.
        """
        seen: set[int] = set()
        total = 0
        for s in self.shards:
            key = id(s)
            if key not in seen:
                seen.add(key)
                total += s.nbytes
        return int(total)
