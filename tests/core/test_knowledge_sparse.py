"""Unit tests for SparseKnowledge — parity with plain sets.

The sparse shard representation must be observationally identical to a
list of Python ``set``s through the whole API while holding only
``O(sum |S^p|)`` bytes. A second battery runs both compact backends
(packed bits and sparse shards) through awkward rank counts — 1, 7 and
4097 — where byte padding, single-row matrices and partial last bytes
are most likely to leak.
"""

import numpy as np
import pytest

from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge, unknown_targets
from tests.core.oracles import member_sets, set_coverage


def _pair(n):
    return [set() for _ in range(n)], SparseKnowledge(n)


class TestSparseBasics:
    def test_initially_empty(self):
        k = SparseKnowledge(10)
        assert k.counts().sum() == 0
        assert k.known(3).size == 0

    def test_add_and_query(self):
        k = SparseKnowledge(12)
        k.add(0, [7, 1, 11, 8])
        assert list(k.known(0)) == [1, 7, 8, 11]  # sorted, deduped

    def test_add_empty_is_noop(self):
        k = SparseKnowledge(8)
        k.add(1, [])
        assert k.counts().sum() == 0

    def test_merge_is_union_of_shards(self):
        k = SparseKnowledge(10)
        k.add(0, [1])
        k.add(1, [2, 9])
        k.merge_many(np.array([0]), k.shards[1])
        assert list(k.known(0)) == [1, 2, 9]

    def test_shards_are_replaced_not_mutated(self):
        # The round-payload discipline: a reference taken before a merge
        # must still hold the pre-merge members afterwards.
        k = SparseKnowledge(10)
        k.add(0, [3])
        snapshot = k.shards[0]
        k.add(0, [5, 7])
        assert list(snapshot) == [3]
        assert list(k.known(0)) == [3, 5, 7]

    def test_coverage_matches_reference(self):
        rng = np.random.default_rng(7)
        ref, sparse = _pair(37)
        under = rng.random(37) < 0.4
        for rank in range(37):
            members = np.flatnonzero(rng.random(37) < 0.3)
            ref[rank] |= set(members.tolist())
            sparse.add(rank, members)
        ids = np.flatnonzero(under)
        for u in (under, ids):
            assert sparse.coverage(u) == pytest.approx(set_coverage(ref, u))
        assert sparse.coverage(np.zeros(37, dtype=bool)) == 1.0

    def test_coverage_counts_shared_shard_objects_once_per_rank(self):
        # The inform stage hands converged ranks one array object (and
        # views of one buffer to the rest); coverage() groups by object
        # and expands to ranks, which must read exactly as the per-rank
        # count — equal-valued but distinct arrays, views and empty
        # shards included.
        rng = np.random.default_rng(3)
        ref, sparse = _pair(41)
        shared = np.array([1, 4, 9, 30], dtype=np.int32)
        buffer = np.arange(41, dtype=np.int32)
        for rank in range(41):
            kind = rank % 4
            if kind == 0:
                shard = shared
            elif kind == 1:
                shard = shared.copy()  # equal values, another object
            elif kind == 2:
                lo = int(rng.integers(0, 30))
                shard = buffer[lo : lo + int(rng.integers(0, 10))]  # a view
            else:
                continue  # stays empty
            sparse.shards[rank] = shard
            ref[rank] = set(shard.tolist())
        under = rng.random(41) < 0.5
        for u in (under, np.flatnonzero(under)):
            assert sparse.coverage(u) == set_coverage(ref, u)
        np.testing.assert_array_equal(sparse.counts(), [len(s) for s in ref])

    def test_memory_is_sum_of_shards(self):
        k = SparseKnowledge(1000)
        assert k.memory_bytes() == 0
        k.add(0, [1, 2, 3])
        k.add(999, [0])
        assert k.memory_bytes() == 4 * np.dtype(np.int32).itemsize


class TestSparseParity:
    """Randomized API-level equivalence against the set reference."""

    def test_randomized_operations_match(self):
        rng = np.random.default_rng(42)
        n = 26
        ref, sparse = _pair(n)
        for _ in range(200):
            op = rng.integers(4)
            if op == 0:
                rank = int(rng.integers(n))
                members = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
                ref[rank] |= set(members.tolist())
                sparse.add(rank, members)
            elif op == 1:
                ranks = rng.choice(n, size=3, replace=False)
                for r in ranks.tolist():
                    ref[r].add(r)
                    sparse.add(r, [r])
            elif op == 2:
                src, dst = rng.choice(n, size=2, replace=False)
                ref[int(dst)] |= ref[int(src)]
                sparse.merge_many(np.array([dst]), sparse.shards[int(src)])
            else:
                src = int(rng.integers(n))
                dsts = rng.choice(n, size=2, replace=False)
                for d in dsts.tolist():
                    ref[d] = ref[d] | ref[src]
                sparse.merge_many(dsts, sparse.shards[src])
        assert member_sets(sparse) == ref
        assert sparse.counts().tolist() == [len(members) for members in ref]
        for rank in range(n):
            assert sparse.known(rank).tolist() == sorted(ref[rank])


def _payload(k, rank):
    """The row in whatever form the backend's merge expects."""
    return k.packed[rank] if isinstance(k, PackedKnowledgeBitmap) else k.shards[rank]


@pytest.mark.parametrize("backend", [PackedKnowledgeBitmap, SparseKnowledge])
@pytest.mark.parametrize("n", [1, 7, 4097])
class TestCompactBackendEdgeCounts:
    """Awkward rank counts for both compact backends.

    1 rank: every operation touches the only row; the packed byte has 7
    padding bits. 7 ranks: a single partial byte. 4097 ranks: one rank
    past a power of two, 513 bytes per packed row with 7 padding bits in
    the last.
    """

    def test_merge_many_unions_every_destination(self, backend, n):
        k = backend(n)
        members = [0] if n == 1 else [0, n - 1, n // 2]
        src = n - 1
        k.add(src, members)
        dsts = np.arange(n)[: min(n, 5)]
        k.merge_many(dsts, _payload(k, src))
        expect = sorted(set(members))
        for dst in dsts:
            assert list(k.known(int(dst))) == expect

    def test_rows_shape_and_content(self, backend, n):
        k = backend(n)
        k.add(0, [n - 1])
        if n > 1:
            k.add(n - 1, [0, n - 2])
        rows = k.rows
        assert rows.shape == (n, n) and rows.dtype == bool
        expect = np.zeros((n, n), dtype=bool)
        expect[0, n - 1] = True
        if n > 1:
            expect[n - 1, [0, n - 2]] = True
        np.testing.assert_array_equal(rows, expect)

    def test_no_padding_or_out_of_range_leakage(self, backend, n):
        # Fill every row completely: counts must cap at n, and no id
        # >= n (a padding bit, in the packed case) may ever surface.
        k = backend(n)
        everyone = np.arange(n)
        for rank in range(min(n, 9)):
            k.add(rank, everyone)
            assert k.counts()[rank] == n
            assert k.known(rank).max() == n - 1
            if backend is PackedKnowledgeBitmap:
                assert unknown_targets(k.row(rank), rank, n).size == 0
        # A merge of a full row must not overflow either.
        k.merge_many(np.arange(min(n, 3)), _payload(k, 0))
        assert k.counts().max() == n
        assert k.rows.sum() == min(n, 9) * n
