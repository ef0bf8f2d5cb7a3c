"""Unit tests for PackedKnowledgeBitmap — parity with plain sets.

The packed representation must be observationally identical to a list
of Python ``set``s through the whole knowledge-store API, while holding
only ``P x ceil(P/8)`` bytes.
"""

import math

import numpy as np
import pytest

from repro.core.knowledge import PackedKnowledgeBitmap, add_bits, unknown_targets
from tests.core.oracles import member_sets, set_coverage


def _pair(n):
    return [set() for _ in range(n)], PackedKnowledgeBitmap(n)


class TestPackedBasics:
    def test_initially_empty(self):
        k = PackedKnowledgeBitmap(10)
        assert k.counts().sum() == 0
        assert k.known(3).size == 0

    def test_add_and_query(self):
        k = PackedKnowledgeBitmap(12)
        k.add(0, [1, 7, 8, 11])
        assert list(k.known(0)) == [1, 7, 8, 11]

    def test_add_same_byte_members(self):
        # Ranks 0..7 share byte 0: a fancy |= would drop all but one,
        # the scatter must keep every bit.
        k = PackedKnowledgeBitmap(16)
        k.add(2, [0, 1, 2, 3, 4, 5, 6, 7])
        assert list(k.known(2)) == list(range(8))

    def test_add_empty_is_noop(self):
        k = PackedKnowledgeBitmap(8)
        k.add(1, [])
        assert k.counts().sum() == 0

    def test_add_self_seeds_diagonal(self):
        k = PackedKnowledgeBitmap(20)
        for rank in (1, 9, 17):
            add_bits(k.row(rank), rank)
        assert [r for r in range(20) if r in k.known(r)] == [1, 9, 17]
        np.testing.assert_array_equal(k.counts().sum(), 3)

    def test_merge_is_union_of_packed_rows(self):
        k = PackedKnowledgeBitmap(10)
        k.add(0, [1])
        k.add(1, [2, 9])
        k.merge_many(np.array([0]), k.packed[1])
        assert list(k.known(0)) == [1, 2, 9]

    def test_merge_many(self):
        k = PackedKnowledgeBitmap(10)
        k.add(5, [0, 8])
        k.merge_many(np.array([1, 2, 3]), k.packed[5])
        for dst in (1, 2, 3):
            assert list(k.known(dst)) == [0, 8]

    def test_unknown_targets_excludes_known_self_and_padding(self):
        # 10 ranks -> 2 bytes with 6 padding bits that must never leak
        # into the candidate set.
        k = PackedKnowledgeBitmap(10)
        k.add(0, [1, 9])
        assert list(unknown_targets(k.row(0), 0, 10)) == [2, 3, 4, 5, 6, 7, 8]

    def test_coverage_matches_reference(self):
        rng = np.random.default_rng(7)
        ref, packed = _pair(37)
        under = rng.random(37) < 0.4
        for rank in range(37):
            members = np.flatnonzero(rng.random(37) < 0.3)
            ref[rank] |= set(members.tolist())
            packed.add(rank, members)
        ids = np.flatnonzero(under)
        for u in (under, ids):
            assert packed.coverage(u) == pytest.approx(set_coverage(ref, u))
        assert packed.coverage(np.zeros(37, dtype=bool)) == 1.0


class TestPackedParity:
    """Randomized API-level equivalence against the set reference."""

    def test_randomized_operations_match(self):
        rng = np.random.default_rng(42)
        n = 26  # not a multiple of 8: exercises the partial last byte
        ref, packed = _pair(n)
        for _ in range(200):
            op = rng.integers(4)
            if op == 0:
                rank = int(rng.integers(n))
                members = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
                ref[rank] |= set(members.tolist())
                packed.add(rank, members)
            elif op == 1:
                ranks = rng.choice(n, size=3, replace=False)
                for r in ranks.tolist():
                    ref[r].add(r)
                    add_bits(packed.row(r), r)
            elif op == 2:
                src, dst = rng.choice(n, size=2, replace=False)
                ref[int(dst)] |= ref[int(src)]
                packed.merge_many(np.array([dst]), packed.packed[int(src)])
            else:
                src = int(rng.integers(n))
                dsts = rng.choice(n, size=2, replace=False)
                for d in dsts.tolist():
                    ref[d] = ref[d] | ref[src]
                packed.merge_many(dsts, packed.packed[src])
        assert member_sets(packed) == ref
        assert packed.counts().tolist() == [len(members) for members in ref]
        for rank in range(n):
            assert packed.known(rank).tolist() == sorted(ref[rank])
            assert unknown_targets(packed.row(rank), rank, n).tolist() == [
                q for q in range(n) if q != rank and q not in ref[rank]
            ]


class TestPackedMemory:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 512, 1000])
    def test_memory_is_p_squared_over_eight(self, n):
        k = PackedKnowledgeBitmap(n)
        assert k.memory_bytes() == n * math.ceil(n / 8)
        assert k.memory_bytes() <= n * n / 8 + n  # the P^2/8 + O(P) bound

    def test_eight_fold_saving_vs_boolean(self):
        n = 512
        assert PackedKnowledgeBitmap(n).memory_bytes() * 8 == n * n


class TestPackedRowsProperty:
    def test_rows_is_read_only_copy(self):
        k = PackedKnowledgeBitmap(9)
        k.add(0, [2, 8])
        rows = k.rows
        assert rows.dtype == bool and rows.shape == (9, 9)
        with pytest.raises(ValueError):
            rows[0, 0] = True

    def test_rows_reflects_current_state(self):
        k = PackedKnowledgeBitmap(9)
        k.add(4, [0, 5])
        expect = np.zeros((9, 9), dtype=bool)
        expect[4, [0, 5]] = True
        np.testing.assert_array_equal(k.rows, expect)
