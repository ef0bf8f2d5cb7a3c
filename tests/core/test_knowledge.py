"""Unit tests for the knowledge-store API of repro.core.knowledge
(run on the packed bitmap; test_knowledge_sparse.py covers the shards)."""

import numpy as np
import pytest

from repro.core.knowledge import PackedKnowledgeBitmap as KnowledgeBitmap
from repro.core.knowledge import add_bits, unknown_targets


class TestKnowledgeBitmap:
    def test_initially_empty(self):
        k = KnowledgeBitmap(4)
        assert k.counts().sum() == 0
        assert k.known(0).size == 0

    def test_add_and_query(self):
        k = KnowledgeBitmap(4)
        k.add(0, [1, 3])
        assert list(k.known(0)) == [1, 3]

    def test_add_self_seeds_diagonal(self):
        k = KnowledgeBitmap(5)
        for rank in (1, 4):
            add_bits(k.row(rank), rank)
        assert [list(k.known(r)) for r in range(5)] == [[], [1], [], [], [4]]

    def test_merge_is_union(self):
        k = KnowledgeBitmap(4)
        k.add(0, [1])
        k.add(1, [2, 3])
        k.merge_many(np.array([0]), k.packed[1])
        assert list(k.known(0)) == [1, 2, 3]

    def test_merge_idempotent(self):
        k = KnowledgeBitmap(3)
        k.add(0, [1])
        row = k.packed[0].copy()
        k.merge_many(np.array([0]), row)
        assert list(k.known(0)) == [1]

    def test_unknown_targets_excludes_known_and_self(self):
        k = KnowledgeBitmap(4)
        k.add(0, [1])
        assert list(unknown_targets(k.row(0), 0, 4)) == [2, 3]

    def test_counts(self):
        k = KnowledgeBitmap(3)
        k.add(0, [0, 1, 2])
        k.add(1, [1])
        np.testing.assert_array_equal(k.counts(), [3, 1, 0])

    def test_coverage_full(self):
        k = KnowledgeBitmap(3)
        under = np.array([True, True, False])
        k.add(0, [0, 1])
        k.add(1, [0, 1])
        k.add(2, [0, 1])
        assert k.coverage(under) == pytest.approx(1.0)

    def test_coverage_partial(self):
        k = KnowledgeBitmap(2)
        under = np.array([True, False])
        k.add(0, [0])
        # rank 0 knows 1/1 underloaded, rank 1 knows 0/1 -> mean 0.5
        assert k.coverage(under) == pytest.approx(0.5)

    def test_coverage_no_underloaded(self):
        k = KnowledgeBitmap(2)
        assert k.coverage(np.array([False, False])) == 1.0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeBitmap(0)
