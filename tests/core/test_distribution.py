"""Unit tests for repro.core.distribution."""

import numpy as np
import pytest

from repro.core.distribution import Distribution


def make_dist():
    return Distribution([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 2], n_ranks=4)


class TestConstruction:
    def test_basic_properties(self):
        d = make_dist()
        assert d.n_tasks == 4
        assert d.n_ranks == 4
        assert d.total_load == 10.0
        assert d.average_load == 2.5
        assert d.max_load == 4.0

    def test_rank_loads(self):
        d = make_dist()
        np.testing.assert_allclose(d.rank_loads(), [3.0, 3.0, 4.0, 0.0])

    def test_empty_rank_allowed(self):
        d = make_dist()
        assert d.rank_tasks()[3] == []

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            Distribution([1.0, 2.0], [0], n_ranks=2)

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            Distribution([1.0], [5], n_ranks=2)
        with pytest.raises(ValueError, match="lie in"):
            Distribution([1.0], [-1], n_ranks=2)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Distribution([-1.0], [0], n_ranks=1)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            Distribution([1.0], [0], n_ranks=0)

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Distribution([[1.0]], [[0]], n_ranks=1)

    def test_empty_distribution(self):
        d = Distribution([], [], n_ranks=3)
        assert d.n_tasks == 0
        assert d.imbalance() == 0.0
        np.testing.assert_allclose(d.rank_loads(), [0.0, 0.0, 0.0])


class TestImbalance:
    def test_perfect_balance_is_zero(self):
        d = Distribution([1.0, 1.0, 1.0], [0, 1, 2], n_ranks=3)
        assert d.imbalance() == pytest.approx(0.0)

    def test_eq1_value(self):
        # loads per rank: [3, 3, 4, 0]; ave 2.5, max 4 -> I = 0.6
        assert make_dist().imbalance() == pytest.approx(0.6)

    def test_all_on_one_rank(self):
        d = Distribution([1.0] * 4, [0] * 4, n_ranks=4)
        # max = 4, ave = 1 -> I = 3
        assert d.imbalance() == pytest.approx(3.0)


class TestMutation:
    def test_move_updates_loads(self):
        d = make_dist()
        d.move(3, 3)
        np.testing.assert_allclose(d.rank_loads(), [3.0, 3.0, 0.0, 4.0])

    def test_move_invalidates_task_buckets(self):
        d = make_dist()
        d.rank_tasks()
        d.move(0, 3)
        assert 0 in d.rank_tasks()[3]
        assert 0 not in d.rank_tasks()[0]

    def test_move_out_of_range_rejected(self):
        d = make_dist()
        with pytest.raises(ValueError, match="out of range"):
            d.move(0, 7)

    def test_with_assignment_does_not_alias(self):
        d = make_dist()
        new = d.with_assignment(np.array([1, 1, 1, 1]))
        new.move(0, 0)
        assert d.assignment[0] == 0  # original untouched
        assert new.assignment[0] == 0 and new.assignment[1] == 1

    def test_copy_is_independent(self):
        d = make_dist()
        c = d.copy()
        c.move(0, 3)
        assert d.assignment[0] == 0


class TestMigrationCount:
    def test_counts_differences(self):
        d = make_dist()
        other = np.array([0, 1, 1, 2])
        assert d.migration_count(other) == 1

    def test_identical_is_zero(self):
        d = make_dist()
        assert d.migration_count(d.assignment) == 0

    def test_length_mismatch_rejected(self):
        d = make_dist()
        with pytest.raises(ValueError, match="equal length"):
            d.migration_count(np.array([0, 1]))


class TestTaskBuckets:
    def test_buckets_partition_tasks(self):
        d = make_dist()
        all_tasks = sorted(t for bucket in d.rank_tasks() for t in bucket)
        assert all_tasks == [0, 1, 2, 3]

    def test_bucket_order_is_ascending_id(self):
        d = Distribution([1.0] * 5, [1, 0, 1, 0, 1], n_ranks=2)
        assert d.rank_tasks()[1] == [0, 2, 4]
