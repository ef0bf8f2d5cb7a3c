"""Unit tests for repro.core.ordering (§ V-E, Algorithms 4-6)."""

import numpy as np
import pytest

from repro.core.ordering import order_tasks


def setup_tasks(loads):
    """Tasks 0..n-1 with the given loads; returns (ids, global load array)."""
    loads = np.asarray(loads, dtype=float)
    return np.arange(len(loads), dtype=np.int64), loads


class TestArbitrary:
    def test_preserves_input_order(self):
        tasks, loads = setup_tasks([3.0, 1.0, 2.0])
        out = order_tasks("arbitrary", tasks, loads, 1.0, 6.0)
        np.testing.assert_array_equal(out, [0, 1, 2])


class TestLoadIntensive:
    def test_descending(self):
        tasks, loads = setup_tasks([3.0, 1.0, 2.0])
        out = order_tasks("load_intensive", tasks, loads, 1.0, 6.0)
        np.testing.assert_array_equal(out, [0, 2, 1])

    def test_ties_broken_by_id(self):
        tasks, loads = setup_tasks([2.0, 2.0, 1.0])
        out = order_tasks("load_intensive", tasks, loads, 1.0, 5.0)
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        tasks, loads = setup_tasks(rng.random(20))
        out = order_tasks("load_intensive", tasks, loads, 1.0, loads.sum())
        assert sorted(out) == list(range(20))


class TestFewestMigrations:
    def test_cutoff_task_first(self):
        # l_ex = 10 - 4 = 6; tasks > 6: [7, 9]; cutoff = 7.
        tasks, loads = setup_tasks([2.0, 7.0, 9.0, 5.0])
        out = order_tasks("fewest_migrations", tasks, loads, l_ave=4.0, l_p=10.0)
        assert out[0] == 1  # the task with load 7 leads

    def test_light_group_descending_then_heavy_ascending(self):
        # l_ex = 6; cutoff = 7. Light group (<=7): loads [2, 7, 5]
        # descending -> [7, 5, 2]; heavy group (>7): [9] ascending.
        tasks, loads = setup_tasks([2.0, 7.0, 9.0, 5.0])
        out = order_tasks("fewest_migrations", tasks, loads, l_ave=4.0, l_p=10.0)
        np.testing.assert_array_equal(loads[out], [7.0, 5.0, 2.0, 9.0])

    def test_fallback_to_descending_when_no_task_covers_excess(self):
        # l_ex = 8; max task 5 < 8 -> Alg. 5 l.3-4 fallback.
        tasks, loads = setup_tasks([5.0, 2.0, 3.0])
        out = order_tasks("fewest_migrations", tasks, loads, l_ave=2.0, l_p=10.0)
        np.testing.assert_array_equal(loads[out], [5.0, 3.0, 2.0])

    def test_empty(self):
        tasks, loads = setup_tasks([])
        assert order_tasks("fewest_migrations", tasks, loads, 1.0, 2.0).size == 0

    def test_is_permutation(self):
        rng = np.random.default_rng(1)
        tasks, loads = setup_tasks(rng.random(30) * 4)
        out = order_tasks("fewest_migrations", tasks, loads, 1.0, loads.sum())
        assert sorted(out) == list(range(30))


class TestLightest:
    def test_marginal_task_first(self):
        # l_ex = 3. Ascending loads [1, 2, 4, 8]; cumsum [1, 3, 7, 15]
        # first >= 3 at index 1 -> l_marg = 2. Group <= 2 descending: [2, 1];
        # then [4, 8] ascending.
        tasks, loads = setup_tasks([8.0, 1.0, 2.0, 4.0])
        out = order_tasks("lightest", tasks, loads, l_ave=12.0, l_p=15.0)
        np.testing.assert_array_equal(loads[out], [2.0, 1.0, 4.0, 8.0])

    def test_excess_exceeds_total(self):
        # cumsum never reaches l_ex -> marginal is the heaviest task:
        # pure descending order.
        tasks, loads = setup_tasks([1.0, 3.0, 2.0])
        out = order_tasks("lightest", tasks, loads, l_ave=1.0, l_p=100.0)
        np.testing.assert_array_equal(loads[out], [3.0, 2.0, 1.0])

    def test_not_overloaded_degenerates_to_ascending(self):
        tasks, loads = setup_tasks([3.0, 1.0, 2.0])
        out = order_tasks("lightest", tasks, loads, l_ave=10.0, l_p=6.0)
        np.testing.assert_array_equal(loads[out], [1.0, 2.0, 3.0])

    def test_is_permutation(self):
        rng = np.random.default_rng(2)
        tasks, loads = setup_tasks(rng.random(25) * 3)
        out = order_tasks("lightest", tasks, loads, 1.0, loads.sum())
        assert sorted(out) == list(range(25))


class TestDispatch:
    def test_all_names(self):
        tasks, loads = setup_tasks([1.0, 2.0])
        for name in ("arbitrary", "load_intensive", "fewest_migrations", "lightest"):
            out = order_tasks(name, tasks, loads, 1.0, 3.0)
            assert sorted(out) == [0, 1]

    def test_unknown_name(self):
        tasks, loads = setup_tasks([1.0])
        with pytest.raises(ValueError, match="ordering"):
            order_tasks("zigzag", tasks, loads, 1.0, 1.0)
