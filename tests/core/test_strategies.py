"""Unit tests for the strategy classes (Tempered, Grapevine, Greedy, Hier)."""

import numpy as np
import pytest

from repro import Distribution, GrapevineLB, GreedyLB, HierLB, TemperedLB
from repro.core.tempered import TemperedConfig
from repro.workloads import paper_analysis_scenario, skewed_distribution

ALL_STRATEGIES = [
    TemperedLB(n_trials=2, n_iters=3),
    GrapevineLB(n_iters=2),
    GreedyLB(),
    HierLB(),
]


def scenario(seed=0):
    return paper_analysis_scenario(n_tasks=400, n_loaded_ranks=4, n_ranks=32, seed=seed)


class TestCommonContract:
    @pytest.mark.parametrize("lb", ALL_STRATEGIES, ids=lambda lb: lb.name)
    def test_improves_imbalance(self, lb):
        dist = scenario()
        res = lb.rebalance(dist, rng=1)
        assert res.final_imbalance < res.initial_imbalance

    @pytest.mark.parametrize("lb", ALL_STRATEGIES, ids=lambda lb: lb.name)
    def test_conserves_tasks(self, lb):
        dist = scenario()
        res = lb.rebalance(dist, rng=1)
        assert res.assignment.shape == dist.assignment.shape
        assert (res.assignment >= 0).all() and (res.assignment < dist.n_ranks).all()
        loads = np.bincount(res.assignment, weights=dist.task_loads, minlength=dist.n_ranks)
        assert loads.sum() == pytest.approx(dist.total_load)

    @pytest.mark.parametrize("lb", ALL_STRATEGIES, ids=lambda lb: lb.name)
    def test_input_not_mutated(self, lb):
        dist = scenario()
        before = dist.assignment.copy()
        lb.rebalance(dist, rng=1)
        np.testing.assert_array_equal(dist.assignment, before)

    @pytest.mark.parametrize("lb", ALL_STRATEGIES, ids=lambda lb: lb.name)
    def test_migration_count_consistent(self, lb):
        dist = scenario()
        res = lb.rebalance(dist, rng=1)
        assert res.n_migrations == int(np.count_nonzero(res.assignment != dist.assignment))

    @pytest.mark.parametrize("lb", ALL_STRATEGIES, ids=lambda lb: lb.name)
    def test_apply_returns_matching_distribution(self, lb):
        dist = scenario()
        new_dist, res = lb.apply(dist, rng=1)
        np.testing.assert_array_equal(new_dist.assignment, res.assignment)
        assert new_dist.imbalance() == pytest.approx(res.final_imbalance)


class TestTemperedLB:
    def test_beats_grapevine_on_skewed_workload(self):
        dist = scenario(seed=3)
        tempered = TemperedLB(n_trials=2, n_iters=8).rebalance(dist, rng=2)
        grapevine = GrapevineLB(n_iters=8).rebalance(dist, rng=2)
        assert tempered.final_imbalance < grapevine.final_imbalance

    def test_config_object_and_overrides_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            TemperedLB(TemperedConfig(), n_trials=2)

    def test_records_cover_all_trials(self):
        lb = TemperedLB(n_trials=3, n_iters=2)
        res = lb.rebalance(scenario(), rng=0)
        assert len(res.records) == 6
        assert res.extra["gossip_messages"] > 0

    def test_lbaf_variant_switches_semantics(self):
        cfg = TemperedConfig().lbaf_variant()
        assert cfg.transfer.view == "shared"
        assert cfg.transfer.max_passes is None
        assert cfg.transfer.cascade is True

    def test_deterministic(self):
        lb = TemperedLB(n_trials=2, n_iters=2)
        a = lb.rebalance(scenario(), rng=9)
        b = lb.rebalance(scenario(), rng=9)
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestGrapevineLB:
    def test_strategy_name(self):
        res = GrapevineLB().rebalance(scenario(), rng=0)
        assert res.strategy == "GrapevineLB"

    def test_single_trial(self):
        res = GrapevineLB(n_iters=3).rebalance(scenario(), rng=0)
        assert {r.trial for r in res.records} == {1}


class TestGreedyLB:
    def test_near_optimal_on_many_small_tasks(self):
        dist = skewed_distribution(2000, 16, skew=1.5, load_cv=0.3, seed=1)
        res = GreedyLB().rebalance(dist)
        assert res.final_imbalance < 0.05

    def test_lpt_bound(self):
        # LPT guarantees makespan <= (4/3 - 1/(3m)) * OPT and OPT >= ave.
        dist = skewed_distribution(200, 8, skew=1.0, seed=2)
        res = GreedyLB().rebalance(dist)
        loads = np.bincount(res.assignment, weights=dist.task_loads, minlength=8)
        opt_lower = max(dist.average_load, dist.task_loads.max())
        assert loads.max() <= (4 / 3) * opt_lower + 1e-9

    def test_deterministic_without_rng(self):
        dist = scenario()
        a = GreedyLB().rebalance(dist)
        b = GreedyLB().rebalance(dist)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_handles_single_rank(self):
        dist = Distribution([1.0, 2.0], [0, 0], n_ranks=1)
        res = GreedyLB().rebalance(dist)
        assert res.final_imbalance == pytest.approx(0.0)


class TestHierLB:
    def test_quality_comparable_to_greedy(self):
        dist = scenario(seed=5)
        hier = HierLB().rebalance(dist)
        greedy = GreedyLB().rebalance(dist)
        # Hierarchical quality should land within a modest factor.
        assert hier.final_imbalance <= max(4 * greedy.final_imbalance, 0.3)

    def test_branching_validation(self):
        with pytest.raises(ValueError):
            HierLB(branching=1)
        with pytest.raises(ValueError):
            HierLB(tolerance=-0.5)

    def test_records_tree_depth(self):
        res = HierLB(branching=2).rebalance(scenario())
        assert res.extra["tree_depth"] == 5  # 32 ranks, binary tree

    def test_single_rank_noop(self):
        dist = Distribution([1.0, 2.0], [0, 0], n_ranks=1)
        res = HierLB().rebalance(dist)
        assert res.n_migrations == 0
