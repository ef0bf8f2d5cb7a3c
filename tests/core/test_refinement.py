"""Unit tests for repro.core.refinement (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig
from repro.workloads import paper_analysis_scenario


def small_scenario(seed=0):
    return paper_analysis_scenario(
        n_tasks=300, n_loaded_ranks=4, n_ranks=32, seed=seed
    )


class TestRefinement:
    def test_input_not_mutated(self):
        dist = small_scenario()
        before = dist.assignment.copy()
        iterative_refinement(dist, n_trials=2, n_iters=3, rng=1)
        np.testing.assert_array_equal(dist.assignment, before)

    def test_best_no_worse_than_initial(self):
        dist = small_scenario()
        res = iterative_refinement(dist, n_trials=1, n_iters=2, rng=1)
        assert res.best_imbalance <= res.initial_imbalance

    def test_best_matches_recorded_minimum(self):
        dist = small_scenario()
        res = iterative_refinement(dist, n_trials=2, n_iters=4, rng=2)
        recorded_min = min(r.imbalance for r in res.records)
        assert res.best_imbalance == pytest.approx(
            min(recorded_min, res.initial_imbalance)
        )

    def test_best_assignment_achieves_best_imbalance(self):
        dist = small_scenario()
        res = iterative_refinement(dist, n_trials=2, n_iters=4, rng=3)
        loads = np.bincount(
            res.best_assignment, weights=dist.task_loads, minlength=dist.n_ranks
        )
        got = loads.max() / loads.mean() - 1.0
        assert got == pytest.approx(res.best_imbalance)

    def test_record_count(self):
        dist = small_scenario()
        res = iterative_refinement(dist, n_trials=3, n_iters=5, rng=0)
        assert len(res.records) == 15
        assert [(r.trial, r.iteration) for r in res.records] == [
            (t, i) for t in (1, 2, 3) for i in (1, 2, 3, 4, 5)
        ]

    def test_trials_reset_from_original(self):
        # Every trial's iteration-1 starts from the same state, so with
        # the same rng state they *could* differ, but transfers counted in
        # iteration 1 of each trial must be bounded by the original task
        # placement, not the previous trial's end state.
        dist = small_scenario()
        res = iterative_refinement(
            dist,
            n_trials=2,
            n_iters=1,
            transfer=TransferConfig(max_passes=1),
            rng=4,
        )
        first, second = res.records
        # Both trials shed a similar amount from the same initial state;
        # if trial 2 continued from trial 1's balanced state it would
        # transfer ~0 tasks.
        assert second.transfers > 0.25 * first.transfers

    def test_conservation(self):
        dist = small_scenario()
        res = iterative_refinement(dist, n_trials=2, n_iters=3, rng=5)
        loads = np.bincount(
            res.best_assignment, weights=dist.task_loads, minlength=dist.n_ranks
        )
        assert loads.sum() == pytest.approx(dist.total_load)

    def test_gossip_accounting_accumulates(self):
        dist = small_scenario()
        res = iterative_refinement(
            dist, n_trials=2, n_iters=2, gossip=GossipConfig(fanout=2, rounds=2), rng=6
        )
        assert res.total_gossip_messages == sum(r.gossip_messages for r in res.records)
        assert res.total_gossip_bytes > 0

    def test_invalid_counts_rejected(self):
        dist = small_scenario()
        with pytest.raises(ValueError):
            iterative_refinement(dist, n_trials=0)
        with pytest.raises(ValueError):
            iterative_refinement(dist, n_iters=0)

    def test_deterministic_given_seed(self):
        dist = small_scenario()
        a = iterative_refinement(dist, n_trials=2, n_iters=3, rng=42)
        b = iterative_refinement(dist, n_trials=2, n_iters=3, rng=42)
        np.testing.assert_array_equal(a.best_assignment, b.best_assignment)
        assert [r.transfers for r in a.records] == [r.transfers for r in b.records]


class TestBalancedInput:
    def test_already_balanced_is_stable(self):
        dist = Distribution(np.ones(16), np.repeat(np.arange(4), 4), n_ranks=4)
        res = iterative_refinement(dist, n_trials=1, n_iters=2, rng=0)
        assert res.best_imbalance == pytest.approx(0.0)
        np.testing.assert_array_equal(res.best_assignment, dist.assignment)
