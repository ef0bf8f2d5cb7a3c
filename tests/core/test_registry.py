"""Unit tests for repro.core.registry (strategies built by name)."""

import numpy as np
import pytest

from repro.core.registry import available_strategies, make_balancer
from repro.workloads import paper_analysis_scenario


class TestRegistry:
    def test_holds_the_paper_balancers(self):
        assert available_strategies() == ["grapevine", "greedy", "hier", "tempered"]

    def test_all_strategies_constructible(self):
        for name in available_strategies():
            lb = make_balancer(name)
            assert lb.name

    def test_kwargs_forwarded(self):
        lb = make_balancer("tempered", n_trials=3, n_iters=2)
        assert lb.config.n_trials == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_balancer("quantum")

    def test_every_strategy_improves_concentrated_load(self):
        dist = paper_analysis_scenario(n_tasks=400, n_loaded_ranks=4, n_ranks=32, seed=8)
        for name in available_strategies():
            lb = make_balancer(name)
            res = lb.rebalance(dist, rng=np.random.default_rng(0))
            assert res.final_imbalance < dist.imbalance(), name
