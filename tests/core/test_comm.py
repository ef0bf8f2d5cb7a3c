"""Unit tests for repro.core.comm (communication-aware balancing)."""

import numpy as np
import pytest

from repro.core.comm import CommAwareLB, CommGraph
from repro.core.distribution import Distribution
from repro.core.greedy import GreedyLB
from repro.core.tempered import TemperedLB
from repro.empire.mesh import Mesh2D
from repro.workloads import paper_analysis_scenario


class TestCommGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            CommGraph(np.array([0]), np.array([1, 2]), np.array([1.0]), 4)
        with pytest.raises(ValueError, match="out of range"):
            CommGraph(np.array([0]), np.array([9]), np.array([1.0]), 4)
        with pytest.raises(ValueError, match="self-edges"):
            CommGraph(np.array([1]), np.array([1]), np.array([1.0]), 4)
        with pytest.raises(ValueError, match="non-negative"):
            CommGraph(np.array([0]), np.array([1]), np.array([-1.0]), 4)

    def test_off_rank_volume(self):
        g = CommGraph(np.array([0, 1]), np.array([1, 2]), np.array([3.0, 5.0]), 3)
        # tasks 0,1 together; task 2 elsewhere: only edge (1,2) crosses.
        assert g.off_rank_volume(np.array([0, 0, 1])) == 5.0
        # all co-located: nothing crosses
        assert g.off_rank_volume(np.array([2, 2, 2])) == 0.0
        # all separated: everything crosses
        assert g.off_rank_volume(np.array([0, 1, 2])) == 8.0

    def test_neighbors_symmetric(self):
        g = CommGraph(np.array([0]), np.array([1]), np.array([2.0]), 3)
        assert g.neighbors(0) == [(1, 2.0)]
        assert g.neighbors(1) == [(0, 2.0)]
        assert g.neighbors(2) == []

    def test_ring(self):
        g = CommGraph.ring(5, volume=2.0)
        assert g.n_edges == 5
        assert g.total_volume == 10.0
        # Fully co-located ring: zero crossing.
        assert g.off_rank_volume(np.zeros(5, dtype=int)) == 0.0

    def test_ring_trivial(self):
        assert CommGraph.ring(1).n_edges == 0

    def test_random_no_self_edges(self):
        g = CommGraph.random(20, 200, seed=0)
        assert (g.src != g.dst).all()
        assert g.n_tasks == 20

    def test_mesh_neighbor_graph(self):
        mesh = Mesh2D(4, colors_per_rank=4)
        g = mesh.neighbor_comm_graph()
        # 4x4 lattice of colors: 2 * 4 * 3 = 24 internal boundaries.
        assert g.n_edges == 24
        # The home (blocked) assignment keeps most traffic on-rank:
        home = mesh.home_assignment()
        scattered = np.arange(mesh.n_colors) % mesh.n_ranks
        assert g.off_rank_volume(home) < g.off_rank_volume(scattered)


class TestCommAwareLB:
    def make_workload(self, seed=0):
        # Balanced loads, ring communication, scattered initial layout.
        n_tasks, n_ranks = 64, 8
        rng = np.random.default_rng(seed)
        loads = rng.uniform(0.9, 1.1, n_tasks)
        assignment = rng.integers(0, n_ranks, n_tasks)
        return Distribution(loads, assignment, n_ranks), CommGraph.ring(n_tasks)

    def test_reduces_off_rank_volume(self):
        dist, graph = self.make_workload()
        lb = CommAwareLB(graph, inner=GreedyLB(), imbalance_slack=0.3)
        result = lb.rebalance(dist, rng=1)
        assert result.extra["off_rank_volume_after"] < result.extra["off_rank_volume_before"]

    def test_imbalance_stays_within_budget(self):
        dist, graph = self.make_workload()
        inner = GreedyLB()
        slack = 0.2
        result = CommAwareLB(graph, inner=inner, imbalance_slack=slack).rebalance(dist, rng=1)
        inner_i = inner.rebalance(dist).final_imbalance
        assert result.final_imbalance <= inner_i * (1 + slack) + slack + 1e-9

    def test_conserves_tasks(self):
        dist, graph = self.make_workload()
        result = CommAwareLB(graph).rebalance(dist, rng=2)
        loads = np.bincount(result.assignment, weights=dist.task_loads, minlength=dist.n_ranks)
        assert loads.sum() == pytest.approx(dist.total_load)

    def test_graph_size_checked(self):
        dist, _ = self.make_workload()
        with pytest.raises(ValueError, match="does not match"):
            CommAwareLB(CommGraph.ring(10)).rebalance(dist)

    def test_no_edges_is_identity_refinement(self):
        dist, _ = self.make_workload()
        empty = CommGraph(np.empty(0), np.empty(0), np.empty(0), dist.n_tasks)
        inner = GreedyLB()
        aware = CommAwareLB(empty, inner=inner).rebalance(dist, rng=3)
        plain = inner.rebalance(dist)
        np.testing.assert_array_equal(aware.assignment, plain.assignment)
        assert aware.extra["locality_moves"] == 0

    def test_default_inner_is_tempered(self):
        dist = paper_analysis_scenario(n_tasks=200, n_loaded_ranks=4, n_ranks=16, seed=1)
        graph = CommGraph.ring(200)
        result = CommAwareLB(graph).rebalance(dist, rng=4)
        assert result.extra["inner_strategy"] == "TemperedLB"
        assert result.final_imbalance < result.initial_imbalance

    def test_validation(self):
        graph = CommGraph.ring(4)
        with pytest.raises(ValueError):
            CommAwareLB(graph, imbalance_slack=-0.1)
        with pytest.raises(ValueError):
            CommAwareLB(graph, max_sweeps=0)
