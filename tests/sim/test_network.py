"""Unit tests for repro.sim.network."""

import pytest

from repro.sim.network import NetworkModel


class TestTopology:
    def test_self_message_cheapest(self):
        net = NetworkModel()
        assert net.latency(0, 0, 100) < net.latency(0, 1, 100)

    def test_intra_node_cheaper_than_inter(self):
        net = NetworkModel(ranks_per_node=4)
        assert net.latency(0, 1, 1000) < net.latency(0, 5, 1000)
        # Block mapping: ranks 0-3 share node 0, rank 4 starts node 1.
        intra = net.intra_latency + 1000 / net.intra_bandwidth
        inter = net.inter_latency + 1000 / net.inter_bandwidth
        assert net.latency(0, 3, 1000) == pytest.approx(intra)
        assert net.latency(0, 4, 1000) == pytest.approx(inter)

    def test_latency_grows_with_size(self):
        net = NetworkModel()
        assert net.latency(0, 5, 10**6) > net.latency(0, 5, 10)

    def test_alpha_beta_decomposition(self):
        net = NetworkModel(ranks_per_node=1, inter_latency=1e-6, inter_bandwidth=1e9)
        assert net.latency(0, 1, 0) == pytest.approx(1e-6)
        assert net.latency(0, 1, 10**9) == pytest.approx(1.0 + 1e-6)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().latency(0, 1, -5)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(ranks_per_node=0)
        with pytest.raises(ValueError):
            NetworkModel(inter_bandwidth=0.0)
