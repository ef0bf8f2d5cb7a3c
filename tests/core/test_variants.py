"""Tests for the paper-adjacent variants: negative acknowledgements
(Menon's mechanism, which § V-A drops in favour of iteration) and
limited-information gossip (the § IV-B footnote's future work)."""

import numpy as np
import pytest

from repro import TemperedLB
from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.transfer import TransferConfig, transfer_stage
from repro.workloads import paper_analysis_scenario


def two_senders_one_recipient():
    """Two heavily loaded ranks, one empty recipient: the overfill case
    nacks exist to prevent."""
    task_loads = np.ones(40)
    assignment = np.array([0] * 20 + [1] * 20, dtype=np.int64)
    loads = np.bincount(assignment, weights=task_loads, minlength=3)
    gossip = run_inform_stage(loads, GossipConfig(fanout=2, rounds=3), rng=0)
    return assignment, task_loads, gossip


class TestNegativeAcknowledgements:
    def test_nacks_prevent_recipient_overload(self):
        assignment, task_loads, gossip = two_senders_one_recipient()
        a = assignment.copy()
        stats = transfer_stage(
            a, task_loads, gossip, TransferConfig(nacks=True), rng=5
        )
        loads_after = np.bincount(a, weights=task_loads, minlength=3)
        l_ave = gossip.average_load
        # The single known recipient never ends above the threshold.
        assert loads_after[2] <= l_ave + 1e-12
        assert stats.nacked > 0

    def test_without_nacks_recipient_can_overload(self):
        assignment, task_loads, gossip = two_senders_one_recipient()
        a = assignment.copy()
        stats = transfer_stage(
            a, task_loads, gossip, TransferConfig(nacks=False), rng=5
        )
        loads_after = np.bincount(a, weights=task_loads, minlength=3)
        assert loads_after[2] > gossip.average_load
        assert stats.nacked == 0

    def test_nacked_tasks_stay_with_sender(self):
        assignment, task_loads, gossip = two_senders_one_recipient()
        a = assignment.copy()
        stats = transfer_stage(a, task_loads, gossip, TransferConfig(nacks=True), rng=5)
        # Conservation: every task accounted for, moves consistent.
        replay = assignment.copy()
        for task, src, dst in stats.moves:
            replay[task] = dst
        np.testing.assert_array_equal(replay, a)

    def test_nack_corrects_sender_knowledge(self):
        # After a nack the sender knows the recipient's true load, so in
        # snapshot view it should not keep hammering the same full rank:
        # nack count stays bounded by the task count.
        assignment, task_loads, gossip = two_senders_one_recipient()
        a = assignment.copy()
        stats = transfer_stage(
            a,
            task_loads,
            gossip,
            TransferConfig(nacks=True, max_passes=None),
            rng=6,
        )
        assert stats.nacked <= task_loads.size

    def test_strategy_level_nacks(self):
        dist = paper_analysis_scenario(n_tasks=400, n_loaded_ranks=4, n_ranks=32, seed=0)
        with_nacks = TemperedLB(n_trials=1, n_iters=4, nacks=True).rebalance(dist, rng=1)
        without = TemperedLB(n_trials=1, n_iters=4, nacks=False).rebalance(dist, rng=1)
        # Both improve; nacks cannot make the result invalid.
        assert with_nacks.final_imbalance < with_nacks.initial_imbalance
        assert without.final_imbalance < without.initial_imbalance


class TestLimitedInformationGossip:
    def test_cap_enforced(self):
        loads = np.ones(64)
        loads[:4] = 20.0
        res = run_inform_stage(loads, GossipConfig(fanout=4, rounds=6, max_known=8), rng=0)
        assert res.knowledge.counts().max() <= 8

    @staticmethod
    def _trim(members, loads, cfg, seed):
        """One rank's S^p after the driver's per-round max_known trim:
        the bit-row store's ``trim`` (a prefix cut under "lowest", keyed
        under "random"), read back from the container it writes. Rank 0
        learns ``members`` by merging their self-seeded rows."""
        from repro.core.knowledge import _PackedStore

        seeds = np.asarray(members, dtype=np.int64)
        store = _PackedStore(
            len(loads), seeds, cfg.max_known, cfg.trim_policy,
            np.asarray(loads, dtype=np.float64), np.random.default_rng(seed),
        )
        snap, _ = store.snapshot(seeds)
        store.merge(np.array([0]), np.array([0, seeds.size]), snap, np.arange(seeds.size))
        store.trim(np.array([0]))
        store.finish()
        return store.knowledge.known(0)

    def test_trim_lowest_policy(self):
        loads = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        cfg = GossipConfig(max_known=3, trim_policy="lowest")
        # Keeps the three lowest-loaded ranks: 1, 3, 2.
        np.testing.assert_array_equal(self._trim(range(5), loads, cfg, 0), [1, 2, 3])

    def test_trim_random_policy_keeps_subset(self):
        cfg = GossipConfig(max_known=4, trim_policy="random")
        assert self._trim(range(10), np.arange(10.0), cfg, 1).size == 4

    def test_trim_noop_under_cap(self):
        loads = np.array([5.0, 1.0, 3.0])
        cfg = GossipConfig(max_known=3)
        np.testing.assert_array_equal(self._trim([0, 2], loads, cfg, 0), [0, 2])

    def test_trim_policy_validation(self):
        with pytest.raises(ValueError, match="trim_policy"):
            GossipConfig(trim_policy="newest")

    def test_capped_gossip_sends_smaller_messages(self):
        loads = np.ones(128)
        loads[:8] = 30.0
        unlimited = run_inform_stage(loads, GossipConfig(fanout=4, rounds=6), rng=2)
        capped = run_inform_stage(
            loads, GossipConfig(fanout=4, rounds=6, max_known=8), rng=2
        )
        assert capped.bytes_sent < unlimited.bytes_sent

    def test_capped_gossip_still_enables_balancing(self):
        dist = paper_analysis_scenario(n_tasks=500, n_loaded_ranks=4, n_ranks=64, seed=3)
        lb = TemperedLB(n_trials=1, n_iters=6, max_known=8)
        result = lb.rebalance(dist, rng=4)
        assert result.final_imbalance < 0.3 * result.initial_imbalance

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            GossipConfig(max_known=0)


class TestNodeAwareGossip:
    def loads(self, n=32):
        loads = np.ones(n)
        loads[:4] = 10.0
        return loads

    def test_flat_topology_has_zero_inter_node_accounting_baseline(self):
        res = run_inform_stage(self.loads(), GossipConfig(), rng=0)
        # Flat topology: every rank is its own node, so every message is
        # inter-node by definition.
        assert res.inter_node_messages == res.n_messages

    def test_bias_reduces_inter_node_traffic(self):
        flat = run_inform_stage(
            self.loads(), GossipConfig(ranks_per_node=4, intra_node_bias=0.0), rng=1
        )
        biased = run_inform_stage(
            self.loads(), GossipConfig(ranks_per_node=4, intra_node_bias=0.9), rng=1
        )
        assert biased.inter_node_messages / max(biased.n_messages, 1) < (
            flat.inter_node_messages / max(flat.n_messages, 1)
        )

    def test_bias_one_still_reaches_other_nodes(self):
        # Even with maximal bias, forwarding falls back to the global
        # pool when no unknown same-node candidate remains, so knowledge
        # still crosses nodes (slower).
        res = run_inform_stage(
            self.loads(),
            GossipConfig(ranks_per_node=4, intra_node_bias=1.0, rounds=12, fanout=4),
            rng=2,
        )
        assert res.coverage() > 0.3

    def test_validation(self):
        with pytest.raises(ValueError, match="intra_node_bias"):
            GossipConfig(intra_node_bias=1.5)
        with pytest.raises(ValueError):
            GossipConfig(ranks_per_node=0)

    def test_bias_without_nodes_rejected(self):
        # One rank per node has no same-node candidate to prefer: the
        # bias used to be ignored in silence (616 of 616 messages
        # inter-node at bias 0.5).
        with pytest.raises(ValueError, match="needs ranks_per_node > 1"):
            GossipConfig(intra_node_bias=0.5)
        assert GossipConfig(ranks_per_node=4, intra_node_bias=0.5).intra_node_bias == 0.5
