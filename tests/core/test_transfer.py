"""Unit tests for repro.core.transfer (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.transfer import TransferConfig, TransferStats, transfer_stage


def one_hot_scenario(n_ranks=8, tasks_per_rank=12, seed=0):
    """All tasks on rank 0; returns (assignment, task_loads, gossip)."""
    rng = np.random.default_rng(seed)
    n_tasks = tasks_per_rank * n_ranks
    task_loads = rng.gamma(4.0, 0.25, size=n_tasks)
    assignment = np.zeros(n_tasks, dtype=np.int64)
    rank_loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    gossip = run_inform_stage(rank_loads, GossipConfig(fanout=3, rounds=4), rng=seed)
    return assignment, task_loads, gossip


class TestConfigValidation:
    def test_bad_view(self):
        with pytest.raises(ValueError, match="view"):
            TransferConfig(view="psychic")

    def test_bad_passes(self):
        with pytest.raises(ValueError):
            TransferConfig(max_passes=0)

    def test_none_passes_allowed(self):
        assert TransferConfig(max_passes=None).max_passes is None


class TestBasicTransfer:
    def test_reduces_imbalance(self):
        assignment, task_loads, gossip = one_hot_scenario()
        before = np.bincount(assignment, weights=task_loads, minlength=8)
        stats = transfer_stage(assignment, task_loads, gossip, rng=1)
        after = np.bincount(assignment, weights=task_loads, minlength=8)
        assert after.max() < before.max()
        assert stats.transfers > 0

    def test_conserves_tasks_and_load(self):
        assignment, task_loads, gossip = one_hot_scenario()
        total_before = task_loads.sum()
        transfer_stage(assignment, task_loads, gossip, rng=1)
        after = np.bincount(assignment, weights=task_loads, minlength=8)
        assert after.sum() == pytest.approx(total_before)
        assert (assignment >= 0).all() and (assignment < 8).all()

    def test_moves_match_assignment(self):
        assignment, task_loads, gossip = one_hot_scenario()
        original = assignment.copy()
        stats = transfer_stage(assignment, task_loads, gossip, rng=1)
        # Replay the moves on the original assignment: must agree.
        replay = original.copy()
        for task, src, dst in stats.moves:
            assert replay[task] == src
            replay[task] = dst
        np.testing.assert_array_equal(replay, assignment)

    def test_no_overloaded_ranks_is_noop(self):
        task_loads = np.ones(8)
        assignment = np.arange(8, dtype=np.int64)
        loads = np.bincount(assignment, weights=task_loads, minlength=8)
        gossip = run_inform_stage(loads, GossipConfig(), rng=0)
        stats = transfer_stage(assignment, task_loads, gossip, rng=0)
        assert stats.transfers == 0 and stats.overloaded_ranks == 0

    def test_transfers_only_to_known_ranks(self):
        assignment, task_loads, gossip = one_hot_scenario()
        known = set(gossip.knowledge.known(0))
        stats = transfer_stage(assignment, task_loads, gossip, rng=2)
        destinations = {dst for _, _, dst in stats.moves}
        assert destinations <= known

    def test_deterministic_given_seed(self):
        a1, task_loads, gossip = one_hot_scenario()
        a2 = a1.copy()
        transfer_stage(a1, task_loads, gossip, rng=7)
        transfer_stage(a2, task_loads, gossip, rng=7)
        np.testing.assert_array_equal(a1, a2)


class TestCriterionBehaviour:
    def test_original_strands_heavy_tasks(self):
        # One task heavier than l_ave can never move under the original
        # criterion but moves under the relaxed one.
        task_loads = np.array([10.0, 0.1, 0.1, 0.1])
        assignment = np.zeros(4, dtype=np.int64)
        n_ranks = 4
        loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
        gossip = run_inform_stage(loads, GossipConfig(fanout=3, rounds=3), rng=0)

        strict = assignment.copy()
        transfer_stage(
            strict,
            task_loads,
            gossip,
            TransferConfig(criterion="original", cmf="original", recompute_cmf=False),
            rng=1,
        )
        assert strict[0] == 0  # heavy task stuck

        relaxed = assignment.copy()
        transfer_stage(relaxed, task_loads, gossip, TransferConfig(), rng=1)
        assert relaxed[0] != 0  # heavy task moved

    def test_relaxed_never_overfills_past_sender(self):
        # Lemma 1 consequence: a recipient's (known) load after transfer
        # is strictly below the sender's load just before it.
        assignment, task_loads, gossip = one_hot_scenario(n_ranks=6, seed=3)
        stats = transfer_stage(assignment, task_loads, gossip, rng=4)
        # With a single sender, snapshot knowledge equals true loads, so
        # the final max is at most the initial sender load.
        after = np.bincount(assignment, weights=task_loads, minlength=6)
        assert after.max() <= gossip.load_snapshot.max() + 1e-12


class TestViews:
    def test_shared_view_avoids_overfill_by_concurrent_senders(self):
        # Two heavily loaded senders, one underloaded rank. In snapshot
        # view both senders believe the recipient is nearly empty and
        # overfill it; the shared view coordinates them.
        task_loads = np.ones(40)
        assignment = np.array([0] * 20 + [1] * 20, dtype=np.int64)
        loads = np.bincount(assignment, weights=task_loads, minlength=3)
        gossip = run_inform_stage(loads, GossipConfig(fanout=2, rounds=3), rng=0)

        snap = assignment.copy()
        transfer_stage(snap, task_loads, gossip, TransferConfig(view="snapshot"), rng=5)
        shared = assignment.copy()
        transfer_stage(shared, task_loads, gossip, TransferConfig(view="shared"), rng=5)

        snap_recipient = np.bincount(snap, weights=task_loads, minlength=3)[2]
        shared_recipient = np.bincount(shared, weights=task_loads, minlength=3)[2]
        assert shared_recipient <= snap_recipient

    def test_cascade_processes_overfilled_recipients(self):
        # Without cascade a recipient overloaded mid-stage keeps its
        # surplus; with cascade it sheds again within the same stage.
        rng = np.random.default_rng(8)
        task_loads = rng.gamma(2.0, 0.5, size=60)
        assignment = np.zeros(60, dtype=np.int64)
        loads = np.bincount(assignment, weights=task_loads, minlength=16)
        gossip = run_inform_stage(loads, GossipConfig(fanout=3, rounds=4), rng=0)

        no_casc = assignment.copy()
        s1 = transfer_stage(
            no_casc,
            task_loads,
            gossip,
            TransferConfig(view="shared", max_passes=None, cascade=False),
            rng=9,
        )
        casc = assignment.copy()
        s2 = transfer_stage(
            casc,
            task_loads,
            gossip,
            TransferConfig(view="shared", max_passes=None, cascade=True),
            rng=9,
        )
        assert s2.rank_processings >= s1.rank_processings

    def test_multipass_attempts_exceed_single_pass(self):
        assignment, task_loads, gossip = one_hot_scenario(n_ranks=4, tasks_per_rank=30)
        single = assignment.copy()
        s1 = transfer_stage(
            single, task_loads, gossip, TransferConfig(max_passes=1), rng=3
        )
        multi = assignment.copy()
        s2 = transfer_stage(
            multi, task_loads, gossip, TransferConfig(max_passes=None), rng=3
        )
        assert s2.transfers + s2.rejections >= s1.transfers + s1.rejections


class TestTransferFromRank:
    def test_single_rank_api_matches_stage_semantics(self):
        from repro.core.transfer import transfer_from_rank

        assignment, task_loads, gossip = one_hot_scenario()
        a = assignment.copy()
        stats = transfer_from_rank(0, a, task_loads, gossip, rng=3)
        assert stats.overloaded_ranks == 1
        assert stats.transfers > 0
        # Moves all originate at rank 0.
        assert {src for _, src, _ in stats.moves} == {0}
        after = np.bincount(a, weights=task_loads, minlength=8)
        assert after.sum() == pytest.approx(task_loads.sum())

    def test_underloaded_rank_is_noop(self):
        from repro.core.transfer import transfer_from_rank

        assignment, task_loads, gossip = one_hot_scenario()
        a = assignment.copy()
        stats = transfer_from_rank(3, a, task_loads, gossip, rng=3)
        assert stats.transfers == 0 and stats.overloaded_ranks == 0
        np.testing.assert_array_equal(a, assignment)


class TestStats:
    def test_rejection_rate_bounds(self):
        s = TransferStats(transfers=3, rejections=1)
        assert s.rejection_rate == pytest.approx(0.25)
        assert TransferStats().rejection_rate == 0.0

    def test_merge(self):
        a = TransferStats(transfers=1, rejections=2, moves=[(0, 0, 1)])
        b = TransferStats(transfers=3, rejections=4, moves=[(1, 0, 2)])
        a.merge(b)
        assert a.transfers == 4 and a.rejections == 6
        assert len(a.moves) == 2

    def test_stalled_rank_without_candidates(self):
        # Overloaded rank with empty knowledge: counted as stalled.
        task_loads = np.ones(4)
        assignment = np.zeros(4, dtype=np.int64)
        loads = np.bincount(assignment, weights=task_loads, minlength=2)
        gossip = run_inform_stage(loads, GossipConfig(fanout=1, rounds=1), rng=0)
        gossip.knowledge = type(gossip.knowledge)(loads.size)  # wipe knowledge
        stats = transfer_stage(assignment, task_loads, gossip, rng=0)
        assert stats.stalled_ranks == 1
        assert stats.transfers == 0
