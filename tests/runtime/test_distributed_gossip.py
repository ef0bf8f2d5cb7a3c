"""Unit tests for the event-level inform stage
(:func:`repro.runtime.lbmanager.event_inform_stage`, distributed gossip
as asynchronous messages)."""

import re

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.runtime.lbmanager import event_inform_stage
from repro.sim.process import System
from repro.sim.rng import RankStreams


def loads_two_hot(n=16):
    loads = np.ones(n)
    loads[0] = loads[1] = 10.0
    return loads


class TestDistributedGossip:
    def test_knowledge_covers_underloaded(self):
        sys_ = System(16)
        out, _ = event_inform_stage(sys_, loads_two_hot(), fanout=4, rounds=5)
        assert out.knowledge.coverage(out.underloaded) > 0.8

    def test_overloaded_never_advertised(self):
        sys_ = System(16)
        out, _ = event_inform_stage(sys_, loads_two_hot(), fanout=3, rounds=4)
        assert not out.knowledge.rows[:, 0].any()
        assert not out.knowledge.rows[:, 1].any()

    def test_elapsed_time_positive_and_small(self):
        sys_ = System(16)
        _, elapsed = event_inform_stage(sys_, loads_two_hot(), fanout=3, rounds=4)
        # Gossip is a lightweight protocol: microseconds to milliseconds.
        assert 0 < elapsed < 0.1

    def test_message_bound(self):
        n = 32
        sys_ = System(n)
        out, _ = event_inform_stage(sys_, loads_two_hot(n), fanout=3, rounds=4)
        # Coalesced per (rank, round): at most P*k forwards of f messages
        # plus the U initiator sends.
        assert out.n_messages <= n * 4 * 3 + (n - 2) * 3

    def test_no_underloaded_is_quiet(self):
        sys_ = System(8)
        out, _ = event_inform_stage(sys_, np.ones(8))
        assert out.n_messages == 0
        assert out.knowledge.counts().sum() == 0

    def test_deterministic_given_streams(self):
        def run():
            sys_ = System(16)
            return event_inform_stage(
                sys_, loads_two_hot(), fanout=3, rounds=4, streams=RankStreams(16, seed=5)
            )

        (a, a_elapsed), (b, b_elapsed) = run(), run()
        np.testing.assert_array_equal(a.knowledge.rows, b.knowledge.rows)
        assert a.n_messages == b.n_messages
        assert a_elapsed == b_elapsed

    def test_result_carries_the_load_snapshot(self):
        sys_ = System(16)
        loads = loads_two_hot()
        res, _ = event_inform_stage(sys_, loads, fanout=3, rounds=4)
        assert res.average_load == loads.mean()
        np.testing.assert_array_equal(res.load_snapshot, loads)
        assert res.load_snapshot is not loads

    def test_coverage_comparable_to_phase_level(self):
        # Event-level and phase-level gossip should reach similar
        # knowledge coverage for the same (f, k).
        loads = loads_two_hot(64)
        sys_ = System(64)
        event, _ = event_inform_stage(sys_, loads, fanout=4, rounds=6)
        phase = run_inform_stage(loads, GossipConfig(fanout=4, rounds=6), rng=0)
        assert abs(event.knowledge.coverage(event.underloaded) - phase.coverage()) < 0.3

    def test_wrong_load_count(self):
        sys_ = System(4)
        with pytest.raises(ValueError, match="one load per rank"):
            event_inform_stage(sys_, np.ones(3))

    @pytest.mark.parametrize(
        "loads", [np.array([[3.0, 0.1], [0.2, 0.3]]), np.ones((4, 1))], ids=["2x2", "Px1"]
    )
    def test_non_1d_loads_rejected(self, loads):
        # Both have one value per rank of a 4-rank system; neither is 1-D.
        with pytest.raises(ValueError, match=re.escape(f"got shape {loads.shape}")):
            event_inform_stage(System(4), loads)
