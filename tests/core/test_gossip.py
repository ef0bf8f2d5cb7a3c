"""Unit tests for repro.core.gossip (Algorithm 1, phase level)."""

import re

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage


def loads_with_two_overloaded(n=16):
    """Ranks 0 and 1 heavily loaded; the rest light."""
    loads = np.ones(n)
    loads[0] = loads[1] = 10.0
    return loads


class TestConfigValidation:
    def test_bad_mode(self):
        # Forwarding is always coalesced; there is no mode to pick.
        with pytest.raises(TypeError):
            GossipConfig(mode="coalesced")

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            GossipConfig(rounds=-1)


class TestInformStage:
    def test_underloaded_mask(self):
        loads = loads_with_two_overloaded()
        res = run_inform_stage(loads, GossipConfig(), rng=0)
        assert not res.underloaded[0] and not res.underloaded[1]
        assert res.underloaded[2:].all()

    def test_self_knowledge_seeded(self):
        loads = loads_with_two_overloaded()
        res = run_inform_stage(loads, GossipConfig(rounds=1, fanout=1), rng=0)
        for r in range(2, 16):
            assert r in res.knowledge.known(r)

    def test_overloaded_ranks_not_advertised(self):
        loads = loads_with_two_overloaded()
        res = run_inform_stage(loads, GossipConfig(), rng=0)
        # No rank should ever learn that rank 0 or 1 is underloaded.
        assert not res.knowledge.rows[:, 0].any()
        assert not res.knowledge.rows[:, 1].any()

    def test_knowledge_subset_of_underloaded(self):
        loads = np.arange(32, dtype=float)
        res = run_inform_stage(loads, GossipConfig(), rng=1)
        under = np.flatnonzero(res.underloaded)
        for p in range(32):
            assert set(res.knowledge.known(p)) <= set(under)

    def test_full_coverage_with_enough_rounds(self):
        # k >= log_f P with healthy fanout: coverage should be ~1.
        loads = loads_with_two_overloaded(64)
        res = run_inform_stage(loads, GossipConfig(fanout=4, rounds=8), rng=2)
        assert res.coverage() > 0.9

    def test_fewer_rounds_less_coverage(self):
        loads = loads_with_two_overloaded(256)
        few = run_inform_stage(loads, GossipConfig(fanout=2, rounds=1), rng=3)
        many = run_inform_stage(loads, GossipConfig(fanout=2, rounds=8), rng=3)
        assert few.coverage() < many.coverage()

    def test_message_count_bounded_coalesced(self):
        loads = loads_with_two_overloaded(64)
        cfg = GossipConfig(fanout=3, rounds=4)
        res = run_inform_stage(loads, cfg, rng=0)
        # At most P senders * f messages per round.
        assert res.n_messages <= 64 * 3 * 4
        assert res.rounds_run <= 4
        assert sum(res.per_round_messages) == res.n_messages

    def test_bytes_accounting_positive(self):
        loads = loads_with_two_overloaded()
        res = run_inform_stage(loads, GossipConfig(rounds=2, fanout=2), rng=0)
        assert res.bytes_sent > res.n_messages  # headers + payload

    def test_no_underloaded_ranks(self):
        res = run_inform_stage(np.ones(8), GossipConfig(), rng=0)
        assert res.n_messages == 0
        assert res.knowledge.counts().sum() == 0

    def test_average_load_override(self):
        loads = np.ones(8)
        res = run_inform_stage(loads, GossipConfig(), rng=0, average_load=2.0)
        assert res.underloaded.all()

    def test_empty_loads_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_inform_stage(np.array([]), GossipConfig(), rng=0)

    @pytest.mark.parametrize(
        "loads", [np.array([[3.0, 0.1], [0.2, 0.3]]), np.ones((8, 1))], ids=["2x2", "Px1"]
    )
    def test_non_1d_loads_rejected(self, loads):
        with pytest.raises(ValueError, match=re.escape(f"got shape {loads.shape}")):
            run_inform_stage(loads, GossipConfig(), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        loads = loads_with_two_overloaded(32)
        a = run_inform_stage(loads, GossipConfig(), rng=42)
        b = run_inform_stage(loads, GossipConfig(), rng=42)
        np.testing.assert_array_equal(a.knowledge.rows, b.knowledge.rows)
        assert a.n_messages == b.n_messages
