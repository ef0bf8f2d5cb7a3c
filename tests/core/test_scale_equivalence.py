"""The scaling stack is bit-identical to the reference stack.

``knowledge="sparse"`` gossip + the SoA ``transfer_stage`` exist purely
for memory and wall-time at high rank counts — every decision they make
must be the one the packed-bitmap + list-oracle stack makes. These tests
drive both stacks through full inform+transfer episodes over 20 seeds
at 512 and 4,096 ranks — capped-"lowest" with shards both smaller and
larger than bit rows — and require exact equality of the
knowledge matrix, the per-round sender/message accounting, the transferred
assignment and the stats counters — plus the final state of both the
inform and the transfer generator, so the stacks consume the identical
streams and stay interchangeable mid-episode.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge
from repro.core.tempered import TemperedConfig
from repro.core.transfer import TransferConfig, transfer_stage
from tests.core.oracles import transfer_stage_lists

SEEDS = range(20)


def _scenario(n_ranks, n_tasks, seed):
    rng = np.random.default_rng(seed)
    task_loads = rng.gamma(3.0, 0.3, size=n_tasks)
    # All load on a hot prefix: plenty of overloaded senders and a wide
    # underloaded gossip population.
    assignment = rng.integers(0, max(2, n_ranks // 32), size=n_tasks)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    return assignment, task_loads, loads


def _run_stack(knowledge, stage, loads, assignment, task_loads, gossip_cfg, seed):
    inform_rng = np.random.default_rng(seed + 1)
    gossip = run_inform_stage(
        loads, dataclasses.replace(gossip_cfg, knowledge=knowledge), inform_rng
    )
    moved = np.array(assignment, copy=True)
    rng = np.random.default_rng(seed + 2)
    stats = stage(moved, task_loads, gossip, TransferConfig(), rng)
    states = (inform_rng.bit_generator.state, rng.bit_generator.state)
    return gossip, moved, stats, states


def _assert_episodes_equal(ref, new):
    g_ref, a_ref, s_ref, state_ref = ref
    g_new, a_new, s_new, state_new = new
    np.testing.assert_array_equal(g_new.knowledge.rows, g_ref.knowledge.rows)
    assert g_new.n_messages == g_ref.n_messages
    assert g_new.bytes_sent == g_ref.bytes_sent
    assert g_new.per_round_senders == g_ref.per_round_senders
    assert g_new.per_round_messages == g_ref.per_round_messages
    assert g_new.rounds_run == g_ref.rounds_run
    np.testing.assert_array_equal(a_new, a_ref)
    assert s_new == s_ref  # every counter and every move
    assert state_new == state_ref


class TestStackEquivalence:
    @pytest.mark.parametrize(
        "n_ranks,n_tasks,gossip_cfg",
        [
            (512, 1_500, GossipConfig(fanout=3, rounds=4)),
            (512, 1_500, GossipConfig(fanout=3, rounds=4, max_known=48)),
            (
                512,
                1_500,
                GossipConfig(
                    fanout=3, rounds=4, max_known=48, trim_policy="lowest"
                ),
            ),
            (
                4_096,
                6_000,
                GossipConfig(
                    fanout=3, rounds=3, max_known=64, trim_policy="lowest"
                ),
            ),
            (4_096, 6_000, GossipConfig(fanout=3, rounds=3, max_known=64)),
            # Both sides of a full shard's size against a bit row at
            # each scale: larger at 512/48 and 4,096/256, smaller at
            # 512/8 and 4,096/64.
            (
                512,
                1_500,
                GossipConfig(fanout=3, rounds=4, max_known=8, trim_policy="lowest"),
            ),
            (
                4_096,
                6_000,
                GossipConfig(
                    fanout=3, rounds=3, max_known=256, trim_policy="lowest"
                ),
            ),
        ],
        ids=[
            "512-uncapped", "512-random", "512-lowest", "4k-lowest", "4k-random",
            "512-lowest-arrays", "4k-lowest-bitrows",
        ],
    )
    def test_sparse_soa_equals_packed_lists_20_seeds(
        self, n_ranks, n_tasks, gossip_cfg
    ):
        for seed in SEEDS:
            assignment, task_loads, loads = _scenario(n_ranks, n_tasks, seed)
            ref = _run_stack(
                "packed", transfer_stage_lists, loads, assignment, task_loads,
                gossip_cfg, seed,
            )
            new = _run_stack(
                "sparse", transfer_stage, loads, assignment, task_loads,
                gossip_cfg, seed,
            )
            _assert_episodes_equal(ref, new)


class TestKnowledgeKnob:
    def test_sparse_requires_batched_coalesced(self):
        # Batched and coalesced is all there is: the selectors that
        # could contradict a sparse store no longer exist.
        with pytest.raises(TypeError):
            GossipConfig(knowledge="sparse", engine="batched")
        with pytest.raises(TypeError):
            GossipConfig(knowledge="sparse", mode="coalesced")

    def test_sparse_rejects_bias(self):
        # Bias is the one packed-only feature left (its same-node
        # candidate pass materialises P-wide rows), and the error says
        # so; faults ride the shared round loop on either store.
        from repro.sim.faults import FaultConfig

        with pytest.raises(ValueError, match="P-wide row"):
            GossipConfig(knowledge="sparse", ranks_per_node=8, intra_node_bias=0.5)
        GossipConfig(knowledge="sparse", faults=FaultConfig(loss_rate=0.1))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            GossipConfig(knowledge="csr")

    def test_auto_resolution_rule(self):
        from repro.sim.faults import FaultConfig

        # One rule, under either trim policy: sorted id shards exactly
        # when a bit row (P/8 bytes) outweighs a full shard (4 bytes an
        # id) charged 375 + 19 * sqrt(cap) extra ids.
        for cap, bound in ((16, 32 * (16 + 375 + 76)), (64, 32 * (64 + 375 + 152))):
            for trim in ("random", "lowest"):
                capped = GossipConfig(max_known=cap, trim_policy=trim)
                assert capped.resolve_knowledge(bound) == "packed"
                assert capped.resolve_knowledge(bound + 1) == "sparse"
        # At 8,192 ranks every cap runs bit rows (8,192 and 2,048 keep
        # shards no smaller than bit rows); so does 1,024 ranks at cap 16.
        for cap in (8_192, 2_048, 16, 1):
            assert GossipConfig(max_known=cap).resolve_knowledge(8_192) == "packed"
        assert GossipConfig(max_known=16).resolve_knowledge(1_024) == "packed"
        # No cap -> shards are O(P^2) too; auto stays packed.
        assert GossipConfig().resolve_knowledge(131_072) == "packed"
        # Faults compose with the sparse store, so a capped fault
        # config follows the same rule (active or not).
        for faults in (FaultConfig(loss_rate=0.2, retransmit=True), FaultConfig()):
            faulty = GossipConfig(max_known=512, faults=faults)
            assert faulty.resolve_knowledge(42_142) == "sparse"
            assert faulty.resolve_knowledge(42_141) == "packed"
        # The packed-only feature keeps auto on packed at any rank count.
        biased = GossipConfig(max_known=512, ranks_per_node=8, intra_node_bias=0.5)
        assert biased.resolve_knowledge(131_072) == "packed"
        # Explicit selection wins regardless of rank count.
        assert GossipConfig(knowledge="sparse").resolve_knowledge(8) == "sparse"
        assert (
            GossipConfig(knowledge="packed", max_known=8).resolve_knowledge(131_072)
            == "packed"
        )

    @pytest.mark.parametrize("knob", ["auto", "packed", "sparse"])
    @pytest.mark.parametrize("trim_policy", ["random", "lowest"])
    @pytest.mark.parametrize("cap", [None, 1, 16])
    @pytest.mark.parametrize("n_ranks", [64, 300])
    def test_container_follows_the_store(self, n_ranks, cap, trim_policy, knob):
        _, _, loads = _scenario(n_ranks, 4 * n_ranks, seed=n_ranks)
        config = GossipConfig(
            fanout=3, rounds=4, max_known=cap, trim_policy=trim_policy, knowledge=knob
        )
        result = run_inform_stage(loads, config, np.random.default_rng(0))
        assert result.knowledge_backend == config.resolve_knowledge(n_ranks)
        container = {"packed": PackedKnowledgeBitmap, "sparse": SparseKnowledge}
        assert type(result.knowledge) is container[result.knowledge_backend]

    def test_auto_container_past_the_rule(self):
        # Past 32 * (cap + 375 + 19 * sqrt(cap)) ranks (14,944 at cap
        # 16) ``auto`` runs shards and returns them.
        _, _, loads = _scenario(16_000, 20_000, seed=3)
        config = GossipConfig(fanout=3, rounds=2, max_known=16, trim_policy="lowest")
        result = run_inform_stage(loads, config, np.random.default_rng(0))
        assert result.knowledge_backend == "sparse"
        assert type(result.knowledge) is SparseKnowledge

    def test_explicit_sparse_matches_packed_at_tiny_scale(self):
        # The backend knob is a pure representation choice even far
        # below the auto threshold.
        loads = np.array([9.0, 0.5, 0.25, 0.25, 4.0, 0.0, 1.0, 0.0])
        results = {}
        for backend in ("packed", "sparse"):
            results[backend] = run_inform_stage(
                loads,
                GossipConfig(fanout=2, rounds=3, knowledge=backend),
                np.random.default_rng(5),
            )
        np.testing.assert_array_equal(
            results["sparse"].knowledge.rows, results["packed"].knowledge.rows
        )
        assert results["sparse"].n_messages == results["packed"].n_messages


class TestTemperedPassthrough:
    def test_knobs_reach_stage_configs(self):
        config = TemperedConfig(knowledge="sparse", max_known=128)
        assert config.gossip.knowledge == "sparse"
        assert config.gossip.max_known == 128

    def test_defaults_are_auto_soa_python(self):
        config = TemperedConfig()
        assert config.gossip.knowledge == "auto"

    def test_invalid_knowledge_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TemperedConfig(knowledge="bitset")
        for retired in ("transfer_engine", "gossip_engine", "gossip_mode", "executor"):
            with pytest.raises(TypeError):
                TemperedConfig(**{retired: "auto"})
