"""The batched inform driver vs the set-based oracle of Algorithm 1.

The batched driver draws a whole round's targets at once, so it cannot
be bit-identical to a per-sender transcription
(:func:`tests.core.oracles.inform_oracle`); equivalence is contractual
instead:

* both obey the ``f x |senders|`` message model exactly whenever
  candidate sets suffice;
* coverage distributions over many seeds are statistically
  indistinguishable;
* every structural invariant of the inform stage (self-seeding,
  underloaded-only knowledge, trailing-round semantics, the knowledge
  cap) holds identically.
"""

import numpy as np
import pytest

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.knowledge import PackedKnowledgeBitmap
from repro.perf.bench import LADDER_MAX_KNOWN, SCALE_RUNGS, _message_model_exact
from repro.workloads.synthetic import paper_analysis_scenario
from tests.core.oracles import inform_oracle, member_sets

IMPLS = {"oracle": inform_oracle, "batched": run_inform_stage}


def loads_mixed(n, n_over=2, seed=0):
    """``n_over`` heavy ranks, the rest light (underloaded)."""
    loads = np.ones(n)
    loads[:n_over] = 10.0
    return loads


def run(loads, seed=0, impl="batched", **kw):
    return IMPLS[impl](loads, GossipConfig(**kw), np.random.default_rng(seed))


class TestEngineSelection:
    def test_bad_engine_rejected(self):
        # One driver per store: the selectors are gone, not defaulted.
        for retired in ({"engine": "batched"}, {"mode": "coalesced"}, {"max_messages": 10}):
            with pytest.raises(TypeError):
                GossipConfig(**retired)

    def test_batched_is_default_and_packed(self):
        result = run(loads_mixed(32))
        assert isinstance(result.knowledge, PackedKnowledgeBitmap)

        assert result.knowledge_backend == "packed"


class TestBatchedInvariants:
    """The TestInformStage invariants, re-run on the batched engine."""

    def test_deterministic_given_seed(self):
        a = run(loads_mixed(64), seed=5)
        b = run(loads_mixed(64), seed=5)
        np.testing.assert_array_equal(a.knowledge.rows, b.knowledge.rows)
        assert a.n_messages == b.n_messages
        assert a.per_round_messages == b.per_round_messages

    def test_self_knowledge_seeded(self):
        result = run(loads_mixed(32))
        for rank in np.flatnonzero(result.underloaded):
            assert rank in result.knowledge.known(rank)

    def test_knowledge_subset_of_underloaded(self):
        result = run(loads_mixed(48, n_over=5))
        known_any = result.knowledge.rows.any(axis=0)
        assert not known_any[~result.underloaded].any()

    def test_full_coverage_with_enough_rounds(self):
        # k >= log_f P with healthy fanout: coverage should be ~1.
        result = run(loads_mixed(64), fanout=4, rounds=8)
        assert result.coverage() > 0.9

    def test_no_underloaded_ranks(self):
        result = run(np.ones(16))  # all at average: nobody is underloaded
        assert result.n_messages == 0
        assert result.coverage() == 1.0

    def test_message_count_bounded(self):
        n, f, k = 64, 4, 6
        result = run(loads_mixed(n), fanout=f, rounds=k)
        assert 0 < result.n_messages <= n * f * k

    def test_max_known_cap_respected(self):
        for policy in ("random", "lowest"):
            result = run(
                loads_mixed(64), fanout=4, rounds=6,
                max_known=5, trim_policy=policy,
            )
            assert result.knowledge.counts().max() <= 5

    def test_topology_bias_keeps_messages_local(self):
        kw = dict(fanout=4, rounds=4, ranks_per_node=8)
        flat = run(loads_mixed(64), seed=3, intra_node_bias=0.0, **kw)
        biased = run(loads_mixed(64), seed=3, intra_node_bias=0.9, **kw)
        assert biased.n_messages > 0
        assert (
            biased.inter_node_messages / biased.n_messages
            < flat.inter_node_messages / flat.n_messages
        )


class TestMessageModel:
    """Driver and oracle emit exactly ``f * |senders|`` messages per
    round whenever every sender has at least ``f`` candidates."""

    @pytest.mark.parametrize("impl", IMPLS)
    def test_saturating_regime_is_exact(self, impl):
        # avoid_known off keeps candidate sets at P-1 >= f forever.
        f = 4
        result = run(
            loads_mixed(32), fanout=f, rounds=5, avoid_known=False,
            impl=impl,
        )
        assert len(result.per_round_messages) == len(result.per_round_senders)
        for msgs, senders in zip(
            result.per_round_messages, result.per_round_senders
        ):
            assert msgs == f * senders

    @pytest.mark.parametrize("knowledge", ["packed", "sparse"])
    def test_4k_ladder_rung_is_exact(self, knowledge):
        # The bench's 4k rung inputs (cap 512, "lowest" trim, k = 10):
        # candidate sets never run dry there, so every round sends
        # exactly f x |senders| on both stores, and the rung's
        # per-store message-model bit reads the same.
        spec = SCALE_RUNGS["4k"]
        dist = paper_analysis_scenario(
            spec["tasks_full"], spec["n_loaded"], spec["n_ranks"], seed=0
        )
        loads = np.bincount(
            dist.assignment, weights=dist.task_loads, minlength=dist.n_ranks
        )
        config = GossipConfig(
            knowledge=knowledge, rounds=10, max_known=LADDER_MAX_KNOWN,
            trim_policy="lowest",
        )
        result = run_inform_stage(
            loads, config, np.random.default_rng(1),
            average_load=dist.average_load,
        )
        assert result.knowledge_backend == knowledge
        assert len(result.per_round_messages) == config.rounds
        assert result.per_round_messages == [
            config.fanout * s for s in result.per_round_senders
        ]
        assert _message_model_exact(result, config.fanout)

    @pytest.mark.parametrize("impl", IMPLS)
    def test_general_regime_is_bounded(self, impl):
        # With avoid_known, late-round candidate sets can drop below f:
        # the model becomes an upper bound per round.
        f = 6
        result = run(loads_mixed(24), fanout=f, rounds=8, impl=impl)
        for msgs, senders in zip(
            result.per_round_messages, result.per_round_senders
        ):
            assert 0 < msgs <= f * senders

    def test_first_round_counts_agree_exactly(self):
        # Round 1 is deterministic in size: every seed sends f messages
        # in both, before any RNG-dependent receiver sets can diverge.
        kw = dict(fanout=3, rounds=4)
        oracle = run(loads_mixed(40), seed=1, impl="oracle", **kw)
        batched = run(loads_mixed(40), seed=1, impl="batched", **kw)
        assert oracle.per_round_messages[0] == batched.per_round_messages[0]
        assert oracle.per_round_senders[0] == batched.per_round_senders[0]


class TestCoverageEquivalence:
    """Coverage distributions over >= 20 seeds match the oracle's."""

    @pytest.mark.parametrize(
        "n_ranks,fanout,rounds",
        [(64, 4, 6), (256, 6, 6)],
        ids=["small", "medium"],
    )
    def test_distributions_match(self, n_ranks, fanout, rounds):
        loads = loads_mixed(n_ranks, n_over=max(2, n_ranks // 16))
        cov = {impl: [] for impl in IMPLS}
        for seed in range(20):
            for impl in IMPLS:
                result = run(
                    loads, seed=seed, fanout=fanout, rounds=rounds,
                    impl=impl,
                )
                cov[impl].append(result.coverage())
        means = {e: np.mean(c) for e, c in cov.items()}
        stds = {e: np.std(c) for e, c in cov.items()}
        # Same regime: high coverage, means within a combined standard
        # error's reach, spreads of the same order.
        assert means["oracle"] > 0.9 and means["batched"] > 0.9
        sem = np.hypot(*(stds[e] / np.sqrt(20) for e in IMPLS))
        assert abs(means["oracle"] - means["batched"]) < max(3 * sem, 0.01)

    def test_message_totals_match_statistically_over_seeds(self):
        # |senders| per round is itself stochastic (the set of distinct
        # receivers), so totals agree in distribution, not seed by
        # seed: compare means over 20 seeds.
        loads = loads_mixed(64)
        totals = {e: [] for e in IMPLS}
        for seed in range(20):
            for e in IMPLS:
                totals[e].append(
                    run(
                        loads, seed=seed, fanout=4, rounds=5,
                        avoid_known=False, impl=e,
                    ).n_messages
                )
        means = {e: np.mean(t) for e, t in totals.items()}
        assert abs(means["oracle"] - means["batched"]) / means["oracle"] < 0.02


class TestRoundSemantics:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_seeding_round_ignores_avoid_known(self, impl):
        # Alg. 1 l.10: a seed's knowledge is exactly itself, so P \ S^p
        # and P \ {p} coincide — with rounds=1 the avoid_known knob must
        # not change anything, draw for draw.
        loads = loads_mixed(32)
        on = run(loads, seed=9, rounds=1, avoid_known=True, impl=impl)
        off = run(loads, seed=9, rounds=1, avoid_known=False, impl=impl)
        assert member_sets(on.knowledge) == member_sets(off.knowledge)
        assert on.n_messages == off.n_messages

    @pytest.mark.parametrize("impl", IMPLS)
    def test_no_trailing_empty_rounds(self, impl):
        # P=2: the single underloaded rank saturates knowledge in one
        # round; later rounds carry nothing and must not be recorded.
        loads = np.array([10.0, 1.0])
        result = run(loads, fanout=2, rounds=6, impl=impl)
        assert result.per_round_messages, "the seeding round must remain"
        assert result.per_round_messages[-1] > 0
        if impl == "batched":
            assert result.rounds_run == len(result.per_round_messages)
        assert len(result.per_round_senders) == len(result.per_round_messages)
