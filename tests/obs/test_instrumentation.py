"""Integration tests: the registry threaded through every layer.

Covers the acceptance criterion: a TemperedLB run on the synthetic
time-varying workload exports per-iteration accepted/rejected transfer
counts and gossip message totals as JSON; without a registry, LB
outputs are byte-identical to pre-change behavior.
"""

import functools

import numpy as np
import pytest

from repro import Distribution, StatsRegistry, TemperedConfig, TemperedLB
from repro.analysis.io import load_stats, save_stats, stats_to_csv
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.transfer import transfer_stage
from repro.runtime import AMTRuntime, LBManager
from repro.sim.engine import Engine
from repro.sim.messages import Message
from repro.sim.process import System
from repro.workloads import MovingHotspot, paper_analysis_scenario


class TestCoreStages:
    def test_inform_stage_records_counters_and_series(self):
        loads = np.ones(32)
        loads[:4] = 10.0
        reg = StatsRegistry()
        result = run_inform_stage(
            loads, GossipConfig(fanout=3, rounds=4), rng=0, registry=reg
        )
        assert reg.counter("gossip.stages") == 1
        assert reg.counter("gossip.messages") == result.n_messages > 0
        assert reg.counter("gossip.bytes") == result.bytes_sent
        (row,) = reg.series_rows("gossip.stage")
        assert row["underloaded"] == 28
        assert row["coverage"] == pytest.approx(result.coverage())
        assert row["max_known"] >= row["mean_known"] > 0

    def test_inform_stage_records_even_when_balanced(self):
        reg = StatsRegistry()
        run_inform_stage(np.ones(8), rng=0, registry=reg)
        assert reg.counter("gossip.stages") == 1
        assert reg.counter("gossip.messages") == 0

    @pytest.mark.parametrize(
        "config",
        [
            GossipConfig(fanout=3, rounds=6),
            GossipConfig(fanout=3, rounds=6, max_known=8, trim_policy="lowest"),
            GossipConfig(
                fanout=3, rounds=6, max_known=2, trim_policy="lowest",
                knowledge="sparse",
            ),
        ],
        ids=["rank-order-rows", "priority-rows", "sorted-arrays"],
    )
    def test_round_timing_only_under_a_registry(self, config, monkeypatch):
        from repro.core import gossip as gossip_module

        loads = np.ones(96)
        loads[:6] = 12.0
        rng = np.random.default_rng(4)
        timed = run_inform_stage(loads, config, rng, registry=StatsRegistry())
        timed_state = rng.bit_generator.state
        assert set(timed.per_round_seconds) == {"sample", "merge", "trim"}
        for layer in timed.per_round_seconds.values():
            assert len(layer) == timed.rounds_run == len(timed.per_round_messages)
            assert all(seconds >= 0.0 for seconds in layer)
        assert sum(timed.per_round_seconds["sample"]) > 0.0
        assert timed.finish_seconds >= 0.0

        # Off (no registry) the loop never reads the clock, and it draws
        # and decides the same.
        def no_clock():
            raise AssertionError("perf_counter read with timing off")

        monkeypatch.setattr(gossip_module, "perf_counter", no_clock)
        rng = np.random.default_rng(4)
        plain = run_inform_stage(loads, config, rng, registry=None)
        assert plain.per_round_seconds == {} and plain.finish_seconds == 0.0
        assert rng.bit_generator.state == timed_state
        np.testing.assert_array_equal(plain.knowledge.rows, timed.knowledge.rows)
        assert plain.per_round_messages == timed.per_round_messages
        assert (plain.n_messages, plain.bytes_sent) == (
            timed.n_messages, timed.bytes_sent,
        )

    def test_round_timing_lands_in_the_stage_series(self):
        loads = np.ones(32)
        loads[:4] = 10.0
        reg = StatsRegistry()
        result = run_inform_stage(
            loads, GossipConfig(fanout=3, rounds=4), rng=0, registry=reg
        )
        (row,) = reg.series_rows("gossip.stage")
        for layer, seconds in result.per_round_seconds.items():
            assert row[f"{layer}_s"] == pytest.approx(sum(seconds))
        assert row["finish_s"] == result.finish_seconds

    def test_merges_skipped_counts_deliveries_to_complete_rows(self, monkeypatch):
        from repro.core import knowledge as knowledge_module

        loads = np.ones(64)
        loads[:4] = 12.0
        want = []
        merge = knowledge_module._PackedStore.merge

        def spy(self, receivers, bounds, payloads, src):
            want.append(int(np.diff(bounds)[self.complete[receivers]].sum()))
            merge(self, receivers, bounds, payloads, src)

        monkeypatch.setattr(knowledge_module._PackedStore, "merge", spy)
        config = GossipConfig(knowledge="packed")
        reg = StatsRegistry()
        result = run_inform_stage(loads, config, rng=0, registry=reg)
        (row,) = reg.series_rows("gossip.stage")
        assert row["merges_skipped"] == result.merges_skipped == sum(want) > 0
        # Counted only under a registry.
        assert run_inform_stage(loads, config, rng=0).merges_skipped == 0

    def test_transfer_stage_counters_match_stats(self):
        dist = paper_analysis_scenario(n_tasks=300, n_loaded_ranks=4, n_ranks=32, seed=1)
        loads = dist.rank_loads()
        rng = np.random.default_rng(2)
        gossip = run_inform_stage(loads, GossipConfig(fanout=4, rounds=6), rng)
        assignment = dist.assignment.copy()
        reg = StatsRegistry()
        stats = transfer_stage(assignment, dist.task_loads, gossip, rng=rng, registry=reg)
        assert reg.counter("transfer.accepted") == stats.transfers > 0
        assert reg.counter("transfer.rejected") == stats.rejections
        assert reg.counter("transfer.proposed") == stats.proposed
        assert reg.counter("transfer.cmf_builds") == stats.cmf_builds > 0
        assert reg.counter("transfer.overloaded_ranks") == stats.overloaded_ranks

    def test_refinement_series_matches_records(self):
        dist = paper_analysis_scenario(n_tasks=300, n_loaded_ranks=4, n_ranks=32, seed=1)
        reg = StatsRegistry()
        lb = TemperedLB(n_trials=2, n_iters=3).instrument(reg)
        result = lb.rebalance(dist, rng=np.random.default_rng(0))
        rows = reg.series_rows("lb.iteration")
        assert len(rows) == len(result.records) == 6
        for row, rec in zip(rows, result.records):
            assert (row["trial"], row["iteration"]) == (rec.trial, rec.iteration)
            assert row["accepted"] == rec.transfers
            assert row["rejected"] == rec.rejections
            assert row["gossip_messages"] == rec.gossip_messages
        assert reg.counter("gossip.messages") == sum(
            r.gossip_messages for r in result.records
        )
        (refinement_event,) = reg.events_of("lb.refinement")
        assert refinement_event.fields["best_imbalance"] == pytest.approx(
            min(result.final_imbalance, result.initial_imbalance)
        )
        (rebalance_event,) = reg.events_of("lb.rebalance")
        assert rebalance_event.fields["strategy"] == "TemperedLB"

    def test_refinement_records_stage_wall_timers(self):
        dist = paper_analysis_scenario(n_tasks=300, n_loaded_ranks=4, n_ranks=32, seed=1)
        reg = StatsRegistry()
        lb = TemperedLB(n_trials=2, n_iters=3).instrument(reg)
        lb.rebalance(dist, rng=np.random.default_rng(0))
        assert reg.timers["wall.inform"] > 0.0
        assert reg.timers["wall.transfer"] > 0.0
        assert reg.timers["wall.refinement"] > 0.0
        # The full refinement loop dominates any single stage.
        assert reg.timers["wall.refinement"] >= reg.timers["wall.transfer"]

    def test_incremental_cmf_counters_and_equivalence(self):
        """Incremental CMF maintenance replaces rebuilds with point
        updates and proposes the same assignment as full rebuilds (the
        test-side rebuild-per-accept oracle)."""
        from tests.core.oracles import transfer_stage_lists

        dist = paper_analysis_scenario(n_tasks=300, n_loaded_ranks=4, n_ranks=32, seed=1)
        loads = dist.rank_loads()
        gossip = run_inform_stage(
            loads, GossipConfig(fanout=4, rounds=6), np.random.default_rng(2)
        )
        outcomes = {}
        for mode, stage in (
            ("rebuild", functools.partial(transfer_stage_lists, rebuild_cmf=True)),
            ("incremental", transfer_stage),
        ):
            assignment = dist.assignment.copy()
            reg = StatsRegistry()
            stats = stage(
                assignment,
                dist.task_loads,
                gossip,
                rng=np.random.default_rng(3),
                registry=reg,
            )
            outcomes[mode] = (assignment, stats, reg)
        rebuild_asg, rebuild_stats, rebuild_reg = outcomes["rebuild"]
        incr_asg, incr_stats, incr_reg = outcomes["incremental"]
        assert np.array_equal(rebuild_asg, incr_asg)
        assert rebuild_stats.transfers == incr_stats.transfers
        assert rebuild_stats.rejections == incr_stats.rejections
        assert rebuild_reg.counter("transfer.cmf_updates") == 0
        assert incr_reg.counter("transfer.cmf_updates") == incr_stats.cmf_updates > 0
        assert incr_stats.cmf_builds < rebuild_stats.cmf_builds


class TestAcceptanceCriterion:
    """TemperedLB + time-varying workload -> JSON with per-iteration counts."""

    def test_time_varying_run_exports_json(self, tmp_path):
        hotspot = MovingHotspot(n_tasks=400, speed=0.02)
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, 4, size=400)
        reg = StatsRegistry()
        lb = TemperedLB(n_trials=1, n_iters=3).instrument(reg)
        for phase in range(3):
            dist = Distribution(hotspot.loads(phase), assignment, 32)
            assignment = lb.rebalance(dist, rng=rng).assignment

        path = tmp_path / "stats.json"
        save_stats(reg, path)
        payload = load_stats(path)
        rows = payload.series_rows("lb.iteration")
        assert len(rows) == 9  # 3 phases x 1 trial x 3 iterations
        for row in rows:
            assert row["accepted"] >= 0 and row["rejected"] >= 0
            assert row["accepted"] + row["rejected"] == row["proposed"]
        assert payload.counter("gossip.messages") == sum(
            row["gossip_messages"] for row in rows
        )
        assert payload.counter("transfer.accepted") == sum(
            row["accepted"] for row in rows
        )

    def test_csv_export_is_flat_and_complete(self, tmp_path):
        reg = StatsRegistry()
        reg.inc("c", 2)
        reg.gauge("g", 1.5)
        reg.add_time("t", 0.25)
        reg.observe("s", x=1)
        reg.event("e", time=1.0, rank=2, value=3)
        path = tmp_path / "stats.csv"
        stats_to_csv(reg, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind,name,index,field,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "gauge", "timer", "series", "event"}

    def test_no_registry_is_byte_identical(self):
        """Determinism contract vs. the pre-instrumentation behavior."""
        dist = paper_analysis_scenario(n_tasks=250, n_loaded_ranks=4, n_ranks=32, seed=5)
        a = TemperedLB(n_trials=2, n_iters=3).rebalance(dist, rng=np.random.default_rng(9))
        b = TemperedLB(n_trials=2, n_iters=3).rebalance(dist, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.assignment.tobytes() == b.assignment.tobytes()


class TestSimLayer:
    def test_engine_records_run_aggregates(self):
        reg = StatsRegistry()
        engine = Engine(registry=reg)
        for i in range(5):
            engine.schedule(0.1 * (i + 1), lambda: None)
        engine.run(until=0.35)
        assert reg.counter("engine.events") == 3
        assert reg.gauges["engine.queue_depth"] == 2
        assert reg.timers["engine.sim_time"] == pytest.approx(0.35)
        engine.run()
        assert reg.counter("engine.events") == 5
        assert reg.counter("engine.runs") == 2
        assert reg.gauges["engine.queue_depth"] == 0  # last write wins locally

    def test_system_counts_messages_by_tag_and_link(self):
        reg = StatsRegistry()
        system = System(4, registry=reg)
        received = []
        for proc in system.processes:
            proc.register("ping", lambda p, m: received.append(p.rank))
        system.processes[0].send(1, "ping", size=100)  # same node (4 ranks/node)
        system.processes[0].send(2, "ping", size=50)
        system.run()
        assert reg.counter("net.messages.ping") == 2
        assert reg.counter("net.bytes.ping") == 150
        assert reg.counter("net.links.intra") == 2
        assert received == [1, 2]


    def test_burst_counters_tags_first_then_links_in_first_seen_order(self):
        reg = StatsRegistry()
        system = System(8, registry=reg)  # 4 ranks per node
        for proc in system.processes:
            for tag in ("a", "b"):
                proc.register(tag, lambda p, m: None)
        system.transmit_many(
            [
                Message(0, 0, "b", size=10),  # self
                Message(0, 5, "a", size=20),  # inter
                Message(1, 2, "b", size=30),  # intra
                Message(4, 6, "a", size=40),  # intra
            ]
        )
        assert list(reg.counters.items()) == [
            ("net.messages.b", 2),
            ("net.bytes.b", 40),
            ("net.messages.a", 2),
            ("net.bytes.a", 60),
            ("net.links.self", 1),
            ("net.links.inter", 1),
            ("net.links.intra", 2),
        ]

    def test_episode_net_counters_pinned(self):
        """Every ``net.*`` counter of a 16-rank episode (barriers,
        reductions, inform, Safra tokens, migration), in the order the
        registry first saw it."""
        reg = StatsRegistry()
        dist = paper_analysis_scenario(n_tasks=256, n_loaded_ranks=2, n_ranks=16, seed=3)
        runtime = AMTRuntime(
            16, dist.task_loads, dist.assignment, task_overhead=1e-3, registry=reg
        )
        runtime.execute_phase()
        config = TemperedConfig(n_trials=1, n_iters=2, fanout=3, rounds=3)
        LBManager(runtime, config, seed=4, registry=reg).run_episode()
        runtime.execute_phase()
        net = [(k, v) for k, v in reg.counters.items() if k.startswith("net.")]
        assert net == NET_EPISODE_COUNTERS


#: ``TestSimLayer.test_episode_net_counters_pinned``'s counters.
NET_EPISODE_COUNTERS = [
    ("net.messages.__barrier_up_1", 15),
    ("net.bytes.__barrier_up_1", 240),
    ("net.links.intra", 319),
    ("net.links.inter", 581),
    ("net.messages.__barrier_down_1", 15),
    ("net.bytes.__barrier_down_1", 240),
    ("net.messages.__allreduce_up_1", 15),
    ("net.bytes.__allreduce_up_1", 480),
    ("net.messages.__allreduce_down_1", 15),
    ("net.bytes.__allreduce_down_1", 480),
    ("net.messages.inform_1", 135),
    ("net.bytes.inform_1", 10176),
    ("net.messages.__safra_token_1", 48),
    ("net.bytes.__safra_token_1", 768),
    ("net.messages.__allreduce_up_2", 15),
    ("net.bytes.__allreduce_up_2", 480),
    ("net.messages.__allreduce_down_2", 15),
    ("net.bytes.__allreduce_down_2", 480),
    ("net.messages.inform_2", 105),
    ("net.bytes.inform_2", 6960),
    ("net.messages.__safra_token_2", 48),
    ("net.bytes.__safra_token_2", 768),
    ("net.messages.__allreduce_up_3", 15),
    ("net.bytes.__allreduce_up_3", 480),
    ("net.messages.__allreduce_down_3", 15),
    ("net.bytes.__allreduce_down_3", 480),
    ("net.messages.mig_commit_1", 15),
    ("net.bytes.mig_commit_1", 240),
    ("net.messages.mig_task_1", 192),
    ("net.bytes.mig_task_1", 240865242),
    ("net.messages.__ds_ack_1", 207),
    ("net.bytes.__ds_ack_1", 1656),
    ("net.messages.__barrier_up_2", 15),
    ("net.bytes.__barrier_up_2", 240),
    ("net.messages.__barrier_down_2", 15),
    ("net.bytes.__barrier_down_2", 240),
]


class TestRuntimeLayer:
    def _runtime(self, registry=None):
        rng = np.random.default_rng(0)
        n_ranks, n_tasks = 8, 64
        task_loads = rng.gamma(4.0, 0.002, size=n_tasks)
        assignment = np.zeros(n_tasks, dtype=np.int64)
        return AMTRuntime(
            n_ranks, task_loads, assignment, task_overhead=1e-5, registry=registry
        )

    def test_lbmanager_records_episode_event(self):
        reg = StatsRegistry()
        runtime = self._runtime(registry=reg)
        runtime.execute_phase()
        config = TemperedConfig(n_trials=1, n_iters=2, fanout=3, rounds=4)
        episode = LBManager(runtime, config, seed=1, registry=reg).run_episode()

        (event,) = reg.events_of("lb.episode")
        assert event.fields["initial_imbalance"] == pytest.approx(
            episode.initial_imbalance
        )
        assert event.fields["final_imbalance"] == pytest.approx(episode.final_imbalance)
        assert event.fields["n_migrations"] == episode.n_migrations
        assert event.fields["gossip_messages"] == episode.gossip_messages > 0
        if episode.migration is not None:
            assert event.fields["migration_bytes"] == episode.migration.bytes_moved
            assert reg.counter("episode.migration_bytes") > 0
        assert reg.timers["episode.t_lb"] == pytest.approx(episode.t_lb)
        rows = reg.series_rows("episode.iteration")
        assert len(rows) == 2
        assert reg.counter("episode.iterations") == 2
        # The system-level registry saw the inform traffic by tag.
        inform_msgs = sum(
            v for k, v in reg.counters.items()
            if k.startswith("net.messages.inform_")
        )
        assert inform_msgs == episode.gossip_messages

    def test_lbmanager_without_registry_matches_instrumented_run(self):
        results = []
        for registry in (None, StatsRegistry()):
            runtime = self._runtime()
            runtime.execute_phase()
            config = TemperedConfig(n_trials=1, n_iters=2, fanout=3, rounds=4)
            episode = LBManager(runtime, config, seed=1, registry=registry).run_episode()
            results.append(episode)
        np.testing.assert_array_equal(results[0].assignment, results[1].assignment)
        assert results[0].t_lb == results[1].t_lb
