"""Unit tests for repro.empire.pic (the timestep loop)."""

import numpy as np
import pytest

from repro.core.greedy import GreedyLB
from repro.core.tempered import TemperedLB
from repro.empire.bdot import BDotScenario
from repro.empire.mesh import Mesh2D
from repro.empire.pic import LBCostModel, PICSimulation, default_lb_schedule


def make_sim(mode="amt", balancer=None, n_ranks=16, **kw):
    mesh = Mesh2D(n_ranks, colors_per_rank=4)
    scen = BDotScenario(initial_particles=2000, injection_per_step=20, seed=0)
    return PICSimulation(mesh, scen, mode=mode, balancer=balancer, seed=1, **kw)


class TestSchedule:
    def test_default_schedule(self):
        sched = default_lb_schedule(period=100, first=2)
        assert sched(2)
        assert not sched(3)
        assert sched(100) and sched(200)
        assert not sched(0) and not sched(1) and not sched(150)


class TestPICSimulation:
    def test_spmd_rejects_balancer(self):
        with pytest.raises(ValueError, match="SPMD"):
            make_sim(mode="spmd", balancer=GreedyLB())

    def test_series_metrics_present(self):
        s = make_sim(mode="spmd").run(5)
        for key in ("t_step", "t_particle", "t_nonparticle", "t_lb", "imbalance"):
            assert key in s.keys()
        assert s.n_phases == 5

    def test_amt_overhead_increases_particle_time(self):
        spmd = make_sim(mode="spmd").run(5)
        amt = make_sim(mode="amt", amt_overhead=0.25).run(5)
        ratio = amt.series("t_particle").sum() / spmd.series("t_particle").sum()
        assert ratio == pytest.approx(1.25, rel=0.01)

    def test_lb_reduces_particle_time(self):
        nolb = make_sim(mode="amt").run(60)
        lb = make_sim(
            mode="amt",
            balancer=GreedyLB(),
            lb_schedule=default_lb_schedule(period=20, first=2),
        ).run(60)
        assert lb.series("t_particle")[30:].sum() < nolb.series("t_particle")[30:].sum()

    def test_lb_cost_appears_as_spike(self):
        sim = make_sim(
            mode="amt",
            balancer=GreedyLB(),
            lb_schedule=default_lb_schedule(period=50, first=2),
        )
        s = sim.run(10)
        t_lb = s.series("t_lb")
        assert t_lb[2] > 0
        assert (t_lb[[0, 1, 3, 4, 5]] == 0).all()
        assert sim.lb_invocations == 1

    def test_no_lb_before_first_instrumented_step(self):
        # LB needs a previous phase's loads: a schedule firing at step 0
        # must be skipped silently.
        sim = make_sim(mode="amt", balancer=GreedyLB(), lb_schedule=lambda s: True)
        series = sim.run(3)
        assert series.series("t_lb")[0] == 0.0
        assert series.series("t_lb")[1] > 0.0

    def test_migrations_recorded(self):
        sim = make_sim(
            mode="amt",
            balancer=GreedyLB(),
            lb_schedule=default_lb_schedule(period=100, first=2),
        )
        s = sim.run(5)
        assert s.series("migrations")[2] > 0

    def test_lower_bound_never_exceeds_max(self):
        s = make_sim(mode="amt").run(20)
        assert (s.series("lower_bound") <= s.series("max_load") + 1e-12).all()

    def test_particle_count_grows(self):
        s = make_sim(mode="spmd").run(10)
        n = s.series("n_particles")
        assert n[-1] > n[0]

    def test_tempered_balancer_integration(self):
        sim = make_sim(
            mode="amt",
            balancer=TemperedLB(n_trials=1, n_iters=2, fanout=3, rounds=4),
            lb_schedule=default_lb_schedule(period=10, first=2),
            n_ranks=16,
        )
        s = sim.run(30)
        assert s.series("imbalance")[25] < s.series("imbalance")[1]

    def test_lb_step_charges_the_configured_gossip_rounds(self, monkeypatch):
        balancer = TemperedLB(n_trials=1, n_iters=2, fanout=3, rounds=4)
        results, migrations = [], []
        rebalance, migration_seconds = balancer.rebalance, LBCostModel.migration_seconds

        def record_result(dist, rng=None):
            results.append(rebalance(dist, rng=rng))
            return results[-1]

        def record_migration(self, *args):
            migrations.append(migration_seconds(self, *args))
            return migrations[-1]

        monkeypatch.setattr(balancer, "rebalance", record_result)
        monkeypatch.setattr(LBCostModel, "migration_seconds", record_migration)
        sim = make_sim(balancer=balancer, lb_schedule=lambda step: step == 2)
        t_lb = sim.run(4).series("t_lb")
        decision = LBCostModel().decision_seconds(results[0], sim.mesh.n_ranks, rounds=4)
        assert t_lb[2] == decision + migrations[0]


class TestHeterogeneousRanks:
    def test_speed_validation(self):
        with pytest.raises(ValueError, match="one speed per rank"):
            make_sim(rank_speeds=np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            make_sim(rank_speeds=np.zeros(16))

    def test_slow_ranks_raise_particle_time(self):
        uniform = make_sim(mode="spmd").run(5)
        speeds = np.ones(16)
        speeds[:8] = 0.5
        slow = make_sim(mode="spmd", rank_speeds=speeds).run(5)
        assert slow.series("t_particle").sum() > uniform.series("t_particle").sum()

    def test_balancer_compensates_for_slow_ranks(self):
        speeds = np.ones(16)
        speeds[:8] = 0.5
        nolb = make_sim(mode="amt", rank_speeds=speeds).run(40)
        lb = make_sim(
            mode="amt",
            balancer=GreedyLB(),
            lb_schedule=default_lb_schedule(period=10, first=2),
            rank_speeds=speeds,
        ).run(40)
        assert (
            lb.series("t_particle")[20:].sum()
            < 0.8 * nolb.series("t_particle")[20:].sum()
        )


class TestLBCostModel:
    def test_migration_cost_zero_without_moves(self):
        cost = LBCostModel()
        old = np.array([0, 1])
        assert (
            cost.migration_seconds(np.zeros(2, bool), old, old, np.array([5, 5]), 2)
            == 0.0
        )

    def test_migration_cost_scales_with_particles(self):
        cost = LBCostModel(rdma_resize_seconds=0.0)
        old = np.array([0, 0])
        new = np.array([1, 0])
        small = cost.migration_seconds(
            np.array([True, False]), old, new, np.array([10, 0]), 2
        )
        big = cost.migration_seconds(
            np.array([True, False]), old, new, np.array([10_000_000, 0]), 2
        )
        assert big > small

    def test_decision_cost_gossip_scales_with_stages(self):
        from repro.core.base import IterationRecord, LBResult

        def result_with(n_records):
            return LBResult(
                strategy="TemperedLB",
                assignment=np.zeros(10, dtype=int),
                initial_imbalance=1.0,
                final_imbalance=0.5,
                n_migrations=0,
                records=[
                    IterationRecord(1, i + 1, 0, 0, 0.5, gossip_messages=10)
                    for i in range(n_records)
                ],
            )

        cost = LBCostModel()
        assert cost.decision_seconds(result_with(8), 16, 10) > cost.decision_seconds(
            result_with(1), 16, 10
        )

    def test_decision_cost_greedy_scales_with_tasks(self):
        from repro.core.base import LBResult

        def greedy_result(n_tasks):
            return LBResult(
                strategy="GreedyLB",
                assignment=np.zeros(n_tasks, dtype=int),
                initial_imbalance=1.0,
                final_imbalance=0.0,
                n_migrations=0,
            )

        cost = LBCostModel()
        assert cost.decision_seconds(greedy_result(10_000), 16, 10) > cost.decision_seconds(
            greedy_result(100), 16, 10
        )
