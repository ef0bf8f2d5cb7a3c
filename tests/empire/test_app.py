"""Integration tests for repro.empire.app (the Fig. 2 configurations)."""

import pytest

from repro.empire.app import CONFIGURATION_LABELS, EmpireConfig, EmpireRun, run_empire


def small(name, **kw):
    defaults = dict(
        configuration=name,
        n_ranks=36,
        colors_per_rank=6,
        n_steps=60,
        lb_period=20,
        initial_particles=4000,
        injection_per_step=40,
        n_trials=1,
        n_iters=3,
    )
    defaults.update(kw)
    return EmpireConfig(**defaults)


class TestConfig:
    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError, match="configuration"):
            EmpireConfig(configuration="magic")

    def test_nonpositive_workers_rejected_at_construction(self):
        with pytest.raises(ValueError, match="n_workers"):
            EmpireConfig(n_workers=0)
        assert EmpireConfig(n_workers=2).lb.n_workers == 2
        with pytest.raises(TypeError):  # the backend is resolved, not chosen
            EmpireConfig(executor="process")

    def test_labels_cover_paper_configs(self):
        assert CONFIGURATION_LABELS["spmd"] == "SPMD (no AMT)"
        assert "TemperedLB" in CONFIGURATION_LABELS["tempered"]

    def test_with_configuration(self):
        cfg = small("spmd").with_configuration("greedy")
        assert cfg.configuration == "greedy"
        assert cfg.n_ranks == 36


class TestRunEmpire:
    @pytest.mark.parametrize("name", list(CONFIGURATION_LABELS))
    def test_all_configurations_run(self, name):
        run = run_empire(small(name))
        assert run.series.n_phases == 60
        assert run.t_total > 0
        assert run.t_total == pytest.approx(
            run.t_particle + run.t_nonparticle + run.t_lb, rel=1e-9
        )

    def test_spmd_has_no_lb_cost(self):
        run = run_empire(small("spmd"))
        assert run.t_lb == 0.0
        assert run.extra["lb_invocations"] == 0

    def test_amt_overhead_vs_spmd(self):
        spmd = run_empire(small("spmd"))
        amt = run_empire(small("amt"))
        assert amt.t_particle == pytest.approx(1.23 * spmd.t_particle, rel=0.01)
        assert amt.t_nonparticle == pytest.approx(spmd.t_nonparticle)

    def test_balanced_configs_beat_spmd_particle_time(self):
        spmd = run_empire(small("spmd"))
        for name in ("greedy", "hier", "tempered"):
            run = run_empire(small(name))
            assert run.t_particle < spmd.t_particle, name

    def test_lb_invocations_follow_schedule(self):
        run = run_empire(small("greedy"))
        # steps 2, 20, 40 (period 20 within 60 steps)
        assert run.extra["lb_invocations"] == 3

    def test_breakdown_row(self):
        run = run_empire(small("tempered"))
        row = run.breakdown()
        assert row["Type"] == "AMT w/TemperedLB"
        assert set(row) == {"Type", "t_n", "t_p", "t_lb", "t_total"}

    def test_deterministic(self):
        a = run_empire(small("tempered"))
        b = run_empire(small("tempered"))
        assert a.t_total == b.t_total
