"""``empire_400``: one op = one full EMPIRE-surrogate run with LB in the loop.

The paper's headline — time-varying imbalance, TemperedLB invoked 12
times over 300 steps — and the only workload where the surrogate's own
stages (scenario step, per-colour counts, load model, field model) and
the LB cost/benefit are both visible. The ``"spmd"`` twin of each seed
runs in set-up; modelled ``t_total(spmd)/t_total(tempered)`` charges the
LB decision and migration cost against the time recovered.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

import numpy as np

from harness import Outcome, TimedProxy, Tracer, check_unmutated
from repro.core.tempered import TemperedConfig, TemperedLB
from repro.empire.app import EmpireConfig, EmpireRun, run_empire
from repro.empire.bdot import BDotScenario
from repro.empire.fields import FieldSolveModel
from repro.empire.mesh import Mesh2D
from repro.empire.pic import LBCostModel, PICSimulation, default_lb_schedule
from repro.empire.workload import ColorWorkloadModel

OP = "empire.pic.run"
STAGES = {
    "empire.scenario_step_s": "empire.bdot.step",
    "empire.count_s": "empire.particles.count_per_color",
    "empire.loads_s": "empire.workload.loads_from_counts",
    "empire.fields_s": "empire.fields.step_time",
    "empire.lb_s": "core.tempered.rebalance",
}


class _TracedScenario(TimedProxy):
    """The population the scenario creates is a collaborator too."""

    def initialize(self) -> Any:
        population = self._target.initialize()
        return TimedProxy(population, self._tracer, {"count_per_color": STAGES["empire.count_s"]})


class _CheckedBalancer(TimedProxy):
    """Times each LB invocation and checks what it returns."""

    def __init__(self, target: Any, tracer: Tracer, failures: list[str]) -> None:
        super().__init__(target, tracer, {})
        self._failures = failures

    def rebalance(self, dist: Any, rng: Any = None) -> Any:
        with self._tracer.span(STAGES["empire.lb_s"]):
            result = self._target.rebalance(dist, rng=rng)
        if result.assignment.shape != dist.assignment.shape:
            self._failures.append("LB changed the colour count")
        elif result.assignment.min() < 0 or result.assignment.max() >= dist.n_ranks:
            self._failures.append("LB assignment outside [0, n_ranks)")
        # The two are computed along different float paths; an LB that
        # found nothing returns the input and may differ in the last bit.
        if result.final_imbalance > result.initial_imbalance * (1.0 + 1e-9):
            self._failures.append("LB raised the imbalance")
        return result


class EmpireWorkload:
    name = "empire_400"

    def __init__(self, quick: bool) -> None:
        self.nominal_op_s = 0.1 if quick else 5.3
        sizes = (
            dict(n_ranks=64, colors_per_rank=8, n_steps=60, lb_period=10)
            if quick
            else dict(n_ranks=400, colors_per_rank=24, n_steps=300, lb_period=25)
        )
        self.base = EmpireConfig("tempered", n_trials=1, n_iters=4, **sizes)
        schedule = default_lb_schedule(self.base.lb_period, self.base.lb_first_step)
        # LB needs a previous step's loads, so step 0 never balances.
        self.invocations = sum(1 for step in range(1, self.base.n_steps) if schedule(step))
        self.meta = {**sizes, "n_iters": 4, "lb_invocations": self.invocations}

    def prepare(self, seed: int) -> dict[str, Any]:
        config = dataclasses.replace(self.base, seed=seed)
        return {
            "config": config,
            "twin": run_empire(config.with_configuration("spmd")),
            "generate_s": 0.0,  # the app generates its own particles
        }

    def run(self, inputs: dict[str, Any], tracer: Tracer | None = None) -> Outcome:
        config: EmpireConfig = inputs["config"]
        twin: EmpireRun = inputs["twin"]
        failures: list[str] = []
        start = time.perf_counter()
        if tracer is None:
            run = run_empire(config)
        else:
            with tracer.span(OP):
                run = self._run_traced(config, tracer, failures)
        wall = time.perf_counter() - start

        series = run.series
        n_colors = config.n_ranks * config.colors_per_rank
        invocations = run.extra["lb_invocations"]
        migrations = series.series("migrations")
        after_lb = slice(config.lb_first_step, None)
        final = float(np.mean(series.series("imbalance")[after_lb]))
        initial = float(np.mean(twin.series.series("imbalance")[after_lb]))
        if len(series.series("t_step")) != config.n_steps:
            failures.append("step count differs from n_steps")
        if invocations != self.invocations:
            failures.append(f"{invocations} LB invocations, schedule has {self.invocations}")
        if not np.isfinite(run.t_total) or run.t_total <= 0.0:
            failures.append("t_total not finite and positive")
        if migrations.max() > n_colors:
            failures.append("more migrations than colours in one invocation")
        if final > initial:
            failures.append(f"mean imbalance above the SPMD twin's: {final} > {initial}")
        # The twin is the same scenario: LB must not perturb the input.
        failures += check_unmutated(
            "particle series", twin.series.series("n_particles"), series.series("n_particles")
        )
        outcome = Outcome(
            wall_s=wall,
            final_imbalance=final,
            migrated_frac=float(migrations.sum()) / (n_colors * max(invocations, 1)),
            speedup_x=twin.t_total / run.t_total,
            rank_iters=config.n_ranks * invocations * config.n_iters,
            signature=(run.t_total,),
            failures=failures,
        )
        if tracer is not None:
            op = tracer.op
            stage_s = {metric: tracer.total(span, op) for metric, span in STAGES.items()}
            outcome.layers = {
                "workloads.generate_s": inputs["generate_s"],
                **stage_s,
                "empire.lb_share": stage_s["empire.lb_s"] / wall,
                "empire.lb_invocations": invocations,
                "empire.closure": sum(stage_s.values()) / wall,
                "empire.model_lb_frac": run.t_lb / run.t_total,
                "empire.particle_speedup_x": twin.t_particle / run.t_particle,
            }
        return outcome

    def _run_traced(self, config: EmpireConfig, tracer: Tracer, failures: list[str]) -> EmpireRun:
        """``run_empire`` for the structured-mesh TemperedLB case, with
        a timing proxy around each of ``PICSimulation``'s collaborators."""
        mesh = Mesh2D(config.n_ranks, colors_per_rank=config.colors_per_rank)
        scenario = BDotScenario(
            initial_particles=config.initial_particles,
            injection_per_step=config.injection_per_step,
            seed=config.seed,
        )
        balancer = TemperedLB(
            TemperedConfig(
                n_trials=config.n_trials,
                n_iters=config.n_iters,
                fanout=config.fanout,
                rounds=config.rounds,
                ordering=config.ordering,
            )
        )
        sim = PICSimulation(
            mesh,
            _TracedScenario(scenario, tracer, {"step": STAGES["empire.scenario_step_s"]}),
            workload=TimedProxy(ColorWorkloadModel(), tracer, {"loads_from_counts": STAGES["empire.loads_s"]}),
            fields=TimedProxy(FieldSolveModel(seed=config.seed + 1), tracer, {"step_time": STAGES["empire.fields_s"]}),
            mode="amt",
            balancer=_CheckedBalancer(balancer, tracer, failures),
            lb_schedule=default_lb_schedule(config.lb_period, config.lb_first_step),
            amt_overhead=config.amt_overhead,
            lb_cost=LBCostModel(),
            seed=config.seed + 2,
        )
        series = sim.run(config.n_steps)
        if sim.assignment.shape != (mesh.n_colors,) or sim.assignment.max() >= config.n_ranks:
            failures.append("final colour assignment malformed")
        return EmpireRun(config=config, series=series, extra={"lb_invocations": sim.lb_invocations})

    def microbench(self, inputs: dict[str, Any], outcome: Outcome, tracer: Tracer) -> dict[str, float]:
        return {}
