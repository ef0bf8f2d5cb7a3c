"""EMPIRE on the event-level runtime — the full co-simulation.

The long 400-rank benchmark runs use the analytic per-step cost path
(:mod:`repro.empire.pic`); this module runs the *same application loop*
entirely inside the discrete-event AMT runtime at tractable scales:
every phase executes color tasks on simulated ranks with a tree
barrier, instrumentation feeds the LB manager, and LB episodes run as
real message protocols (statistics all-reduce, asynchronous gossip with
Safra termination, per-color migrations). It is the fidelity anchor the
phase-level cost model is calibrated against (DESIGN.md § 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.series import PhaseSeries
from repro.core.tempered import TemperedConfig
from repro.empire.bdot import BDotScenario
from repro.empire.mesh import Mesh2D
from repro.empire.pic import default_lb_schedule
from repro.empire.workload import ColorWorkloadModel
from repro.runtime.amt import AMTRuntime
from repro.runtime.lbmanager import LBManager, check_event_level
from repro.util.validation import check_positive, route_knobs

__all__ = ["VtEmpireConfig", "VtEmpireResult", "run_vt_empire"]


@route_knobs("lb")
@dataclass(frozen=True)
class VtEmpireConfig:
    """Parameters for an event-level EMPIRE run (keep scales small:
    every task execution and protocol message is a simulated event).
    Balancer knobs given flat route to ``lb``."""

    n_ranks: int = 16
    colors_per_rank: int = 8
    n_steps: int = 40
    lb_period: int = 10
    lb_first_step: int = 2
    initial_particles: int = 4000
    injection_per_step: int = 40
    task_overhead: float = 1e-4
    #: The balancer :class:`LBManager` runs (see :func:`check_event_level`).
    lb: TemperedConfig = TemperedConfig(n_trials=1, n_iters=3, fanout=4, rounds=5)
    bytes_per_unit_load: float = 1e7
    balance: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("n_ranks", self.n_ranks)
        check_positive("n_steps", self.n_steps)
        check_event_level(self.lb)


@dataclass
class VtEmpireResult:
    """Per-step series plus protocol accounting of an event-level run."""

    series: PhaseSeries
    total_time: float  #: simulated seconds, end to end
    lb_time: float  #: simulated seconds spent in LB episodes
    lb_episodes: int = 0
    gossip_messages: int = 0
    migrations: int = 0


def run_vt_empire(config: VtEmpireConfig | None = None) -> VtEmpireResult:
    """Drive the EMPIRE surrogate through the event-level runtime."""
    config = config or VtEmpireConfig()
    mesh = Mesh2D(config.n_ranks, colors_per_rank=config.colors_per_rank)
    scenario = BDotScenario(
        initial_particles=config.initial_particles,
        injection_per_step=config.injection_per_step,
        seed=config.seed,
    )
    workload = ColorWorkloadModel()
    population = scenario.initialize()
    loads = workload.loads_from_counts(mesh, population.count_per_color(mesh))

    runtime = AMTRuntime(
        config.n_ranks,
        loads,
        mesh.home_assignment(),
        task_overhead=config.task_overhead,
    )
    manager = LBManager(
        runtime,
        config.lb,
        seed=config.seed + 1,
        bytes_per_unit_load=config.bytes_per_unit_load,
    )
    schedule = default_lb_schedule(config.lb_period, config.lb_first_step)

    series = PhaseSeries()
    result = VtEmpireResult(series=series, total_time=0.0, lb_time=0.0)
    start = runtime.system.engine.now
    for step in range(config.n_steps):
        if step > 0:
            scenario.step(population, step)
            runtime.set_task_loads(
                workload.loads_from_counts(mesh, population.count_per_color(mesh))
            )
        t_lb = 0.0
        migrations = 0
        if config.balance and step > 0 and schedule(step):
            episode = manager.run_episode()
            t_lb = episode.t_lb
            migrations = episode.n_migrations
            result.lb_episodes += 1
            result.gossip_messages += episode.gossip_messages
            result.migrations += episode.n_migrations
            result.lb_time += episode.t_lb
        phase = runtime.execute_phase()
        series.record(
            t_step=phase.duration + t_lb,
            t_particle=phase.makespan,
            t_lb=t_lb,
            imbalance=phase.imbalance(),
            migrations=float(migrations),
            n_particles=float(population.count),
        )
    result.total_time = runtime.system.engine.now - start
    return result
