"""The PIC timestep loop: SPMD and AMT execution modes.

Per timestep (matching § VI-A's structure):

1. particles move and new plasma is injected (the B-Dot scenario), and
   the particles are counted per color. With a balancer attached and a
   second usable core this *physics* runs ahead in a forked worker
   (:class:`repro.util.parallel.RunAhead`) while the steps below run
   here; otherwise the same generator runs inline. It is safe to split
   because the physics never reads what the steps below write — the
   balancer sees only the previous step's loads (the principle of
   persistence) — and the results are bit-identical either way;
2. *particle update*: per-color loads execute on their assigned ranks —
   pinned to home ranks in SPMD mode, migratable in AMT mode (which
   pays the tasking overhead that makes "AMT without LB" ~23% slower);
3. *non-particle update*: the SPMD field solve, balanced by
   construction;
4. on LB steps (AMT mode with a balancer), the balancer runs on the
   *previous* step's instrumented loads (principle of persistence) and
   its decision + migration cost is charged to the step — the spikes of
   Fig. 4a.

The per-step costs are computed analytically (vectorized over ranks)
rather than event-by-event; the event-level runtime in
:mod:`repro.runtime` validates the same protocol costs at smaller scale
(see DESIGN.md § 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.analysis.series import PhaseSeries
from repro.core.base import LBResult, LoadBalancer
from repro.core.distribution import Distribution
from repro.core.metrics import imbalance, lower_bound_max_load
from repro.empire.bdot import BDotScenario
from repro.empire.fields import FieldSolveModel
from repro.empire.mesh import Mesh2D
from repro.empire.workload import ColorWorkloadModel
from repro.util.parallel import RunAhead, can_fork_worker
from repro.util.validation import check_in, check_nonnegative, coerce_rng

__all__ = ["LBCostModel", "PICSimulation", "default_lb_schedule"]


@dataclass(frozen=True)
class LBCostModel:
    """Analytic cost of one LB episode (decision + migration).

    Calibrated so ``t_lb`` is a small fraction of application time with
    migration dominating, as in Fig. 3.
    """

    round_latency: float = 2e-3  #: one async gossip round across the machine
    reduce_latency: float = 1e-3  #: one allreduce / barrier
    message_cpu: float = 2e-6  #: CPU per gossip message handled
    sort_op_seconds: float = 1e-6  #: centralized per-element sort/heap op
    bytes_per_particle: float = 2e3  #: migration payload per particle
    color_fixed_bytes: float = 4e6  #: sub-mesh + metadata per color
    bandwidth: float = 1.2e10  #: per-rank migration bandwidth
    rdma_resize_seconds: float = 0.05  #: post-LB buffer reconfiguration

    def decision_seconds(self, result: LBResult, n_ranks: int, rounds: int) -> float:
        """Time spent deciding (gossip or centralized/hierarchical)."""
        if result.records:
            # Gossip family: each stage is an inform (k async rounds) plus an
            # imbalance-evaluation allreduce; message handling is spread
            # across ranks.
            stages = len(result.records)
            messages = sum(r.gossip_messages for r in result.records)
            return (
                stages * (rounds * self.round_latency + self.reduce_latency)
                + messages * self.message_cpu / max(n_ranks, 1)
            )
        n_tasks = result.assignment.size
        if result.strategy == "GreedyLB":
            # Centralized: gather everything, heap-assign serially at one rank.
            gather = 2 * self.reduce_latency + n_tasks * 16 / self.bandwidth
            serial = n_tasks * max(math.log2(max(n_tasks, 2)), 1.0) * self.sort_op_seconds
            return gather + serial
        if result.strategy == "HierLB":
            levels = result.extra.get("tree_depth", max(int(math.log2(max(n_ranks, 2))), 1))
            per_level = self.reduce_latency + (
                n_tasks / max(n_ranks, 1) * 64 * self.sort_op_seconds
            )
            return levels * per_level
        # Unknown strategy: charge a generic allreduce.
        return self.reduce_latency

    def migration_seconds(
        self,
        moves_mask: np.ndarray,
        old_assignment: np.ndarray,
        new_assignment: np.ndarray,
        color_particles: np.ndarray,
        n_ranks: int,
    ) -> float:
        """Max per-rank (in+out) migration volume over bandwidth."""
        if not moves_mask.any():
            return 0.0
        moved = np.flatnonzero(moves_mask)
        sizes = self.color_fixed_bytes + self.bytes_per_particle * color_particles[moved]
        out_bytes = np.bincount(old_assignment[moved], weights=sizes, minlength=n_ranks)
        in_bytes = np.bincount(new_assignment[moved], weights=sizes, minlength=n_ranks)
        return float((out_bytes + in_bytes).max() / self.bandwidth) + self.rdma_resize_seconds


def default_lb_schedule(period: int = 100, first: int = 2) -> Callable[[int], bool]:
    """The paper's schedule: LB on step 2, then every ``period`` steps."""
    def schedule(step: int) -> bool:
        return step == first or (step > first and step % period == 0)

    return schedule


class PICSimulation:
    """Drive the EMPIRE surrogate for a number of timesteps.

    The scenario must own its state — its random stream included — and
    hand it over through ``get_state()`` / ``set_state(state)``: when the
    physics runs in a worker, the worker's final population rows and
    scenario state are copied back at the end of :meth:`run`, so a
    stream shared with a collaborator here would be drawn twice.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        scenario: BDotScenario,
        workload: ColorWorkloadModel | None = None,
        fields: FieldSolveModel | None = None,
        mode: str = "spmd",
        balancer: LoadBalancer | None = None,
        lb_schedule: Callable[[int], bool] | None = None,
        amt_overhead: float = 0.23,
        lb_cost: LBCostModel | None = None,
        seed: int | np.random.Generator | None = 0,
        allow_spmd_repartition: bool = False,
        rank_speeds: np.ndarray | None = None,
    ) -> None:
        check_in("mode", mode, ("spmd", "amt"))
        check_nonnegative("amt_overhead", amt_overhead)
        if mode == "spmd" and balancer is not None and not allow_spmd_repartition:
            # Colors are pinned under plain SPMD; the one exception is the
            # conventional synchronous-repartitioning baseline (§ VI-A),
            # which re-decomposes the SPMD mesh itself.
            raise ValueError(
                "SPMD mode cannot load balance (colors are pinned); pass "
                "allow_spmd_repartition=True for the repartitioning baseline"
            )
        self.mesh = mesh
        self.scenario = scenario
        self.workload = workload or ColorWorkloadModel()
        self.fields = fields or FieldSolveModel()
        self.mode = mode
        self.balancer = balancer
        self.lb_schedule = lb_schedule or default_lb_schedule()
        self.amt_overhead = float(amt_overhead)
        self.lb_cost = lb_cost or LBCostModel()
        self.rng = coerce_rng(seed)
        if rank_speeds is None:
            self.rank_speeds = np.ones(mesh.n_ranks)
        else:
            self.rank_speeds = np.ascontiguousarray(rank_speeds, dtype=np.float64)
            if self.rank_speeds.shape != (mesh.n_ranks,):
                raise ValueError("need one speed per rank")
            if self.rank_speeds.min() <= 0:
                raise ValueError("rank speeds must be positive")
        self.assignment = mesh.home_assignment()
        self.population = scenario.initialize()
        self._last_loads: np.ndarray | None = None
        self.lb_invocations = 0
        #: Wall seconds of the physics (scenario step and colour count),
        #: timed where it ran, and of the loop blocked waiting for it.
        self.physics_s = 0.0
        self.physics_wait_s = 0.0

    # -- helpers ------------------------------------------------------------

    def _particle_rank_times(self, loads: np.ndarray) -> np.ndarray:
        per_rank = np.bincount(self.assignment, weights=loads, minlength=self.mesh.n_ranks)
        if self.mode == "amt":
            per_rank = per_rank * (1.0 + self.amt_overhead)
        return per_rank / self.rank_speeds

    # -- main loop ------------------------------------------------------------

    def run(self, n_steps: int, series: PhaseSeries | None = None) -> PhaseSeries:
        """Execute ``n_steps`` timesteps, returning the per-step series.

        Series metrics: ``t_step, t_particle, t_nonparticle, t_lb,
        max_load, min_load, avg_load, lower_bound, imbalance,
        n_particles, migrations``. If a step raises, the series keeps
        the steps before it and the simulation must be discarded.
        """
        series = series or PhaseSeries()
        mesh = self.mesh
        n_ranks = mesh.n_ranks
        forked = self.balancer is not None and can_fork_worker()
        width = mesh.n_colors + 1
        with RunAhead(self._physics(n_steps), width, self._physics_state, forked) as physics:
            for step, row in enumerate(physics):
                counts = row[:-1]
                loads = self.workload.loads_from_counts(mesh, counts)

                t_lb = 0.0
                migrations = 0
                if (
                    self.balancer is not None
                    and self._last_loads is not None
                    and self.lb_schedule(step)
                ):
                    t_lb, migrations = self._run_lb(counts)

                rank_particle = self._particle_rank_times(loads)
                t_particle = float(rank_particle.max())
                field_times = self.fields.step_time(mesh.cells_per_rank(), n_ranks)
                t_nonparticle = float(field_times.max())

                series.record(
                    t_step=t_particle + t_nonparticle + t_lb,
                    t_particle=t_particle,
                    t_nonparticle=t_nonparticle,
                    t_lb=t_lb,
                    max_load=float(rank_particle.max()),
                    min_load=float(rank_particle.min()),
                    avg_load=float(rank_particle.mean()),
                    lower_bound=lower_bound_max_load(rank_particle, loads),
                    imbalance=imbalance(rank_particle),
                    n_particles=float(row[-1]),
                    migrations=float(migrations),
                )
                # Instrumentation records *measured durations*: on slow ranks
                # a color looks heavier (cf. AMTRuntime's heterogeneity model).
                self._last_loads = loads / self.rank_speeds[self.assignment]
        if physics.result is not None:
            positions, velocities, scenario_state = physics.result
            self.population.replace_rows(positions, velocities)
            self.scenario.set_state(scenario_state)
        self.physics_s += physics.busy_s
        self.physics_wait_s += physics.wait_s
        return series

    def _physics(self, n_steps: int) -> Iterator[np.ndarray]:
        """Step 1 of each timestep: the colour counts, then the particle count.

        Reads and writes only the scenario and the population, so it may
        run in another process.
        """
        mesh, population = self.mesh, self.population
        for step in range(n_steps):
            if step > 0:
                self.scenario.step(population, step)
            row = np.empty(mesh.n_colors + 1, dtype=np.int64)
            row[:-1] = population.count_per_color(mesh)
            row[-1] = population.count
            yield row

    def _physics_state(self) -> tuple[np.ndarray, np.ndarray, Any]:
        """What a worker hands back: the live particle rows and the
        scenario's own state (not the collaborator objects)."""
        return self.population.positions, self.population.velocities, self.scenario.get_state()

    def _run_lb(self, counts: np.ndarray) -> tuple[float, int]:
        """One LB episode on the previous step's instrumented loads."""
        assert self.balancer is not None and self._last_loads is not None
        dist = Distribution(self._last_loads, self.assignment, self.mesh.n_ranks)
        result = self.balancer.rebalance(dist, rng=self.rng)
        moves_mask = result.assignment != self.assignment
        # Only the gossip family reports inform stages, and it charges
        # the rounds its config runs.
        rounds = self.balancer.config.gossip.rounds if result.records else 0
        decision = self.lb_cost.decision_seconds(result, self.mesh.n_ranks, rounds)
        migration = self.lb_cost.migration_seconds(
            moves_mask, self.assignment, result.assignment, counts, self.mesh.n_ranks
        )
        self.assignment = result.assignment.copy()
        self.lb_invocations += 1
        return decision + migration, int(moves_mask.sum())
