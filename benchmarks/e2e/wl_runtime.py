"""``runtime_256``: one op = one ``LBManager.run_episode`` on the
discrete-event engine.

The same protocol as the phase workloads, used differently: per-message,
asynchronous, Safra termination, every send an engine event. A change to
``repro.core`` that helps the phase driver but costs the event driver
(or the reverse) shows as opposite moves here and on ``phase_4k``.
"""

from __future__ import annotations

import time
from typing import Any

from harness import (
    Outcome,
    Tracer,
    check_assignment,
    check_unmutated,
    migrated,
    speedup,
)
from repro.core.tempered import TemperedConfig
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.lbmanager import LBManager
from repro.workloads import paper_analysis_scenario

OP = "runtime.lbmanager.run_episode"


class RuntimeWorkload:
    name = "runtime_256"

    def __init__(self, quick: bool) -> None:
        self.nominal_op_s = 0.1 if quick else 1.6
        self.n_tasks, self.n_loaded, self.n_ranks = (1024, 4, 64) if quick else (4096, 16, 256)
        self.config = TemperedConfig(n_trials=1, n_iters=3)
        self.meta = {
            "n_tasks": self.n_tasks,
            "n_loaded": self.n_loaded,
            "n_ranks": self.n_ranks,
            "n_iters": self.config.n_iters,
        }

    def prepare(self, seed: int) -> dict[str, Any]:
        start = time.perf_counter()
        dist = paper_analysis_scenario(self.n_tasks, self.n_loaded, self.n_ranks, seed=seed)
        generate_s = time.perf_counter() - start
        return {
            "dist": dist,
            "lb_seed": seed + 1,
            "generate_s": generate_s,
            "task_loads": dist.task_loads.copy(),
            "assignment": dist.assignment.copy(),
        }

    def run(self, inputs: dict[str, Any], tracer: Tracer | None = None) -> Outcome:
        dist = inputs["dist"]
        # The episode consumes its runtime (clock, assignment), so each
        # run builds one and instruments a phase first — set-up, untimed.
        registry = StatsRegistry() if tracer is not None else None
        runtime = AMTRuntime(
            self.n_ranks, dist.task_loads, dist.assignment, task_overhead=1e-3, registry=registry
        )
        manager = LBManager(runtime, self.config, seed=inputs["lb_seed"])
        runtime.execute_phase()
        events_before = registry.counter("engine.events") if registry is not None else 0
        start = time.perf_counter()
        if tracer is None:
            result = manager.run_episode()
        else:
            with tracer.span(OP):
                result = manager.run_episode()
        wall = time.perf_counter() - start

        failures, initial, final = check_assignment(
            inputs["task_loads"], inputs["assignment"], result.assignment, self.n_ranks
        )
        failures += check_unmutated("task_loads", inputs["task_loads"], dist.task_loads)
        failures += check_unmutated("assignment", inputs["assignment"], dist.assignment)
        outcome = Outcome(
            wall_s=wall,
            final_imbalance=final,
            migrated_frac=migrated(inputs["assignment"], result.assignment),
            speedup_x=speedup(initial, final),
            rank_iters=self.n_ranks * len(result.records),
            signature=tuple(r.imbalance for r in result.records),
            failures=failures,
        )
        if registry is not None:
            events = registry.counter("engine.events") - events_before
            outcome.layers = {
                "workloads.generate_s": inputs["generate_s"],
                "runtime.episode_s": wall,
                "runtime.gossip_messages": result.gossip_messages,
                "runtime.migrations": result.n_migrations,
                "runtime.model_t_lb_s": result.t_lb,
                "sim.events": events,
                "sim.us_per_event": wall * 1e6 / max(events, 1),
            }
        return outcome

    def microbench(self, inputs: dict[str, Any], outcome: Outcome, tracer: Tracer) -> dict[str, float]:
        return {}
