"""The three phase-level workloads: one op = one ``iterative_refinement``.

``phase_4k`` is the paper's § V analysis scale on the packed store (the
mixed baseline), ``phase_8k_capped`` the smallest rung where ``auto``
resolves to the fused sparse driver (inform-bound), and
``transfer_256_dense`` ~50k tasks per overloaded rank on 256 ranks
(transfer-bound: the bypass workload for any inform optimisation).
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Any

import numpy as np

from harness import (
    Outcome,
    Tracer,
    check_assignment,
    check_unmutated,
    micro_us,
    migrated,
    speedup,
)
from repro.core.cmf import IncrementalCMF, build_cmf
from repro.core.gossip import GossipConfig, resolve_auto_threshold, run_inform_stage
from repro.core.knowledge import SparseKnowledge
from repro.core.metrics import imbalance
from repro.core.ordering import order_tasks
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig, transfer_stage
from repro.workloads import paper_analysis_scenario

OP = "core.refinement.op"
INFORM = "core.gossip.run_inform_stage"
TRANSFER = "core.transfer.transfer_stage"


class PhaseWorkload:
    def __init__(
        self,
        name: str,
        nominal_op_s: float,
        n_tasks: int,
        n_loaded: int,
        n_ranks: int,
        gossip: GossipConfig,
        n_iters: int,
    ) -> None:
        self.name = name
        self.nominal_op_s = nominal_op_s
        self.n_tasks, self.n_loaded, self.n_ranks = n_tasks, n_loaded, n_ranks
        self.gossip = gossip
        self.transfer = TransferConfig()
        self.n_iters = n_iters
        self.meta = {
            "n_tasks": n_tasks,
            "n_loaded": n_loaded,
            "n_ranks": n_ranks,
            "n_iters": n_iters,
            "knowledge_backend": gossip.resolve_knowledge(n_ranks),
            "auto_threshold": resolve_auto_threshold(gossip.kernel),
        }

    def prepare(self, seed: int) -> dict[str, Any]:
        start = time.perf_counter()
        dist = paper_analysis_scenario(self.n_tasks, self.n_loaded, self.n_ranks, seed=seed)
        generate_s = time.perf_counter() - start
        return {
            "dist": dist,
            # The balancer's own stream; never the generator's seed.
            "lb_seed": [seed, 1],
            "generate_s": generate_s,
            "task_loads": dist.task_loads.copy(),
            "assignment": dist.assignment.copy(),
        }

    def run(self, inputs: dict[str, Any], tracer: Tracer | None = None) -> Outcome:
        dist = inputs["dist"]
        rng = np.random.default_rng(inputs["lb_seed"])
        extra: dict[str, Any] = {}
        start = time.perf_counter()
        if tracer is None:
            result = iterative_refinement(
                dist, n_trials=1, n_iters=self.n_iters,
                gossip=self.gossip, transfer=self.transfer, rng=rng,
            )
            wall = time.perf_counter() - start
            assignment = result.best_assignment
            signature = tuple(r.imbalance for r in result.records)
        else:
            with tracer.span(OP):
                assignment, signature, extra = self._refine_traced(dist, rng, tracer)
            wall = time.perf_counter() - start

        failures, initial, final = check_assignment(
            inputs["task_loads"], inputs["assignment"], assignment, self.n_ranks
        )
        failures += check_unmutated("task_loads", inputs["task_loads"], dist.task_loads)
        failures += check_unmutated("assignment", inputs["assignment"], dist.assignment)
        outcome = Outcome(
            wall_s=wall,
            final_imbalance=final,
            migrated_frac=migrated(inputs["assignment"], assignment),
            speedup_x=speedup(initial, final),
            rank_iters=self.n_ranks * len(signature),
            signature=signature,
            failures=failures,
            extra=extra,
        )
        if tracer is not None:
            outcome.layers = self._layers(inputs, outcome, tracer)
        return outcome

    def _refine_traced(
        self, dist: Any, rng: np.random.Generator, tracer: Tracer
    ) -> tuple[np.ndarray, tuple[float, ...], dict[str, Any]]:
        """Alg. 3's loop as ``iterative_refinement`` runs it for one
        trial — same calls, same shared RNG — with a span per stage."""
        task_loads, n_ranks = dist.task_loads, dist.n_ranks
        l_ave = dist.average_load
        working = np.array(dist.assignment, copy=True)
        best, best_imbalance = np.array(working, copy=True), dist.imbalance()
        informs, stages, imbalances = [], [], []
        for _ in range(self.n_iters):
            loads = np.bincount(working, weights=task_loads, minlength=n_ranks)
            with tracer.span(INFORM):
                inform = run_inform_stage(loads, self.gossip, rng, average_load=l_ave)
            with tracer.span(TRANSFER):
                stats = transfer_stage(working, task_loads, inform, self.transfer, rng)
            loads = np.bincount(working, weights=task_loads, minlength=n_ranks)
            proposed = imbalance(loads)
            imbalances.append(proposed)
            informs.append(inform)
            stages.append(stats)
            if proposed < best_imbalance:
                best_imbalance, best = proposed, np.array(working, copy=True)
        return best, tuple(imbalances), {"informs": informs, "stages": stages}

    def _layers(self, inputs: dict[str, Any], outcome: Outcome, tracer: Tracer) -> dict[str, float]:
        op, wall = tracer.op, outcome.wall_s
        informs, stages = outcome.extra["informs"], outcome.extra["stages"]
        inform_s, transfer_s = tracer.total(INFORM, op), tracer.total(TRANSFER, op)
        messages = sum(i.n_messages for i in informs)
        proposed = sum(s.proposed for s in stages)
        accepted = sum(s.transfers for s in stages)
        return {
            "workloads.generate_s": inputs["generate_s"],
            "core.gossip.inform_s": inform_s,
            "core.gossip.inform_share": inform_s / wall,
            "core.gossip.messages": messages,
            "core.gossip.bytes": sum(i.bytes_sent for i in informs),
            "core.gossip.us_per_message": inform_s * 1e6 / max(messages, 1),
            "core.gossip.coverage": informs[-1].coverage(),
            "core.cmf.builds": sum(s.cmf_builds for s in stages),
            "core.cmf.updates": sum(s.cmf_updates for s in stages),
            "core.transfer.stage_s": transfer_s,
            "core.transfer.stage_share": transfer_s / wall,
            "core.transfer.proposed": proposed,
            "core.transfer.accepted": accepted,
            "core.transfer.accept_ratio": accepted / max(proposed, 1),
            "core.transfer.us_per_proposal": transfer_s * 1e6 / max(proposed, 1),
            "core.refinement.overhead_s": tracer.self_time(OP, op),
            "core.refinement.stage_closure": (inform_s + transfer_s) / wall,
        }

    def microbench(self, inputs: dict[str, Any], outcome: Outcome, tracer: Tracer) -> dict[str, float]:
        """Per-call costs of the inner layers, on a real sender's state:
        the heaviest rank of the initial assignment and what the first
        inform stage taught it."""
        dist = inputs["dist"]
        first, last = outcome.extra["informs"][0], outcome.extra["informs"][-1]
        l_ave = dist.average_load
        loads = dist.rank_loads()
        sender = int(np.argmax(loads))
        out: dict[str, float] = {}

        # By-round split: same loads, same stream, k = 3, 7, 10.
        walls = []
        for rounds in (3, 7, 10):
            config = dataclasses.replace(self.gossip, rounds=rounds)
            _, seconds = tracer.timed(
                f"{INFORM}[rounds={rounds}]", run_inform_stage,
                loads, config, np.random.default_rng(inputs["lb_seed"]), average_load=l_ave,
            )
            walls.append(seconds)
        out["core.gossip.rounds_1_3_s"] = walls[0]
        out["core.gossip.rounds_4_7_s"] = walls[1] - walls[0]
        out["core.gossip.rounds_8_10_s"] = walls[2] - walls[1]

        candidates = first.knowledge.known(sender)
        candidates = candidates[candidates != sender]
        known_loads = first.load_snapshot[candidates]
        out["core.cmf.build_us"] = micro_us(lambda: build_cmf(known_loads, l_ave), calls=5)
        sampler = IncrementalCMF(known_loads, l_ave)
        rng = np.random.default_rng(0)
        out["core.cmf.sample_us"] = micro_us(lambda: sampler.sample(rng), calls=500)
        # Point updates that leave l_s alone, as an accepted transfer
        # does: nudge one under-average recipient at a time.
        nudge = 1e-9 * l_ave
        cursor = itertools.count()

        def update() -> None:
            index = next(cursor) % known_loads.size
            sampler.update(index, float(sampler.loads[index]) + nudge)

        out["core.cmf.update_us"] = micro_us(update, calls=500)

        tasks = np.flatnonzero(dist.assignment == sender)
        out["core.ordering.order_us"] = micro_us(
            lambda: order_tasks(self.transfer.ordering, tasks, dist.task_loads, l_ave, float(loads[sender])),
            calls=3,
        )

        store = last.knowledge
        out["core.knowledge.memory_mb"] = store.memory_bytes() / 2**20
        out["core.knowledge.mean_set_size"] = float(store.counts().mean())
        out["core.knowledge.coverage_us"] = micro_us(lambda: store.coverage(last.underloaded), calls=1)
        # Last, because it writes to the store: one sender's row merged
        # into 64 spread-out receivers, per receiver.
        source = int(np.argmax(store.counts()))
        row = store.shards[source] if isinstance(store, SparseKnowledge) else store.packed[source].copy()
        receivers = np.linspace(0, self.n_ranks - 1, 64).astype(np.int64)
        out["core.knowledge.merge_us"] = micro_us(lambda: store.merge_many(receivers, row), calls=1) / 64
        return out


def phase_workloads(quick: bool) -> list[PhaseWorkload]:
    capped = dict(rounds=10, trim_policy="lowest")
    if quick:
        return [
            PhaseWorkload("phase_4k", 0.1, 2_000, 8, 256, GossipConfig(), 4),
            # ``auto`` stays packed below 8192 ranks; name the backend so
            # the quick run drives the same fused sparse driver.
            PhaseWorkload(
                "phase_8k_capped", 0.1, 8_000, 8, 512,
                GossipConfig(max_known=64, knowledge="sparse", **capped), 1,
            ),
            PhaseWorkload("transfer_256_dense", 0.1, 20_000, 4, 64, GossipConfig(), 4),
        ]
    return [
        PhaseWorkload("phase_4k", 2.0, 10_000, 16, 4096, GossipConfig(), 4),
        PhaseWorkload(
            "phase_8k_capped", 2.6, 120_000, 32, 8192,
            GossipConfig(max_known=512, knowledge="auto", **capped), 1,
        ),
        PhaseWorkload("transfer_256_dense", 2.6, 400_000, 8, 256, GossipConfig(), 4),
    ]
