"""``net_64``: one op = one ``run_episode_net`` over loopback TCP.

Real sockets: JSON frames, one lazy connection per rank pair,
count-exact barriers, two in-process coroutine workers. ``NodeCore``
compute is a small share of the wall (the simulator drives the same
cores several times faster), so this isolates encode / queue / socket /
barrier cost. ``run_episode_sim`` on the same spec is the oracle and
runs in set-up.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from harness import (
    RESULTS,
    Outcome,
    Tracer,
    check_assignment,
    check_unmutated,
    median,
    micro_us,
    migrated,
    speedup,
)
from repro.net.coordinator import NetOptions, run_episode_net, run_episode_net_async
from repro.net.episode import EpisodeResult, EpisodeSpec, GossipSend, NodeCore
from repro.net.logging_jsonl import iter_records
from repro.net.simref import run_episode_sim
from repro.net.wire import pack_frame, unpack_frame
from repro.sim.messages import Message, to_wire

OP = "net.coordinator.run_episode_net"
NODECORE = "net.episode.nodecore"
WORKERS = 2


def drive_nodecores(spec: EpisodeSpec) -> tuple[list[tuple[int, int, int]], list[GossipSend]]:
    """The episode protocol with no transport: every ``NodeCore`` in one
    plain loop, messages handed over as Python calls. Returns the
    accepted moves and every gossip message that would have been sent."""
    n = spec.n_ranks
    cores = [NodeCore(spec, rank) for rank in range(n)]
    moves: list[tuple[int, int, int]] = []
    gossip: list[GossipSend] = []
    for _ in range(spec.n_iters):
        sends = [s for core in cores for s in core.begin_iteration()]
        round_index = 1
        while sends:
            gossip += sends
            for s in sends:
                cores[s.dst].receive(s.round, s.members)
            sends = [s for core in cores for s in core.advance(round_index)]
            round_index += 1
        iteration_moves: list[tuple[int, int, int]] = []
        for core in cores:
            stats = core.decide_transfers()
            for dst, task in core.xfer_sends(stats):
                cores[dst].receive_xfer(task)
            iteration_moves += stats.moves
        for core in cores:
            core.apply_moves(iteration_moves)
        moves += iteration_moves
    return moves, gossip


async def _net_with_fd_sampler(spec: EpisodeSpec, options: NetOptions) -> tuple[EpisodeResult, int]:
    """The episode, with a task beside it sampling this process's open fds."""
    peak = 0

    async def sample() -> None:
        nonlocal peak
        while True:
            peak = max(peak, len(os.listdir("/proc/self/fd")))
            await asyncio.sleep(0.005)

    sampler = asyncio.create_task(sample())
    try:
        result = await run_episode_net_async(spec, options)
    finally:
        sampler.cancel()
        try:
            await sampler
        except asyncio.CancelledError:
            pass
    return result, peak


class NetWorkload:
    name = "net_64"

    def __init__(self, quick: bool) -> None:
        self.nominal_op_s = 0.1 if quick else 2.25
        self.n_ranks = 16 if quick else 64
        self.meta = {"n_ranks": self.n_ranks, "n_iters": 2, "workers": WORKERS, "link": "loopback"}

    def prepare(self, seed: int) -> dict[str, Any]:
        start = time.perf_counter()
        spec = EpisodeSpec.synthetic(self.n_ranks, seed=seed, n_iters=2)
        generate_s = time.perf_counter() - start
        start = time.perf_counter()
        oracle = run_episode_sim(spec)
        sim_s = time.perf_counter() - start
        return {
            "spec": spec,
            "spec_dict": spec.to_dict(),
            "oracle": oracle.to_dict(),
            "sim_s": sim_s,
            "generate_s": generate_s,
        }

    def run(self, inputs: dict[str, Any], tracer: Tracer | None = None) -> Outcome:
        spec: EpisodeSpec = inputs["spec"]
        log_dir, fds_peak = None, 0
        start = time.perf_counter()
        if tracer is None:
            result = run_episode_net(spec, NetOptions(workers=WORKERS))
        else:
            RESULTS.mkdir(exist_ok=True)
            log_dir = tempfile.mkdtemp(prefix="netlogs_", dir=RESULTS)
            with tracer.span(OP):
                result, fds_peak = asyncio.run(
                    _net_with_fd_sampler(spec, NetOptions(workers=WORKERS, log_dir=log_dir))
                )
        wall = time.perf_counter() - start

        task_loads = np.asarray(spec.task_loads)
        before = np.asarray(spec.assignment)
        failures, initial, final = check_assignment(task_loads, before, result.assignment, spec.n_ranks)
        failures += check_unmutated("spec", inputs["spec_dict"], spec.to_dict())
        if result.to_dict() != inputs["oracle"]:
            failures.append("net result differs from run_episode_sim's")
        outcome = Outcome(
            wall_s=wall,
            final_imbalance=final,
            migrated_frac=migrated(before, result.assignment),
            speedup_x=speedup(initial, final),
            rank_iters=spec.n_ranks * spec.n_iters,
            signature=(result.initial_imbalance, result.final_imbalance, float(len(result.moves))),
            failures=failures,
        )
        if tracer is not None:
            try:
                outcome.layers = self._layers(inputs, outcome, tracer, log_dir, fds_peak)
            finally:
                shutil.rmtree(log_dir, ignore_errors=True)
        return outcome

    def _layers(
        self, inputs: dict[str, Any], outcome: Outcome, tracer: Tracer, log_dir: str, fds_peak: int
    ) -> dict[str, float]:
        spec, wall = inputs["spec"], outcome.wall_s
        (moves, gossip), nodecore_s = tracer.timed(NODECORE, drive_nodecores, spec)
        if [list(m) for m in moves] != inputs["oracle"]["moves"]:
            outcome.failures.append("transport-free NodeCore loop differs from run_episode_sim's")
        outcome.extra["gossip"] = gossip
        sent = [
            record
            for path in sorted(Path(log_dir).glob("wire_rank*.jsonl"))
            for record in iter_records(path)
            if record["dir"] == "tx"
        ]
        frames = len(sent)
        return {
            "workloads.generate_s": inputs["generate_s"],
            "net.episode.nodecore_s": nodecore_s,
            "sim.transport_s": inputs["sim_s"] - nodecore_s,
            "net.transport_s": wall - nodecore_s,
            "net.transport_share": (wall - nodecore_s) / wall,
            "net.frames": frames,
            "net.wire_bytes": sum(r["frame_bytes"] for r in sent),
            "net.wire.frame_bytes": median([r["frame_bytes"] for r in sent if r["tag"] == "gossip"]),
            "net.us_per_frame": wall * 1e6 / max(frames, 1),
            "net.fds_peak": fds_peak,
        }

    def microbench(self, inputs: dict[str, Any], outcome: Outcome, tracer: Tracer) -> dict[str, float]:
        """Codec cost of the episode's median-size gossip message,
        framed the way ``NetNode.send_gossip`` frames it."""
        gossip = sorted(outcome.extra["gossip"], key=lambda s: s.size)
        send = gossip[len(gossip) // 2]
        frame = to_wire(
            Message(
                src=send.src, dst=send.dst, tag="gossip",
                payload={"round": send.round, "members": send.members}, size=send.size,
            )
        )
        data = pack_frame(frame)
        return {
            "net.wire.pack_us": micro_us(lambda: pack_frame(frame), calls=200),
            "net.wire.unpack_us": micro_us(lambda: unpack_frame(data), calls=200),
        }
