"""The simulator-driven reference execution of the episode protocol.

Drives :class:`repro.net.episode.NodeCore` through the discrete-event
stack (:class:`repro.sim.process.System`): gossip and transfer messages
are real :class:`~repro.sim.messages.Message` objects routed through
the network model, delivered by engine events, and handled by per-rank
:class:`~repro.sim.process.Process` handlers. The round barrier is the
engine draining to quiescence — every round-``r`` delivery event has
executed before any rank advances.

This is the half of the bit-identity contract the CI gate compares the
TCP runtime against: same :class:`~repro.net.episode.EpisodeSpec` in,
field-for-field equal :class:`~repro.net.episode.EpisodeResult` out.
"""

from __future__ import annotations

from repro.net.episode import (
    XFER_BYTES,
    EpisodeResult,
    EpisodeSpec,
    EpisodeTally,
    NodeCore,
    build_result,
    decide_iteration,
    fold_decisions,
    round_report,
)
from repro.obs import StatsRegistry
from repro.sim.messages import Message
from repro.sim.network import NetworkModel
from repro.sim.process import Process, System

__all__ = ["run_episode_sim"]


def run_episode_sim(
    spec: EpisodeSpec, network: NetworkModel | None = None
) -> EpisodeResult:
    """Run one episode entirely inside the simulator.

    ``network`` shapes only *when* messages arrive (latency model); the
    protocol is barrier-synchronized, so the result is independent of
    it — which is exactly the property the TCP runtime relies on.
    """
    n = spec.n_ranks
    cores = [NodeCore(spec, r) for r in range(n)]
    system = System(n, network=network)
    tally = EpisodeTally()

    def on_gossip(proc: Process, msg: Message) -> None:
        cores[proc.rank].receive(msg.payload["round"], msg.payload["members"])

    def on_xfer(proc: Process, msg: Message) -> None:
        cores[proc.rank].receive_xfer(msg.payload["task"])

    for proc in system.processes:
        proc.register("gossip", on_gossip)
        proc.register("xfer", on_xfer)

    all_moves: list[tuple[int, int, int]] = []
    coverage = 1.0
    for _iteration in range(spec.n_iters):
        sends = {r: cores[r].begin_iteration() for r in range(n)}
        round_index = 1
        while tally.record_round([round_report(sends, n)]):
            for r in range(n):
                for s in sends[r]:
                    system.processes[r].send(
                        s.dst,
                        "gossip",
                        payload={"round": s.round, "members": s.members},
                        size=s.size,
                    )
            system.run()  # the barrier: every delivery event executes
            sends = {r: cores[r].advance(round_index) for r in range(n)}
            round_index += 1

        report, xfers = decide_iteration(cores)
        for src, dst, task in xfers:
            system.processes[src].send(dst, "xfer", payload={"task": task}, size=XFER_BYTES)
        moves, coverage = fold_decisions([report], tally)
        system.run()
        for core in cores:
            core.apply_moves(moves)
        all_moves.extend(map(tuple, moves.tolist()))

    merged = StatsRegistry()
    for core in cores:
        merged.merge(core.registry)
    return build_result(spec, all_moves, tally, merged.counters, coverage)
