"""The simulator-driven reference execution of the episode protocol.

Drives one :class:`repro.net.episode.NodeCore` hosting every rank
through the discrete-event stack (:class:`repro.sim.process.System`):
gossip and transfer messages are real
:class:`~repro.sim.messages.Message` objects routed through the network
model, delivered by engine events, and handled by per-rank
:class:`~repro.sim.process.Process` handlers. The round barrier is the
engine draining to quiescence — every round-``r`` delivery event has
executed before the round's deliveries reach the core as one batch and
any rank advances. The episode's accounting is the core's own
``decide`` rows folded by :func:`~repro.net.episode.fold_decisions`, the
fold the TCP coordinator runs over its workers' reports.

This is the half of the bit-identity contract the CI gate compares the
TCP runtime against: same :class:`~repro.net.episode.EpisodeSpec` in,
field-for-field equal :class:`~repro.net.episode.EpisodeResult` out.
"""

from __future__ import annotations

import numpy as np

from repro.net.episode import (
    XFER_BYTES,
    EpisodeResult,
    EpisodeSpec,
    NodeCore,
    build_result,
    fold_decisions,
)
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
    core = NodeCore(spec, range(n))
    system = System(n, network=network)
    delivered: list[tuple[int, int, np.ndarray]] = []  #: (dst, round, members)

    def on_gossip(proc: Process, msg: Message) -> None:
        delivered.append((proc.rank, msg.payload["round"], msg.payload["members"]))

    def on_xfer(proc: Process, msg: Message) -> None:
        core.receive_xfer(msg.payload["task"])

    for proc in system.processes:
        proc.register("gossip", on_gossip)
        proc.register("xfer", on_xfer)

    all_moves: list[tuple[int, int, int]] = []
    all_rounds: list[np.ndarray] = []
    coverage = 1.0
    for _iteration in range(spec.n_iters):
        sends = core.begin_iteration()
        round_index = 1
        while len(sends):
            for s in sends:
                system.processes[s.src].send(
                    s.dst, "gossip", payload={"round": s.round, "members": s.members}, size=s.size
                )
            system.run()  # the barrier: every delivery event executes
            dst, rounds, members = zip(*delivered)
            core.receive(rounds, np.concatenate(members), [m.size for m in members], dst)
            delivered.clear()
            sends = core.advance(round_index)
            round_index += 1

        report = core.decide()
        for task, src, dst in report["moves"].tolist():
            system.processes[src].send(dst, "xfer", payload={"task": task}, size=XFER_BYTES)
        moves, coverage, iteration_rounds = fold_decisions([report])
        system.run()
        core.apply_moves(moves)
        all_moves.extend(map(tuple, moves.tolist()))
        all_rounds.append(iteration_rounds)

    counters = core.registry.counters
    return build_result(spec, all_moves, np.concatenate(all_rounds), counters, coverage)
