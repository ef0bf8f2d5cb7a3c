"""Event-level Algorithm 1: the inform stage as real asynchronous messages.

Unlike the phase-level :mod:`repro.core.gossip` (synchronous rounds,
zero time), this implementation sends timestamped inform messages over
the network model, without round barriers, and uses Safra's termination
detector to establish quiescence — matching the paper's description of
the asynchronous implementation ("rounds are not synchronized and
proceed without barriers, relying on distributed termination
detection").

Forwarding is coalesced per (rank, received round): a rank forwards its
merged knowledge once for each distinct round value it receives, which
is what the practical implementations do and bounds traffic at
``O(P f k)`` messages (the literal per-received-message forwarding of
the pseudocode is exponential; see DESIGN.md § 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gossip import ENTRY_BYTES, HEADER_BYTES, GossipResult
from repro.core.knowledge import PackedKnowledgeBitmap
from repro.sim.process import Process, System
from repro.sim.rng import RankStreams
from repro.sim.termination import SafraDetector
from repro.util.validation import check_positive_int

__all__ = ["DistributedGossip", "GossipOutcome"]

_gossip_counter = 0


@dataclass
class GossipOutcome:
    """Result of one event-level inform stage."""

    knowledge: PackedKnowledgeBitmap
    underloaded: np.ndarray
    load_snapshot: np.ndarray
    average_load: float
    n_messages: int
    bytes_sent: int
    elapsed: float  #: simulated seconds from start to detected quiescence

    def to_gossip_result(self) -> GossipResult:
        """Adapt to the phase-level result type consumed by the transfer
        stage (:func:`repro.core.transfer.transfer_stage`)."""
        return GossipResult(
            knowledge=self.knowledge,
            underloaded=self.underloaded,
            load_snapshot=self.load_snapshot,
            average_load=self.average_load,
            n_messages=self.n_messages,
            bytes_sent=self.bytes_sent,
        )


class DistributedGossip:
    """One asynchronous inform stage on a simulated system."""

    def __init__(
        self,
        system: System,
        rank_loads: np.ndarray,
        average_load: float | None = None,
        fanout: int = 6,
        rounds: int = 10,
        streams: RankStreams | None = None,
        detector: "object | None" = None,
    ) -> None:
        check_positive_int("fanout", fanout)
        check_positive_int("rounds", rounds)
        self.system = system
        self.loads = np.ascontiguousarray(rank_loads, dtype=np.float64)
        if self.loads.size != system.n_ranks:
            raise ValueError("need one load per rank")
        self.average_load = (
            float(self.loads.mean()) if average_load is None else float(average_load)
        )
        self.fanout = int(fanout)
        self.rounds = int(rounds)
        self.streams = streams or RankStreams(system.n_ranks, seed=0)
        #: Optional failure detector
        #: (:class:`repro.sim.faults.HeartbeatFailureDetector`); when
        #: provided, suspected ranks are skipped as gossip targets and
        #: the detector's heartbeats run only for the duration of this
        #: stage.
        self.detector = detector

    def run(self) -> GossipOutcome:
        """Execute the inform stage to quiescence; advances the clock."""
        global _gossip_counter
        _gossip_counter += 1
        tag = f"inform_{_gossip_counter}"
        system = self.system
        n = system.n_ranks
        start_time = system.engine.now
        counters = {"messages": 0, "bytes": 0}

        faults = system.faults
        if faults is None or not faults.enabled:
            faults = None

        underloaded = self.loads < self.average_load
        know = PackedKnowledgeBitmap(n)
        seeds = np.flatnonzero(underloaded)
        if faults is not None:
            # Crashed ranks cannot initiate gossip about themselves.
            seeds = seeds[faults.alive[seeds]]
        know.add_self(seeds)
        #: Rounds already forwarded per rank (coalescing guard).
        forwarded: list[set[int]] = [set() for _ in range(n)]
        #: Set once the stage is over: late messages (delayed past the
        #: stage timeout) must not trigger sends into the next stage.
        closed = [False]

        def send_knowledge(proc: Process, next_round: int) -> None:
            candidates = know.unknown_targets(proc.rank)
            if self.detector is not None and self.detector.suspected:
                suspects = np.fromiter(
                    self.detector.suspected, dtype=np.int64, count=-1
                )
                candidates = candidates[~np.isin(candidates, suspects)]
            if candidates.size == 0:
                return
            rng = self.streams[proc.rank]
            k = min(self.fanout, candidates.size)
            targets = (
                candidates
                if candidates.size <= self.fanout
                else rng.choice(candidates, size=k, replace=False)
            )
            payload = know.known(proc.rank)
            size = HEADER_BYTES + ENTRY_BYTES * payload.size
            proc.send_many(targets, tag, payload=(payload, next_round), size=size)
            n_sent = int(len(targets))
            counters["messages"] += n_sent
            counters["bytes"] += n_sent * size

        def on_inform(proc: Process, msg) -> None:
            if closed[0]:
                return
            members, round_index = msg.payload
            know.add(proc.rank, members)
            if round_index < self.rounds and round_index not in forwarded[proc.rank]:
                forwarded[proc.rank].add(round_index)
                send_knowledge(proc, round_index + 1)

        for proc in system.processes:
            proc.register(tag, on_inform)

        detected: list[float] = []
        # Scope Safra to this stage's tag: with faults, messages can
        # linger past the stage (delay spikes) and must not poison the
        # next stage's accounting; without faults the scope is inert.
        safra = SafraDetector(
            system, on_terminate=detected.append, scope=lambda t: t == tag
        )
        if faults is None:
            for rank in seeds:
                send_knowledge(system.processes[int(rank)], 1)
            safra.start()
            system.run()
            if not detected:
                raise RuntimeError("gossip termination was not detected")
            elapsed = detected[0] - start_time
        else:
            # Faulty run: a crashed member breaks the Safra ring, so the
            # stage is additionally bounded by a timeout. Events are
            # stepped one at a time so the clock stops at detection (or
            # at the deadline) instead of draining unrelated events.
            if self.detector is not None:
                self.detector.start()
            for rank in seeds:
                send_knowledge(system.processes[int(rank)], 1)
            safra.start()
            deadline = start_time + faults.config.stage_timeout
            engine = system.engine
            while not detected:
                nxt = engine.peek()
                if nxt is None or nxt > deadline:
                    break
                engine.step()
            if not detected:
                safra.cancel()
                engine.run(until=deadline)  # advance the clock, only
            closed[0] = True
            if self.detector is not None:
                self.detector.stop()
            elapsed = (detected[0] if detected else deadline) - start_time

        return GossipOutcome(
            knowledge=know,
            underloaded=underloaded,
            load_snapshot=self.loads.copy(),
            average_load=self.average_load,
            n_messages=counters["messages"],
            bytes_sent=counters["bytes"],
            elapsed=elapsed,
        )
