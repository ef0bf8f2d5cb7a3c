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

An inform message's payload is ``(row, round)``: a copy of the
sender's packed row of :class:`PackedKnowledgeBitmap` at send time
(``know.row``), shared by every target of the fan-out. A receiver
merges it with one ``know.merge_many(rank, row)``; the layout of the
row stays the store's business. The modelled wire size still counts
one entry per known rank (``HEADER_BYTES + ENTRY_BYTES * |S^p|``, the
row's popcount), which is what a real id-list message would carry.

Each stage takes a fresh ``inform_<n>`` tag from its system and retires
it when the stage ends, so a message delayed past the stage timeout is
discarded on arrival instead of forwarding into the next stage.
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
        system = self.system
        tag = system.stage_tag("inform")
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

        def send_knowledge(proc: Process, next_round: int) -> None:
            rank = proc.rank
            candidates = know.unknown_targets(rank)
            if self.detector is not None and self.detector.suspected:
                suspects = np.fromiter(
                    self.detector.suspected, dtype=np.int64, count=-1
                )
                candidates = candidates[~np.isin(candidates, suspects)]
            if candidates.size == 0:
                return
            rng = self.streams[rank]
            k = min(self.fanout, candidates.size)
            targets = (
                candidates
                if candidates.size <= self.fanout
                else rng.choice(candidates, size=k, replace=False)
            )
            size = HEADER_BYTES + ENTRY_BYTES * know.count(rank)
            proc.send_many(
                targets.tolist(), tag, payload=(know.row(rank), next_round), size=size
            )
            n_sent = len(targets)
            counters["messages"] += n_sent
            counters["bytes"] += n_sent * size

        def on_inform(proc: Process, msg) -> None:
            row, round_index = msg.payload
            rank = proc.rank
            know.merge_many(rank, row)
            if round_index < self.rounds and round_index not in forwarded[rank]:
                forwarded[rank].add(round_index)
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
        try:
            if faults is None:
                for rank in seeds:
                    send_knowledge(system.processes[int(rank)], 1)
                safra.start()
                system.run()
                if not detected:
                    raise RuntimeError("gossip termination was not detected")
                elapsed = detected[0] - start_time
            else:
                # Faulty run: a crashed member breaks the Safra ring, so
                # the stage is additionally bounded by a timeout. Events
                # are stepped one at a time so the clock stops at
                # detection (or at the deadline) instead of draining
                # unrelated events.
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
                if self.detector is not None:
                    self.detector.stop()
                elapsed = (detected[0] if detected else deadline) - start_time
        finally:
            # The stage is over: late messages (delayed past the stage
            # timeout) are discarded instead of sending into the next.
            safra.cancel()
            system.retire(tag)

        return GossipOutcome(
            knowledge=know,
            underloaded=underloaded,
            load_snapshot=self.loads.copy(),
            average_load=self.average_load,
            n_messages=counters["messages"],
            bytes_sent=counters["bytes"],
            elapsed=elapsed,
        )
