"""Logical rank processes and the system that hosts them.

A :class:`Process` owns tagged message handlers (vt-style registered
handlers) and a serialized execution model: arriving messages queue in a
mailbox and execute one at a time, each charged the runtime's handler
overhead plus whatever :meth:`Process.compute` time the handler spends.
A :class:`System` wires ``P`` processes to one
:class:`~repro.sim.engine.Engine` and one
:class:`~repro.sim.network.NetworkModel`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.obs import StatsRegistry
from repro.sim.engine import Engine
from repro.sim.messages import Message
from repro.sim.network import NetworkModel
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["Process", "System"]

Handler = Callable[["Process", Message], None]


class Process:
    """One simulated rank with a serialized message scheduler."""

    def __init__(self, system: "System", rank: int) -> None:
        self.system = system
        self.rank = rank
        self._handlers: dict[str, Handler] = {}
        self._mailbox: deque[Message] = deque()
        self._executing = False
        #: Time until which this rank's CPU is occupied.
        self.busy_until = 0.0
        #: Accounting: cumulative compute seconds executed.
        self.compute_time = 0.0
        #: Accounting: messages sent / handler executions.
        self.sent = 0
        self.received = 0

    @property
    def idle(self) -> bool:
        """True when no handler is running or queued on this rank."""
        return not self._executing and not self._mailbox

    def reset(self) -> None:
        """Drop all queued messages and any pending execution (rank
        crash). Queued messages count as dropped so termination
        accounting stays balanced."""
        while self._mailbox:
            self.system._notify_drop(self._mailbox.popleft())
        self._executing = False

    def register(self, tag: str, handler: Handler) -> None:
        """Install a handler for messages with ``tag``."""
        if tag in self._handlers:
            raise ValueError(f"handler already registered for tag {tag!r}")
        self._handlers[tag] = handler

    def send(self, dst: int, tag: str, payload: Any = None, size: int = 64) -> None:
        """Send an active message; delivery time follows the network model."""
        self.sent += 1
        msg = Message(
            src=self.rank,
            dst=dst,
            tag=tag,
            payload=payload,
            size=size,
            send_time=self.system.engine.now,
        )
        self.system.transmit(msg)

    def send_many(
        self, dsts: "list[int] | Any", tag: str, payload: Any = None, size: int = 64
    ) -> None:
        """Fan one payload out to several destinations in one call.

        Equivalent to :meth:`send` per destination, in order, but the
        system batches the message accounting (see
        :meth:`System.transmit_many`).
        """
        now = self.system.engine.now
        msgs = [
            Message(
                src=self.rank,
                dst=int(dst),
                tag=tag,
                payload=payload,
                size=size,
                send_time=now,
            )
            for dst in dsts
        ]
        if not msgs:
            return
        self.sent += len(msgs)
        self.system.transmit_many(msgs)

    def compute(self, duration: float) -> None:
        """Occupy this rank's CPU for ``duration`` seconds."""
        check_nonnegative("duration", duration)
        start = max(self.system.engine.now, self.busy_until)
        self.busy_until = start + duration
        self.compute_time += duration
        for hook in self.system._compute_hooks:
            hook(self.rank, start, self.busy_until)

    def deliver(self, msg: Message) -> None:
        """Called by the system at wire-arrival time; the message queues
        behind any handler currently executing on this rank."""
        self._mailbox.append(msg)
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._executing or not self._mailbox:
            return
        self._executing = True
        start = max(self.system.engine.now, self.busy_until)
        self.system.engine.schedule_at(start, self._execute)

    def _execute(self) -> None:
        if not self._mailbox:
            # The mailbox was cleared (rank crash) between scheduling
            # and execution; this event is stale.
            self._executing = False
            return
        msg = self._mailbox.popleft()
        self.received += 1
        self.compute(self.system.handler_overhead)
        try:
            handler = self._handlers[msg.tag]
        except KeyError:
            raise KeyError(
                f"rank {self.rank} has no handler for tag {msg.tag!r}"
            ) from None
        handler(self, msg)
        for hook in self.system._post_execute_hooks:
            hook(self, msg)
        self._executing = False
        self._schedule_next()


class System:
    """``P`` processes + engine + network, with message accounting."""

    def __init__(
        self,
        n_ranks: int,
        network: NetworkModel | None = None,
        handler_overhead: float = 2e-7,
        registry: StatsRegistry | None = None,
    ) -> None:
        check_positive("n_ranks", n_ranks)
        check_nonnegative("handler_overhead", handler_overhead)
        #: Optional telemetry sink; when attached, every transmit is
        #: counted per tag (``net.messages.<tag>`` / ``net.bytes.<tag>``)
        #: and per link class, and the engine records run aggregates.
        self.registry = registry
        self.engine = Engine(registry=registry)
        self.network = network or NetworkModel()
        #: Fixed CPU cost charged per handler execution (task creation /
        #: scheduling overhead of the AMT runtime).
        self.handler_overhead = handler_overhead
        self.processes = [Process(self, r) for r in range(int(n_ranks))]
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Per-rank NIC availability: a sender's outgoing bytes serialize,
        #: and concurrent inbound streams contend at the receiver (in-cast).
        self._nic_free = [0.0] * int(n_ranks)
        self._rx_free = [0.0] * int(n_ranks)
        #: Monitors (termination detectors hook in here).
        self._transmit_hooks: list[Callable[[Message], None]] = []
        self._deliver_hooks: list[Callable[[Message], None]] = []
        self._post_execute_hooks: list[Callable[[Process, Message], None]] = []
        self._compute_hooks: list[Callable[[int, float, float], None]] = []
        self._drop_hooks: list[Callable[[Message], None]] = []
        #: Optional fault-injection layer (:class:`repro.sim.faults.FaultyLink`).
        #: None, or a layer whose ``enabled`` is False, leaves the
        #: message path byte-identical to the undecorated system.
        self.faults = None

    @property
    def n_ranks(self) -> int:
        return len(self.processes)

    def add_transmit_hook(self, hook: Callable[[Message], None]) -> None:
        """Observe every message send (for termination detection)."""
        self._transmit_hooks.append(hook)

    def add_deliver_hook(self, hook: Callable[[Message], None]) -> None:
        """Observe every message wire arrival."""
        self._deliver_hooks.append(hook)

    def add_post_execute_hook(self, hook: Callable[[Process, Message], None]) -> None:
        """Observe handler completion (termination detectors hook here)."""
        self._post_execute_hooks.append(hook)

    def add_compute_hook(self, hook: Callable[[int, float, float], None]) -> None:
        """Observe CPU occupancy: ``hook(rank, start, end)`` per compute."""
        self._compute_hooks.append(hook)

    def add_drop_hook(self, hook: Callable[[Message], None]) -> None:
        """Observe every message the fault layer destroys.

        A dropped message was already counted at its sender (the
        transmit hooks ran), so termination detectors subscribe here to
        un-count it — keeping quiescence detection sound under loss.
        """
        self._drop_hooks.append(hook)

    def _notify_drop(self, msg: Message) -> None:
        for hook in self._drop_hooks:
            hook(msg)

    def transmit(self, msg: Message) -> None:
        """Route a message through the network to its destination."""
        self.transmit_many([msg])

    def transmit_many(self, msgs: list[Message]) -> None:
        """Route a burst of messages; identical to :meth:`transmit` per
        message in order, with the counter/registry accounting batched.

        Per-message observable behavior is preserved: transmit hooks run
        once per message in order, and each message's NIC serialization
        chain and arrival event use the same scalar arithmetic as the
        single-message path (so event timestamps are bit-identical).
        """
        if not msgs:
            return
        for msg in msgs:
            if not 0 <= msg.dst < self.n_ranks:
                raise ValueError(f"destination rank {msg.dst} out of range")
        self.messages_sent += len(msgs)
        self.bytes_sent += sum(m.size for m in msgs)
        if self.registry is not None and self.registry.enabled:
            tag_counts: dict[str, int] = {}
            tag_bytes: dict[str, int] = {}
            link_counts: dict[str, int] = {}
            for m in msgs:
                tag_counts[m.tag] = tag_counts.get(m.tag, 0) + 1
                tag_bytes[m.tag] = tag_bytes.get(m.tag, 0) + m.size
                link = self.network.link_class(m.src, m.dst)
                link_counts[link] = link_counts.get(link, 0) + 1
            for tag, count in tag_counts.items():
                self.registry.inc(f"net.messages.{tag}", count)
                self.registry.inc(f"net.bytes.{tag}", tag_bytes[tag])
            for link, count in link_counts.items():
                self.registry.inc(f"net.links.{link}", count)
        # Sender-side NIC serialization: concurrent sends from one rank
        # queue behind each other for their transmission (beta) time; the
        # wire latency (alpha) then overlaps freely. At the destination,
        # concurrent inbound streams contend for the receive NIC (in-cast):
        # a stream completes no earlier than the previous stream's finish
        # plus its own transmission time (pipelined LogGP-style gap).
        now = self.engine.now
        network = self.network
        nic_free = self._nic_free
        rx_free = self._rx_free
        schedule_at = self.engine.schedule_at
        faults = self.faults
        faulty = faults is not None and faults.enabled
        for msg in msgs:
            for hook in self._transmit_hooks:
                hook(msg)
            tx = network.tx_seconds(msg.src, msg.dst, msg.size)
            depart = max(now, nic_free[msg.src]) + tx
            nic_free[msg.src] = depart
            arrival = depart + network.wire_latency(msg.src, msg.dst)
            if faulty:
                # The fault layer decides this message's fate(s): no
                # copies = dropped (the sender's NIC still paid — it
                # cannot know), one = normal, two = duplicated. Extra
                # copies re-run the transmit hooks so termination
                # counters stay balanced with their extra executions.
                # Fault latency is added AFTER the receive-NIC chain:
                # a delay spike holds up only its own message (it is
                # in-network, not queued at the NIC), which is what
                # lets messages inside the reorder window overtake.
                for i, extra in enumerate(faults.fates(msg)):
                    if i:
                        for hook in self._transmit_hooks:
                            hook(msg)
                    rx_done = max(arrival, rx_free[msg.dst] + tx)
                    rx_free[msg.dst] = rx_done
                    schedule_at(
                        rx_done + extra, self._arrive, self.processes[msg.dst], msg
                    )
                continue
            rx_done = max(arrival, rx_free[msg.dst] + tx)
            rx_free[msg.dst] = rx_done
            schedule_at(rx_done, self._arrive, self.processes[msg.dst], msg)

    def _arrive(self, dest: Process, msg: Message) -> None:
        faults = self.faults
        if faults is not None and faults.enabled and faults.blocks_delivery(msg):
            return
        for hook in self._deliver_hooks:
            hook(msg)
        dest.deliver(msg)

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drive the engine; returns the final simulated time."""
        return self.engine.run(until=until, max_events=max_events)
