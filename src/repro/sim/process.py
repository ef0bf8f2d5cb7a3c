"""Logical rank processes and the system that hosts them.

A :class:`Process` owns tagged message handlers (vt-style registered
handlers) and a serialized execution model: arriving messages queue in a
mailbox and execute one at a time, each charged the runtime's handler
overhead plus whatever :meth:`Process.compute` time the handler spends.
A :class:`System` wires ``P`` processes to one
:class:`~repro.sim.engine.Engine` and one
:class:`~repro.sim.network.NetworkModel`.

**Stage lifetime.** A protocol stage (an inform stage, a termination
detector, an all-reduce, a migration, a barrier) names its tags with
:meth:`System.stage_tag` — ``<prefix>_<n>``, numbered per system, so
the same run on a fresh system yields the same tags and registry keys
whatever else ran in the interpreter — and, when it finishes, detaches
its hooks (:meth:`System.remove_hooks`) and handlers
(:meth:`System.retire`). A long-lived system therefore pays only for
the stages that are running. A late message for a retired tag (a delay
spike past a stage timeout) is discarded when it executes, still
charged the handler overhead, so simulated time does not depend on
when a stage detached.

**The per-message path.** Each message is one :class:`Message`, one
arrival event and one execution, an event at ``max(now, busy_until)``
unless the rank is idle and no queued event is due at ``now``: that
execute event would be the next one popped, so the arrival runs it
inline (counted as an event) and every ``(time, seq)`` order stays the
same. A rank's next message is always an event, so an inline execution
never runs another. The path keeps its state in locals, classifies
each link once (:meth:`NetworkModel.link_cost`), charges the handler
overhead through the same occupancy rule as :meth:`Process.compute`
without re-validating it, and queues its events with the engine's
unchecked push (their times are never in the past by construction).
Hooks are tuples, replaced rather than mutated, so a hook that detaches
while the hooks run (a detector announcing termination) never makes
the loop skip the next one.
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

#: The hook lists of a :class:`System`, by attribute name.
_HOOK_LISTS = (
    "_transmit_hooks",
    "_deliver_hooks",
    "_post_execute_hooks",
    "_compute_hooks",
    "_drop_hooks",
)


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
        system = self.system
        system.transmit(Message(self.rank, dst, tag, payload, size, system.engine.now))

    def send_many(
        self, dsts: "list[int] | Any", tag: str, payload: Any = None, size: int = 64
    ) -> None:
        """Fan one payload out to several destinations in one call.

        Equivalent to :meth:`send` per destination, in order, but the
        system batches the message accounting (see
        :meth:`System.transmit_many`).
        """
        system = self.system
        msgs = Message.burst(self.rank, dsts, tag, payload, size, system.engine._now)
        if not msgs:
            return
        self.sent += len(msgs)
        system.transmit_many(msgs)

    def compute(self, duration: float) -> None:
        """Occupy this rank's CPU for ``duration`` seconds."""
        check_nonnegative("duration", duration)
        self._occupy(duration)

    def _occupy(self, duration: float) -> None:
        """:meth:`compute` for a ``duration`` already known to be valid."""
        system = self.system
        now = system.engine._now
        busy = self.busy_until
        start = busy if busy > now else now  # max(now, busy), ties to now
        self.busy_until = end = start + duration
        self.compute_time += duration
        for hook in system._compute_hooks:
            hook(self.rank, start, end)

    def _execute(self) -> None:
        mailbox = self._mailbox
        if not mailbox:
            # The mailbox was cleared (rank crash) between scheduling
            # and execution; this event is stale.
            self._executing = False
            return
        msg = mailbox.popleft()
        self.received += 1
        system = self.system
        self._occupy(system.handler_overhead)  # validated by the System
        handler = self._handlers.get(msg.tag)
        if handler is not None:
            handler(self, msg)
        elif msg.tag not in system._retired:
            raise KeyError(f"rank {self.rank} has no handler for tag {msg.tag!r}")
        for hook in system._post_execute_hooks:
            hook(self, msg)
        if mailbox:  # the next message is an event, never inline
            engine = system.engine
            now = engine._now
            busy = self.busy_until
            engine._push(busy if busy > now else now, self._execute, ())
        else:
            self._executing = False


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
        self._transmit_hooks: tuple[Callable[[Message], None], ...] = ()
        self._deliver_hooks: tuple[Callable[[Message], None], ...] = ()
        self._post_execute_hooks: tuple[Callable[[Process, Message], None], ...] = ()
        self._compute_hooks: tuple[Callable[[int, float, float], None], ...] = ()
        self._drop_hooks: tuple[Callable[[Message], None], ...] = ()
        #: Stage tags handed out so far, per prefix, and the tags of
        #: finished stages (their late messages are discarded).
        self._tag_serials: dict[str, int] = {}
        self._retired: set[str] = set()
        #: Optional fault-injection layer (:class:`repro.sim.faults.FaultyLink`).
        #: None, or a layer whose ``enabled`` is False, leaves the
        #: message path byte-identical to the undecorated system.
        self.faults = None

    @property
    def n_ranks(self) -> int:
        return len(self.processes)

    def add_transmit_hook(self, hook: Callable[[Message], None]) -> None:
        """Observe every message send (for termination detection)."""
        self._transmit_hooks += (hook,)

    def add_deliver_hook(self, hook: Callable[[Message], None]) -> None:
        """Observe every message wire arrival."""
        self._deliver_hooks += (hook,)

    def add_post_execute_hook(self, hook: Callable[[Process, Message], None]) -> None:
        """Observe handler completion (termination detectors hook here)."""
        self._post_execute_hooks += (hook,)

    def add_compute_hook(self, hook: Callable[[int, float, float], None]) -> None:
        """Observe CPU occupancy: ``hook(rank, start, end)`` per compute."""
        self._compute_hooks += (hook,)

    def add_drop_hook(self, hook: Callable[[Message], None]) -> None:
        """Observe every message the fault layer destroys.

        A dropped message was already counted at its sender (the
        transmit hooks ran), so termination detectors subscribe here to
        un-count it — keeping quiescence detection sound under loss.
        """
        self._drop_hooks += (hook,)

    def remove_hooks(self, *hooks: Callable[..., None]) -> None:
        """Detach each of ``hooks`` from every hook list it is on (a
        finished stage's monitors). Unknown hooks are ignored."""
        for name in _HOOK_LISTS:
            current = getattr(self, name)
            kept = tuple(h for h in current if h not in hooks)
            if len(kept) != len(current):
                setattr(self, name, kept)

    def stage_tag(self, prefix: str) -> str:
        """A fresh message tag ``<prefix>_<n>`` for one protocol stage,
        ``n`` counting this system's stages with that prefix from 1."""
        n = self._tag_serials.get(prefix, 0) + 1
        self._tag_serials[prefix] = n
        return f"{prefix}_{n}"

    def retire(self, *tags: str) -> None:
        """A stage finished: unregister its ``tags`` on every process.

        A message for a retired tag that is still on the wire is
        discarded when it executes — charged the handler overhead and
        seen by the post-execute hooks like any other execution — where
        a tag that was never registered is still a ``KeyError``.
        """
        for tag in tags:
            self._retired.add(tag)
            for proc in self.processes:
                proc._handlers.pop(tag, None)

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
        n_ranks = len(self.processes)
        for msg in msgs:
            if not 0 <= msg.dst < n_ranks:
                raise ValueError(f"destination rank {msg.dst} out of range")
        self.messages_sent += len(msgs)
        registry = self.registry
        if registry is not None:
            # One pass: each message's link ("self", "intra" node or
            # "inter" node) and its tally row under (tag, link).
            rpn = self.network.ranks_per_node
            tally: dict[tuple[str, str], list[int]] = {}
            for m in msgs:
                src = m.src
                dst = m.dst
                if src == dst:
                    link = "self"
                elif src // rpn == dst // rpn:
                    link = "intra"
                else:
                    link = "inter"
                row = tally.get((m.tag, link))
                if row is None:
                    tally[m.tag, link] = [1, m.size]
                else:
                    row[0] += 1
                    row[1] += m.size
            # Tags first, then links, each in first-seen order.
            for (tag, _), (count, size) in tally.items():
                registry.inc(f"net.messages.{tag}", count)
                registry.inc(f"net.bytes.{tag}", size)
            for (_, link), (count, _) in tally.items():
                registry.inc(f"net.links.{link}", count)
        # Sender-side NIC serialization: concurrent sends from one rank
        # queue behind each other for their transmission (beta) time; the
        # wire latency (alpha) then overlaps freely. At the destination,
        # concurrent inbound streams contend for the receive NIC (in-cast):
        # a stream completes no earlier than the previous stream's finish
        # plus its own transmission time (pipelined LogGP-style gap).
        # ``a if a > b else b`` is ``max(b, a)`` exactly, ties included.
        engine = self.engine
        now = engine._now
        push = engine._push
        link_cost = self.network.link_cost
        nic_free = self._nic_free
        rx_free = self._rx_free
        processes = self.processes
        arrive = self._arrive
        hooks = self._transmit_hooks
        faults = self.faults
        faulty = faults is not None and faults.enabled
        nbytes = 0
        for msg in msgs:
            src = msg.src
            dst = msg.dst
            size = msg.size
            nbytes += size
            for hook in hooks:
                hook(msg)
            tx, alpha = link_cost(src, dst, size)
            free = nic_free[src]
            depart = (free if free > now else now) + tx
            nic_free[src] = depart
            arrival = depart + alpha
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
                    rx = rx_free[dst] + tx
                    rx_done = rx if rx > arrival else arrival
                    rx_free[dst] = rx_done
                    push(rx_done + extra, arrive, (processes[dst], msg))
                # A drop can end a detector, which detaches its hooks.
                hooks = self._transmit_hooks
                continue
            rx = rx_free[dst] + tx
            rx_done = rx if rx > arrival else arrival
            rx_free[dst] = rx_done
            push(rx_done, arrive, (processes[dst], msg))
        self.bytes_sent += nbytes

    def _arrive(self, dest: Process, msg: Message) -> None:
        faults = self.faults
        if faults is not None and faults.enabled and faults.blocks_delivery(msg):
            return
        for hook in self._deliver_hooks:
            hook(msg)
        dest._mailbox.append(msg)
        if dest._executing:
            return
        dest._executing = True
        engine = self.engine
        busy = dest.busy_until
        if busy > engine._now:
            engine._push(busy, dest._execute, ())
        elif engine._events_processed < engine._inline_limit and (
            not engine._queue or engine._queue[0][0] > engine._now
        ):
            engine._events_processed += 1  # the execute event, dispatched inline
            dest._execute()
        else:
            engine._push(engine._now, dest._execute, ())

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drive the engine; returns the final simulated time."""
        return self.engine.run(until=until, max_events=max_events)
