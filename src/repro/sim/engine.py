"""The discrete-event core: a time-ordered callback queue.

Events are ``(time, sequence, callback, args)`` tuples in a binary heap.
The sequence number makes simultaneous events execute in scheduling
order, which — together with seeded RNG streams — makes every
simulation bit-reproducible.

:mod:`repro.sim.process` queues its message events through
:meth:`Engine._push`, which skips :meth:`Engine.schedule_at`'s past-time
check: their times are ``max(now, ...) + non-negative costs`` by
construction. Every event, checked or not, draws its sequence number
from the same ticket, and only this module builds the tuples. An
execute event that would pop next may instead run inline in the arrival
event that would push it: ``System._arrive`` reads the head's time and
:meth:`run`'s budget itself (an engine method there measured slower),
and counts it as a dispatched event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.obs import StatsRegistry
from repro.util.validation import check_nonnegative

__all__ = ["Engine"]


class Engine:
    """A deterministic discrete-event scheduler.

    An optional :class:`~repro.obs.StatsRegistry` receives aggregate
    accounting per :meth:`run` call (events dispatched, simulated time
    advanced, remaining queue depth). Recording happens outside the
    dispatch loop so the per-event hot path is identical with or
    without instrumentation.
    """

    def __init__(self, registry: StatsRegistry | None = None) -> None:
        self._queue: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._now = 0.0
        #: Sequence numbers, one per scheduled event, in scheduling order.
        self._ticket = itertools.count()
        self._events_processed = 0
        #: Inline executions may run below this count: 0 outside run().
        self._inline_limit: float = 0
        self._registry = registry

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def peek(self) -> float | None:
        """The next queued event's time, or None when the queue is
        empty — lets deadline-bounded drivers stop *before* dispatching
        an event past their timeout."""
        return self._queue[0][0] if self._queue else None

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        check_nonnegative("delay", delay)
        self._push(self._now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``when`` (>= now)."""
        if when < self._now:
            raise ValueError(f"cannot schedule into the past ({when} < {self._now})")
        self._push(when, callback, args)

    def _push(self, when: float, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Queue ``callback(*args)`` at ``when``, unchecked: for callers
        whose times are never before ``now`` by construction."""
        heapq.heappush(self._queue, (when, next(self._ticket), callback, args))

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Dispatch events until the queue drains, ``until`` is reached,
        or ``max_events`` have executed. Returns the final time.

        With ``until`` set, events beyond it stay queued and the clock
        advances exactly to ``until`` (unless ``max_events`` stopped the
        run first). The loop keeps the queue, the pop and the bounds in
        locals; ``events_processed`` is current inside every callback and
        counts inline executions, so at most ``max_events`` are dispatched.
        """
        queue = self._queue
        pop = heapq.heappop
        stop = math.inf if until is None else until
        start_events = self._events_processed
        limit = math.inf if max_events is None else start_events + max_events
        self._inline_limit = limit
        start_time = self._now
        try:
            while queue and queue[0][0] <= stop and self._events_processed < limit:
                when, _, callback, args = pop(queue)
                self._now = when
                self._events_processed += 1
                callback(*args)
            if until is not None:
                if queue and queue[0][0] > until:
                    self._now = until
                elif not queue and until > self._now:
                    self._now = until
            return self._now
        finally:
            self._inline_limit = 0
            if self._registry is not None:
                self._registry.inc("engine.runs")
                self._registry.inc("engine.events", self._events_processed - start_events)
                self._registry.add_time("engine.sim_time", self._now - start_time)
                self._registry.gauge("engine.queue_depth", len(self._queue))

    def step(self) -> bool:
        """Dispatch exactly one event, never inline; False when the queue is empty."""
        if not self._queue:
            return False
        when, _, callback, args = heapq.heappop(self._queue)
        self._now = when
        self._events_processed += 1
        callback(*args)
        return True
