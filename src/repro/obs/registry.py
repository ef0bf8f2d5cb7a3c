"""The stats registry: counters, gauges, series, timers and events.

:class:`StatsRegistry` is the single sink every instrumented layer
(:mod:`repro.sim`, :mod:`repro.core`, :mod:`repro.runtime`) writes to.
It holds four aggregate kinds plus structured events:

counters
    Monotonically non-decreasing sums (``gossip.messages``,
    ``transfer.accepted``). Increments must be non-negative.
gauges
    Point-in-time values with *high-water-mark* merge semantics: when
    two registries merge, the larger value wins. That keeps
    :meth:`merge` associative and commutative, which matters when
    per-rank registries are combined in reduction trees.
series
    Ordered lists of dict rows — one row per refinement iteration, per
    gossip stage, per LB episode. Merging concatenates.
timers
    Accumulated durations in seconds. Simulated layers add simulated
    seconds (:meth:`add_time`); wall-clock callers can use
    :meth:`timed` with any monotonic ``clock``.
events
    :class:`~repro.obs.events.Event` records (see that module).

Instrumented code takes an optional ``registry`` argument defaulting to
``None``; call sites guard with ``if registry is not None`` so an
un-instrumented run pays **no** recording cost and — crucially —
consumes no RNG, leaving LB output byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

from repro.obs.events import Event

__all__ = ["StatsRegistry"]


class StatsRegistry:
    """An in-memory sink for instrumentation data."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.series: dict[str, list[dict[str, Any]]] = {}
        self.timers: dict[str, float] = {}
        self.events: list[Event] = []

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> float:
        """Add ``value`` (>= 0) to counter ``name``; returns the new total."""
        if value < 0:
            raise ValueError(f"counter increment must be non-negative, got {value}")
        total = self.counters.get(name, 0) + value
        self.counters[name] = total
        return total

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins locally)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, **fields: Any) -> None:
        """Append one row of scalars to series ``name``."""
        self.series.setdefault(name, []).append(fields)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` (>= 0) into timer ``name``."""
        if seconds < 0:
            raise ValueError(f"timer increment must be non-negative, got {seconds}")
        self.timers[name] = self.timers.get(name, 0.0) + float(seconds)

    @contextmanager
    def timed(self, name: str, clock: Callable[[], float]) -> Iterator[None]:
        """Accumulate the duration of a ``with`` block into timer ``name``.

        ``clock`` is any monotonic float source — ``time.perf_counter``
        for wall time, ``lambda: engine.now`` for simulated time.
        """
        start = clock()
        try:
            yield
        finally:
            self.add_time(name, clock() - start)

    def event(
        self,
        kind: str,
        time: float | None = None,
        rank: int | None = None,
        **fields: Any,
    ) -> None:
        """Record a structured :class:`~repro.obs.events.Event`."""
        self.events.append(Event(kind=kind, fields=fields, time=time, rank=rank))

    # -- reading -----------------------------------------------------------

    def counter(self, name: str, default: float = 0) -> float:
        """Current value of counter ``name`` (``default`` if never bumped)."""
        return self.counters.get(name, default)

    def series_rows(self, name: str) -> list[dict[str, Any]]:
        """The rows of series ``name`` (empty list if absent)."""
        return self.series.get(name, [])

    def events_of(self, kind: str) -> list[Event]:
        """All recorded events of one kind, in record order."""
        return [e for e in self.events if e.kind == kind]

    # -- combination / serialization ---------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """Pickle via the JSON snapshot, the registry's stable format.

        Sub-registries cross process boundaries in the parallel-trials
        path (``repro.core.refinement`` with the process executor), so
        the pickle payload is pinned to :meth:`to_dict` /
        :meth:`from_dict` — adding an unpicklable field to the class
        later cannot silently break worker round-trips.
        """
        return self.to_dict()

    def __setstate__(self, state: dict[str, Any]) -> None:
        restored = StatsRegistry.from_dict(state)
        self.counters = restored.counters
        self.gauges = restored.gauges
        self.series = restored.series
        self.timers = restored.timers
        self.events = restored.events

    def merge(self, other: "StatsRegistry") -> "StatsRegistry":
        """Fold ``other`` into this registry; returns ``self``.

        Counters and timers add, gauges take the maximum (high-water
        mark), series and events concatenate — all associative and
        commutative up to series/event ordering, so per-rank registries
        can be reduced in any tree shape.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + value
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            self.gauges[name] = value if current is None else max(current, value)
        for name, rows in other.series.items():
            self.series.setdefault(name, []).extend(rows)
        self.events.extend(other.events)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of everything recorded."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "series": {name: list(rows) for name, rows in self.series.items()},
            "timers": dict(self.timers),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StatsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        registry.counters.update(payload.get("counters", {}))
        registry.gauges.update(payload.get("gauges", {}))
        for name, rows in payload.get("series", {}).items():
            registry.series[name] = [dict(row) for row in rows]
        registry.timers.update(payload.get("timers", {}))
        registry.events = [Event.from_dict(e) for e in payload.get("events", [])]
        return registry

    def summary(self, max_series_rows: int = 5) -> str:
        """A human-readable digest (the ``repro stats`` CLI output)."""
        lines: list[str] = []
        if self.counters:
            lines.append("counters:")
            width = max(len(n) for n in self.counters)
            for name in sorted(self.counters):
                value = self.counters[name]
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"  {name:<{width}}  {shown}")
        if self.gauges:
            lines.append("gauges:")
            width = max(len(n) for n in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name:<{width}}  {self.gauges[name]:.6g}")
        if self.timers:
            lines.append("timers (s):")
            width = max(len(n) for n in self.timers)
            for name in sorted(self.timers):
                lines.append(f"  {name:<{width}}  {self.timers[name]:.6g}")
        for name in sorted(self.series):
            rows = self.series[name]
            lines.append(f"series {name} ({len(rows)} rows, last {max_series_rows}):")
            for row in rows[-max_series_rows:]:
                cells = ", ".join(
                    f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in row.items()
                )
                lines.append(f"  {cells}")
        if self.events:
            lines.append(f"events: {len(self.events)} "
                         f"({', '.join(sorted({e.kind for e in self.events}))})")
        return "\n".join(lines) if lines else "(empty registry)"

