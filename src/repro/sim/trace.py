"""Execution tracing — the Projections role for the simulated runtime.

A :class:`Tracer` hooks a :class:`~repro.sim.process.System` and records
message sends and per-rank CPU busy intervals, from which it derives
utilization, per-tag message statistics, and a text Gantt chart — the
standard post-mortem views used to diagnose load imbalance visually
(compare the paper's Fig. 4b narrative: max busy rank vs idle ranks).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.sim.messages import Message
from repro.sim.process import System
from repro.sim.termination import is_control_tag
from repro.util.validation import check_positive_int

__all__ = ["Tracer", "SendRecord"]


@dataclass(frozen=True)
class SendRecord:
    """One traced message send."""

    time: float
    src: int
    dst: int
    tag: str
    size: int


class Tracer:
    """Records sends and busy intervals on one system."""

    def __init__(self, system: System, trace_control: bool = False) -> None:
        self.system = system
        #: Whether to record control traffic (tokens, acks, barriers).
        self.trace_control = bool(trace_control)
        self.sends: list[SendRecord] = []
        #: Per-rank CPU busy intervals ``(start, end)``.
        self.busy: list[list[tuple[float, float]]] = [[] for _ in range(system.n_ranks)]
        system.add_transmit_hook(self._on_transmit)
        system.add_compute_hook(self._on_compute)

    def _on_transmit(self, msg: Message) -> None:
        if not self.trace_control and is_control_tag(msg.tag):
            return
        self.sends.append(SendRecord(self.system.engine.now, msg.src, msg.dst, msg.tag, msg.size))

    def _on_compute(self, rank: int, start: float, end: float) -> None:
        intervals = self.busy[rank]
        # Coalesce back-to-back intervals to keep the trace compact.
        if intervals and abs(intervals[-1][1] - start) < 1e-15:
            intervals[-1] = (intervals[-1][0], end)
        else:
            intervals.append((start, end))

    # -- analysis --------------------------------------------------------------

    def utilization(self, until: float | None = None) -> np.ndarray:
        """Busy fraction per rank over ``[0, until]`` (default: now)."""
        horizon = self.system.engine.now if until is None else float(until)
        if horizon <= 0:
            return np.zeros(self.system.n_ranks)
        busy = np.array(
            [
                sum(min(end, horizon) - min(start, horizon) for start, end in iv)
                for iv in self.busy
            ]
        )
        return np.clip(busy / horizon, 0.0, 1.0)

    def messages_by_tag(self) -> dict[str, int]:
        """Send counts per message tag."""
        return dict(Counter(record.tag for record in self.sends))

    def gantt(self, width: int = 60, until: float | None = None) -> str:
        """A text Gantt chart: one row per rank, ``#`` = busy, ``.`` = idle."""
        check_positive_int("width", width)
        horizon = self.system.engine.now if until is None else float(until)
        if horizon <= 0:
            return "\n".join(f"rank {r:>3} |{'.' * width}|" for r in range(self.system.n_ranks))
        lines = []
        for rank, intervals in enumerate(self.busy):
            cells = ["."] * width
            for start, end in intervals:
                first = int(np.clip(start / horizon * width, 0, width - 1))
                last = int(np.clip(np.ceil(end / horizon * width), first + 1, width))
                for i in range(first, last):
                    cells[i] = "#"
            lines.append(f"rank {rank:>3} |{''.join(cells)}|")
        return "\n".join(lines)
