"""Phase demarcation: instrumentation and the end-of-phase barrier.

vt demarcates application *phases* (a timestep or iteration); load
balancing relies on instrumentation collected per phase (§ III-B, the
principle of persistence). A phase ends with a tree barrier here —
the bulk-synchronous boundary that makes the max rank load the
performance limiter (the reasoning behind Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.sim.messages import Message
from repro.sim.process import Process, System
from repro.sim.reductions import binomial_children, binomial_parent

__all__ = ["PhaseBarrier", "PhaseInstrumentation"]


class PhaseBarrier:
    """A binomial-tree barrier keyed to each rank's CPU-busy time.

    Every rank "arrives" when its CPU drains (``busy_until``); arrival
    reports flow up a binomial tree and a release wave flows back down.
    ``on_release(rank, time)`` fires per rank at its release time.
    Once the system has run the barrier out, :meth:`close` retires its
    tags.
    """

    def __init__(
        self,
        system: System,
        on_release: Callable[[int, float], None],
        size: int = 16,
    ) -> None:
        self.system = system
        self.on_release = on_release
        self.size = size
        n = system.n_ranks
        self._pending = [len(binomial_children(v, n)) + 1 for v in range(n)]
        # A duplicated control message must not count a child's arrival
        # twice or release a rank twice.
        self._heard: set[tuple[int, int]] = set()
        self._released: set[int] = set()
        self._tag_up = system.stage_tag("__barrier_up")
        self._tag_down = system.stage_tag("__barrier_down")
        for proc in system.processes:
            proc.register(self._tag_up, self._on_up)
            proc.register(self._tag_down, self._on_down)

    def start(self) -> None:
        """Arm the barrier: each rank arrives when its CPU drains."""
        for proc in self.system.processes:
            when = max(self.system.engine.now, proc.busy_until)
            self.system.engine.schedule_at(when, self._arrive, proc.rank)

    def close(self) -> None:
        """Retire the barrier's tags (idempotent)."""
        self.system.retire(self._tag_up, self._tag_down)

    def _arrive(self, rank: int) -> None:
        self._pending[rank] -= 1
        self._maybe_send_up(rank)

    def _on_up(self, proc: Process, msg: Message) -> None:
        if (proc.rank, msg.src) in self._heard:
            return
        self._heard.add((proc.rank, msg.src))
        self._pending[proc.rank] -= 1
        self._maybe_send_up(proc.rank)

    def _maybe_send_up(self, rank: int) -> None:
        if self._pending[rank] != 0:
            return
        self._pending[rank] = -1  # fired
        if rank == 0:
            self._release(0)
            return
        parent = binomial_parent(rank)
        self.system.processes[rank].send(parent, self._tag_up, size=self.size)

    def _release(self, rank: int) -> None:
        if rank in self._released:
            return
        self._released.add(rank)
        self.on_release(rank, self.system.engine.now)
        for child in binomial_children(rank, self.system.n_ranks):
            self.system.processes[rank].send(child, self._tag_down, size=self.size)

    def _on_down(self, proc: Process, msg: Message) -> None:
        self._release(proc.rank)


@dataclass
class PhaseInstrumentation:
    """Measured per-task loads, one vector per completed phase.

    The balancer consumes ``latest()`` as its prediction for the next
    phase — exactly the persistence assumption the paper leans on.
    """

    history: list[np.ndarray] = field(default_factory=list)
    max_phases_kept: int = 8

    def observe(self, task_loads: np.ndarray) -> None:
        """Record one phase's measured per-task loads."""
        self.history.append(np.array(task_loads, dtype=np.float64, copy=True))
        if len(self.history) > self.max_phases_kept:
            self.history.pop(0)

    def latest(self) -> np.ndarray:
        """The most recent phase's loads (the persistence prediction)."""
        if not self.history:
            raise RuntimeError("no phase has been instrumented yet")
        return self.history[-1]

    @property
    def n_phases(self) -> int:
        return len(self.history)
