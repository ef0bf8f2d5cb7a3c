"""Distributed work stealing — the § II intra-phase baseline.

The paper situates its persistence-based balancers against work
stealing (Cilk-style, distributed [21], and the *retentive* variant of
Lifflander et al. [22] where the location a task was executed becomes
its starting point next phase). This module implements both on the
event-level runtime:

- :class:`WorkStealingScheduler` runs one phase: each rank executes its
  queue serially; an idle rank sends steal requests to random victims;
  a victim with at least two queued tasks surrenders half (steal-half),
  otherwise answers empty; a thief gives up after ``max_attempts``
  consecutive failures.
- :class:`RetentiveWorkStealing` carries the end-of-phase task
  locations into the next phase, so steady-state phases start balanced
  and steal traffic collapses — the persistence effect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.sim.process import Process, System
from repro.sim.rng import RankStreams
from repro.util.validation import check_positive

__all__ = ["StealResult", "WorkStealingScheduler", "RetentiveWorkStealing"]


@dataclass
class StealResult:
    """Outcome of one work-stealing phase."""

    makespan: float  #: time the last task completed (relative to start)
    tasks_executed: int
    successful_steals: int
    failed_steals: int
    tasks_stolen: int
    final_location: np.ndarray  #: rank that executed each task
    start_time: float = 0.0
    executed_per_rank: np.ndarray = field(default_factory=lambda: np.empty(0))


class WorkStealingScheduler:
    """One phase of distributed work stealing on a simulated system."""

    def __init__(
        self,
        system: System,
        task_loads: np.ndarray,
        assignment: np.ndarray,
        seed: int | None = 0,
        max_attempts: int = 8,
        request_size: int = 32,
        task_desc_size: int = 256,
    ) -> None:
        check_positive("max_attempts", max_attempts)
        self.system = system
        self.task_loads = np.ascontiguousarray(task_loads, dtype=np.float64)
        assignment = np.ascontiguousarray(assignment, dtype=np.int64)
        if self.task_loads.shape != assignment.shape:
            raise ValueError("task_loads and assignment must have equal length")
        if self.task_loads.size and (
            assignment.min() < 0 or assignment.max() >= system.n_ranks
        ):
            raise ValueError("assignment entries out of range")
        self.max_attempts = int(max_attempts)
        self.request_size = int(request_size)
        self.task_desc_size = int(task_desc_size)
        self.streams = RankStreams(system.n_ranks, seed=seed)

        self._queues: list[deque[int]] = [deque() for _ in range(system.n_ranks)]
        for task, rank in enumerate(assignment):
            self._queues[rank].append(int(task))
        self._attempts = [0] * system.n_ranks
        self._retired = [False] * system.n_ranks

        self._tag_request = system.stage_tag("ws_request")
        self._tag_response = system.stage_tag("ws_response")
        for proc in system.processes:
            proc.register(self._tag_request, self._on_request)
            proc.register(self._tag_response, self._on_response)

        self.result = StealResult(
            makespan=0.0,
            tasks_executed=0,
            successful_steals=0,
            failed_steals=0,
            tasks_stolen=0,
            final_location=np.full(self.task_loads.size, -1, dtype=np.int64),
            executed_per_rank=np.zeros(system.n_ranks, dtype=np.int64),
        )

    def run(self) -> StealResult:
        """Execute the phase to completion; advances the system clock.
        The phase retires its tags when it ends."""
        self.result.start_time = self.system.engine.now
        for rank in range(self.system.n_ranks):
            self._next(rank)
        try:
            self.system.run()
        finally:
            self.system.retire(self._tag_request, self._tag_response)
        if self.result.tasks_executed != self.task_loads.size:
            raise RuntimeError(
                f"work stealing lost tasks: executed {self.result.tasks_executed} "
                f"of {self.task_loads.size}"
            )
        return self.result

    # -- per-rank loop ------------------------------------------------------

    def _next(self, rank: int) -> None:
        queue = self._queues[rank]
        proc = self.system.processes[rank]
        if queue:
            self._attempts[rank] = 0
            task = queue.popleft()
            proc.compute(float(self.task_loads[task]))
            self.system.engine.schedule_at(proc.busy_until, self._task_done, rank, task)
        else:
            self._try_steal(rank)

    def _task_done(self, rank: int, task: int) -> None:
        self.result.tasks_executed += 1
        self.result.executed_per_rank[rank] += 1
        self.result.final_location[task] = rank
        elapsed = self.system.engine.now - self.result.start_time
        self.result.makespan = max(self.result.makespan, elapsed)
        self._next(rank)

    # -- stealing protocol ------------------------------------------------------

    def _try_steal(self, rank: int) -> None:
        if self.system.n_ranks < 2 or self._attempts[rank] >= self.max_attempts:
            self._retired[rank] = True
            return
        self._attempts[rank] += 1
        rng = self.streams[rank]
        victim = int(rng.integers(0, self.system.n_ranks - 1))
        if victim >= rank:
            victim += 1
        self.system.processes[rank].send(
            victim, self._tag_request, payload=rank, size=self.request_size
        )

    def _on_request(self, proc: Process, msg) -> None:
        thief = int(msg.payload)
        queue = self._queues[proc.rank]
        if len(queue) >= 2:
            # Steal-half: surrender the newer half of the queue.
            n_give = len(queue) // 2
            stolen = [queue.pop() for _ in range(n_give)]
            size = self.request_size + self.task_desc_size * len(stolen)
            proc.send(thief, self._tag_response, payload=stolen, size=size)
        else:
            proc.send(thief, self._tag_response, payload=[], size=self.request_size)

    def _on_response(self, proc: Process, msg) -> None:
        rank = proc.rank
        stolen = msg.payload
        if stolen:
            self.result.successful_steals += 1
            self.result.tasks_stolen += len(stolen)
            self._queues[rank].extend(stolen)
        else:
            self.result.failed_steals += 1
        self._next(rank)


class RetentiveWorkStealing:
    """Multi-phase work stealing with retention [22].

    Phase ``t+1`` starts each task on the rank that *executed* it in
    phase ``t``. For persistent workloads the steady-state phases start
    balanced, so steals (and their latency cost) fade after the first
    phase — the effect the HPDC'12 paper reports.
    """

    def __init__(
        self,
        system: System,
        initial_assignment: np.ndarray,
        seed: int | None = 0,
        max_attempts: int = 8,
        retentive: bool = True,
    ) -> None:
        self.system = system
        self.assignment = np.ascontiguousarray(initial_assignment, dtype=np.int64).copy()
        self._initial = self.assignment.copy()
        self.seed = seed
        self.max_attempts = max_attempts
        #: With retention off, every phase restarts from the initial
        #: placement (plain per-phase work stealing).
        self.retentive = bool(retentive)
        self.phases_run = 0
        self.history: list[StealResult] = []

    def run_phase(self, task_loads: np.ndarray) -> StealResult:
        """Run one phase with the given per-task loads."""
        phase_seed = (self.seed if self.seed is not None else 0) * 100_003 + self.phases_run
        scheduler = WorkStealingScheduler(
            self.system,
            task_loads,
            self.assignment if self.retentive else self._initial,
            seed=phase_seed,
            max_attempts=self.max_attempts,
        )
        result = scheduler.run()
        if self.retentive:
            self.assignment = result.final_location.copy()
        self.phases_run += 1
        self.history.append(result)
        return result
