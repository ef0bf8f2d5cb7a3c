"""Task migration over the simulated network.

After the balancer commits a proposal (Alg. 3 l.13), each moved task's
state (its sub-mesh and particles, in EMPIRE terms) is serialized and
shipped to the destination rank. Migration dominates ``t_lb`` in the
paper's Fig. 3; this module reproduces that cost structure.

The episode is a *diffusing computation* so Dijkstra–Scholten applies:
rank 0 broadcasts a commit wave down a binomial tree; on receiving the
wave each rank ships its outgoing tasks as per-task messages of
``bytes_per_unit_load * load + fixed`` bytes; the root detects global
completion when its deficit drains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.process import Process, System
from repro.sim.reductions import binomial_children
from repro.sim.termination import DijkstraScholten

__all__ = ["MigrationResult", "migrate_tasks"]


@dataclass
class MigrationResult:
    """Outcome of one migration episode."""

    n_migrations: int
    bytes_moved: int
    start_time: float
    end_time: float  #: simulated time when every task has landed

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def migrate_tasks(
    system: System,
    moves: list[tuple[int, int, int]],
    task_loads: np.ndarray,
    bytes_per_unit_load: float = 1e6,
    fixed_bytes: int = 2048,
) -> MigrationResult:
    """Ship each moved task's bytes from its source to its destination.

    Parameters
    ----------
    moves:
        ``(task, src, dst)`` triples — :class:`~repro.runtime.LBManager`
        passes the diff of the original and the winning assignment. A
        task appearing several times is shipped once, directly to its
        final destination.
    task_loads:
        Per-task loads; a task's state size scales with its load (more
        particles = more work = more bytes), matching EMPIRE's colors.
    bytes_per_unit_load / fixed_bytes:
        The serialization size model.

    Returns the episode's :class:`MigrationResult`; the system clock
    advances to the detected completion time, and the episode leaves no
    handler or hook behind.
    """
    commit_tag = system.stage_tag("mig_commit")
    task_tag = system.stage_tag("mig_task")
    start = system.engine.now

    # Final destination per task (collapse multi-hop proposals).
    final_dst: dict[int, tuple[int, int]] = {}
    for task, src, dst in moves:
        first_src = final_dst[task][0] if task in final_dst else src
        final_dst[task] = (first_src, dst)
    outgoing: dict[int, list[tuple[int, int]]] = {}
    bytes_by_task = {}
    for task, (src, dst) in final_dst.items():
        if src == dst:
            continue
        outgoing.setdefault(src, []).append((task, dst))
        bytes_by_task[task] = int(fixed_bytes + bytes_per_unit_load * float(task_loads[task]))

    def on_commit(proc: Process, msg: "object") -> None:
        for child in binomial_children(proc.rank, system.n_ranks):
            proc.send(child, commit_tag, size=16)
        for task, dst in outgoing.get(proc.rank, ()):  # ship our tasks
            proc.send(dst, task_tag, payload=task, size=bytes_by_task[task])

    for proc in system.processes:
        proc.register(commit_tag, on_commit)
        proc.register(task_tag, lambda p, m: None)

    done: list[float] = []
    detector = DijkstraScholten(system, root=0, on_terminate=done.append)
    # Root starts the wave: locally runs the commit handler semantics.
    root = system.processes[0]
    for child in binomial_children(0, system.n_ranks):
        root.send(child, commit_tag, size=16)
    for task, dst in outgoing.get(0, ()):
        root.send(dst, task_tag, payload=task, size=bytes_by_task[task])
    detector.start()
    try:
        system.run()
    finally:
        detector.cancel()
        system.retire(commit_tag, task_tag)
    if not done:
        raise RuntimeError("migration termination was not detected")
    return MigrationResult(
        n_migrations=len(bytes_by_task),
        bytes_moved=sum(bytes_by_task.values()),
        start_time=start,
        end_time=done[0],
    )
