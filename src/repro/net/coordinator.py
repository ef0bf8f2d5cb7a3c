"""Episode coordinator: spawn workers, fold each iteration's decisions, collect.

The coordinator is pure *control plane*, and it sits in no round.
Gossip and transfer messages flow worker-to-worker as batch frames over
the dispatcher sockets, and the workers close every barrier step among
themselves (:meth:`~repro.net.node.NetWorker.wait_step`). Once per
iteration the coordinator reads every worker's ``decide`` report, folds
them (:func:`~repro.net.episode.fold_decisions`: the moves, the
coverage, the gossip rounds' accounting) and broadcasts the
episode-wide moves as ``apply``, which every core needs before the next
iteration. Every per-rank or per-task field of a control frame is a
binary section (:mod:`repro.net.wire`), so no JSON envelope grows with
the ranks.

Workers are either coroutines in this process (``processes=False``, the
default — still real loopback TCP between every pair of workers) or
real OS processes started as ``python -m repro.net.worker``
(``processes=True``). The control protocol is identical; workers cannot
tell the difference. Either way the coordinator races its own protocol
against the workers' ends: the first worker to raise or exit non-zero
aborts the episode with one :class:`WorkerFailed`.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.net.dispatcher import RetryPolicy
from repro.net.episode import (
    EpisodeResult,
    EpisodeSpec,
    build_result,
    fold_decisions,
)
from repro.net.node import run_worker
from repro.net.wire import FrameError, expect_frame, write_frame
from repro.obs import StatsRegistry
from repro.util.validation import check_positive, check_positive_int

__all__ = [
    "NetOptions",
    "WorkerFailed",
    "run_episode_net",
    "run_episode_net_async",
    "save_result",
]

#: How long a coordinator whose control connection hit EOF waits for the
#: worker behind it to finish dying, so that the error can name it.
_FAILURE_GRACE_S = 1.0


@dataclass(frozen=True)
class NetOptions:
    """How to host an episode's ranks."""

    workers: int = 1  #: worker containers to shard ranks across
    processes: bool = False  #: real OS processes vs in-loop coroutines
    log_dir: str | None = None  #: per-node JSONL wire logs (None = off)
    timeout: float = 300.0  #: wall-clock budget for the whole episode
    policy: RetryPolicy = RetryPolicy()  #: dispatcher retry/backoff

    def __post_init__(self) -> None:
        check_positive_int("workers", self.workers)
        check_positive("timeout", self.timeout)


class WorkerFailed(ConnectionError):
    """A worker raised, or its process exited non-zero, mid-episode."""

    def __init__(self, worker: int, ranks: tuple[int, int], cause: BaseException):
        self.worker = worker
        self.ranks = ranks  #: the half-open rank slice ``[lo, hi)`` it hosted
        self.cause = cause
        super().__init__(
            f"worker {worker} (ranks {ranks[0]}..{ranks[1] - 1}) failed: "
            f"{type(cause).__name__}: {cause}"
        )


#: One worker's control connection.
_Conn = tuple[asyncio.StreamReader, asyncio.StreamWriter]


async def _broadcast(conns: list[_Conn], frame: dict[str, Any]) -> None:
    for _, writer in conns:
        await write_frame(writer, frame)


async def run_episode_net_async(
    spec: EpisodeSpec, options: NetOptions | None = None, transport: list | None = None
) -> EpisodeResult:
    """Run one episode over real sockets; returns the canonical result.

    ``transport``, if given, receives one row per worker: its rank
    slice and the counters of its ``stats`` frame (batch frames and bytes
    written, envelope bytes, retries, deduped batches, control frames and
    bytes both ways).
    """
    options = options or NetOptions()
    return await asyncio.wait_for(
        _run_episode(spec, options, transport), timeout=options.timeout
    )


def run_episode_net(
    spec: EpisodeSpec, options: NetOptions | None = None, transport: list | None = None
) -> EpisodeResult:
    """Synchronous wrapper around :func:`run_episode_net_async`."""
    return asyncio.run(run_episode_net_async(spec, options, transport))


async def _watch(proc: asyncio.subprocess.Process) -> None:
    """A worker process's end, as a task that fails iff the worker did."""
    code = await proc.wait()
    if code:
        raise ChildProcessError(f"worker process exited with code {code}")


async def _run_episode(
    spec: EpisodeSpec, options: NetOptions, transport: list | None
) -> EpisodeResult:
    n_workers = min(options.workers, spec.n_ranks)
    # Contiguous rank slices, remainder spread over the first workers.
    base, extra = divmod(spec.n_ranks, n_workers)
    bounds = [i * base + min(i, extra) for i in range(n_workers + 1)]
    slices = list(zip(bounds, bounds[1:]))
    conns: list[_Conn] = []
    pending: asyncio.Queue[_Conn] = asyncio.Queue()

    async def accept(r: asyncio.StreamReader, w: asyncio.StreamWriter) -> None:
        conns.append((r, w))
        pending.put_nowait((r, w))

    def check_workers() -> None:
        for i, end in enumerate(ends):
            cause = end.exception() if end.done() and not end.cancelled() else None
            if cause is not None:
                raise WorkerFailed(i, slices[i], cause) from cause

    server = await asyncio.start_server(accept, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    procs: list[asyncio.subprocess.Process] = []
    ends: list[asyncio.Task] = []  #: one per worker; fails iff the worker did
    drive: asyncio.Task | None = None
    try:
        if options.processes:
            path = [str(Path(__file__).resolve().parents[2])]
            path += filter(None, [os.environ.get("PYTHONPATH")])
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
            argv = [sys.executable, "-m", "repro.net.worker", str(host), str(port)]
            for i in range(n_workers):
                procs.append(
                    await asyncio.create_subprocess_exec(*argv, str(i), env=env)
                )
                ends.append(asyncio.create_task(_watch(procs[-1])))
        else:
            ends = [
                asyncio.create_task(run_worker(host, port, i))
                for i in range(n_workers)
            ]
        drive = asyncio.create_task(_drive(spec, options, pending, slices, transport))
        waiting = {drive, *ends}
        while not drive.done():
            _, waiting = await asyncio.wait(
                waiting, return_when=asyncio.FIRST_COMPLETED
            )
            check_workers()
        if isinstance(drive.exception(), (FrameError, OSError)):
            # A worker that vanished shows first as EOF on its control
            # connection; give its end a moment to say why.
            await asyncio.wait(
                ends, timeout=_FAILURE_GRACE_S, return_when=asyncio.FIRST_COMPLETED
            )
            check_workers()
        result = drive.result()
        await asyncio.wait(ends)  # workers wind down on ``shutdown``
        check_workers()
        return result
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
        tasks = [task for task in (drive, *ends) if task is not None]
        for task in tasks:
            if task is drive or not procs:  # a killed process ends its own watch
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for _, writer in conns:
            writer.close()
        server.close()
        await server.wait_closed()


async def _drive(
    spec: EpisodeSpec,
    options: NetOptions,
    pending: asyncio.Queue[_Conn],
    slices: list[tuple[int, int]],
    transport: list | None,
) -> EpisodeResult:
    """The coordinator's half of the worker protocol."""
    by_index: dict[int, _Conn] = {}
    for _ in slices:
        conn = await pending.get()
        by_index[int((await expect_frame(conn[0], "hello"))["worker"])] = conn
    conns = [by_index[i] for i in range(len(slices))]
    readers = [reader for reader, _ in conns]

    scalars = {k: v for k, v in spec.to_dict().items() if k not in ("task_loads", "assignment")}
    assign_base = {
        "t": "assign",
        "spec": scalars,
        "task_loads": spec.task_loads_array,
        "assignment": spec.assignment_array.astype(np.int32),
        "log_dir": options.log_dir,
        "policy": asdict(options.policy),
    }
    if options.log_dir is not None:
        Path(options.log_dir).mkdir(parents=True, exist_ok=True)
    for (_, writer), (lo, hi) in zip(conns, slices):
        await write_frame(writer, {**assign_base, "ranks": [lo, hi]})
    ports = [int((await expect_frame(r, "ports"))["port"]) for r in readers]
    await _broadcast(conns, {"t": "peers", "ports": ports, "slices": slices})

    all_moves: list[tuple[int, int, int]] = []
    all_rounds: list[np.ndarray] = []
    coverage = 1.0
    for _iteration in range(spec.n_iters):
        reports = [await expect_frame(reader, "decide") for reader in readers]
        moves, coverage, iteration_rounds = fold_decisions(reports)
        await _broadcast(conns, {"t": "apply", "moves": moves})
        all_moves.extend(map(tuple, moves.tolist()))
        all_rounds.append(iteration_rounds)

    merged = StatsRegistry()
    for reader, ranks in zip(readers, slices):
        frame = await expect_frame(reader, "stats")
        merged.merge(StatsRegistry.from_dict(frame["registry"]))
        if transport is not None:
            transport.append({"ranks": list(ranks), **frame["transport"]})
    await _broadcast(conns, {"t": "shutdown"})
    return build_result(spec, all_moves, np.concatenate(all_rounds), merged.counters, coverage)


def save_result(
    path: Path | str,
    spec: EpisodeSpec,
    result: EpisodeResult,
    options: NetOptions,
    mode: str = "net",
) -> Path:
    """Write the episode artifact ``repro net analyze`` consumes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "mode": mode,
        "spec": spec.to_dict(),
        "options": {
            "workers": options.workers,
            "processes": options.processes,
            "log_dir": options.log_dir,
        },
        "result": result.to_dict(),
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path
