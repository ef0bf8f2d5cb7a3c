"""Chaos: a broken worker ends the episode in seconds, with a name.

Every case runs under the default 300 s ``NetOptions.timeout`` — the
only deadline in the system — and must raise :class:`WorkerFailed`
(worker index, rank slice, cause) in under 10 s, leaving no pending
asyncio task and no open socket behind.
"""

import asyncio
import os
import struct
import time

import pytest

from repro.cli import main
from repro.net import (
    DispatchError,
    EpisodeSpec,
    NetOptions,
    NodeCore,
    RetryPolicy,
    WorkerFailed,
    run_episode_net_async,
)
from repro.net import coordinator
from repro.net.node import NetWorker
from repro.net.wire import FrameError

BOUND_S = 10.0


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def _fails(spec: EpisodeSpec, options: NetOptions) -> WorkerFailed:
    """Run the episode, require the named error inside the bound and a
    clean loop afterwards; returns the error for the case's own checks."""

    async def scenario() -> WorkerFailed:
        unhandled: list[dict] = []  # what asyncio would only log to stderr
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        fds_before = _open_fds()
        start = time.perf_counter()
        with pytest.raises(WorkerFailed) as caught:
            await run_episode_net_async(spec, options)
        assert time.perf_counter() - start < BOUND_S
        await asyncio.sleep(0.05)  # closed transports release their fds
        others = asyncio.all_tasks() - {asyncio.current_task()}
        assert not [task for task in others if not task.done()]
        assert _open_fds() <= fds_before  # listening sockets included
        assert not unhandled
        return caught.value

    assert options.timeout == NetOptions().timeout == 300.0
    return asyncio.run(scenario())


@pytest.fixture
def advance_raises(monkeypatch):
    """The ``NodeCore.advance`` of the slice hosting rank 20 raises in round 2."""
    real = NodeCore.advance

    def advance(self, round_index):
        if 20 in self.ranks and round_index == 2:
            raise RuntimeError("injected advance failure")
        return real(self, round_index)

    monkeypatch.setattr(NodeCore, "advance", advance)


def test_worker_exception_names_worker_and_slice(advance_raises):
    error = _fails(EpisodeSpec.synthetic(32, seed=1), NetOptions(workers=2))
    assert (error.worker, error.ranks) == (1, (16, 32))
    assert isinstance(error.cause, RuntimeError)
    assert error.__cause__ is error.cause
    assert "worker 1 (ranks 16..31) failed: RuntimeError: injected" in str(error)
    assert isinstance(error, ConnectionError)


def test_refused_data_port_exhausts_retries(monkeypatch):
    real_start = NetWorker.start

    async def start(self):
        port = await real_start(self)
        if self.index == 1:  # worker 1 advertises a port nobody listens on
            self._server.close()
            await self._server.wait_closed()
        return port

    monkeypatch.setattr(NetWorker, "start", start)
    policy = RetryPolicy(rto=0.01, backoff=1.5, max_retries=3)
    error = _fails(
        EpisodeSpec.synthetic(32, seed=2), NetOptions(workers=2, policy=policy)
    )
    # Worker 0 and worker 1 itself both dial worker 1; either may lose first.
    assert error.worker in (0, 1)
    assert isinstance(error.cause, DispatchError)
    assert "-> 1: gave up after 4 attempts" in str(error)


def test_truncated_batch_frame_fails_the_receiver(monkeypatch):
    real_start = NetWorker.start

    async def start(self):
        port = await real_start(self)
        if self.index == 0:  # a peer dies mid-frame on worker 0's data port
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(struct.pack(">I", 200) + b'{"t":"batch","src":1,"seq":0,')
            await writer.drain()
            writer.close()
        return port

    monkeypatch.setattr(NetWorker, "start", start)
    error = _fails(EpisodeSpec.synthetic(32, seed=3), NetOptions(workers=2))
    assert (error.worker, error.ranks) == (0, (0, 16))
    assert isinstance(error.cause, FrameError)
    assert "closed inside a frame body" in str(error)


@pytest.mark.slow
def test_killed_worker_process_is_named(monkeypatch):
    procs = []
    real_exec = asyncio.create_subprocess_exec
    real_broadcast = coordinator._broadcast

    async def spawn(*args, **kwargs):
        procs.append(await real_exec(*args, **kwargs))
        return procs[-1]

    async def broadcast(conns, frame):
        await real_broadcast(conns, frame)
        if frame["t"] == "peers":  # the handshake's last frame
            procs[1].kill()

    monkeypatch.setattr(asyncio, "create_subprocess_exec", spawn)
    monkeypatch.setattr(coordinator, "_broadcast", broadcast)
    error = _fails(
        EpisodeSpec.synthetic(16, seed=4), NetOptions(workers=2, processes=True)
    )
    assert (error.worker, error.ranks) == (1, (8, 16))
    assert isinstance(error.cause, ChildProcessError)
    assert "exited with code -9" in str(error)
    assert all(proc.returncode is not None for proc in procs)


def test_cli_exits_nonzero_with_one_line(advance_raises, tmp_path, capsys):
    start = time.perf_counter()
    code = main(
        ["net", "run", "--ranks", "32", "--workers", "2", "--seed", "1",
         "--out", str(tmp_path / "ep"), "--no-logs"]
    )
    assert time.perf_counter() - start < BOUND_S
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.strip().splitlines() == [
        "net episode failed: worker 1 (ranks 16..31) failed: "
        "RuntimeError: injected advance failure"
    ]
    assert not (tmp_path / "ep" / "result.json").exists()
