"""Known limits of the socket runtime, pinned.

Open fds are ``O(W^2)`` in the worker count and independent of the rank
count (one server and one connection per worker pair), every core of a
spec shares one read-only ``task_loads``, a worker holds one core (one
assignment) for its whole rank slice, batch frames are cut near
``BATCH_CUT_BYTES``, a dispatcher queue never holds more than one
step's cuts, control frames carry every per-rank field as a binary
section (so their JSON envelopes do not grow with the ranks), and the
sim<->net identity holds at 256 ranks in tier-1 (1,024 under ``slow``).
"""

import asyncio
import os
import tracemalloc

import numpy as np
import pytest

from repro.net import (
    EpisodeSpec,
    NetOptions,
    NodeCore,
    run_episode_net,
    run_episode_net_async,
    run_episode_sim,
)
from repro.net import dispatcher, node, wire
from repro.net.wire import MAX_FRAME_BYTES, MEMBER_ID, RECORD

needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def _fd_peak(n_ranks: int, workers: int) -> int:
    """Peak open fds over the pre-episode baseline, logs off (a wire
    log is one open file per rank, by design)."""

    async def scenario() -> int:
        unhandled: list[dict] = []  # what asyncio would only log to stderr
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        baseline = peak = len(os.listdir("/proc/self/fd"))

        async def sample() -> None:
            nonlocal peak
            while True:
                peak = max(peak, len(os.listdir("/proc/self/fd")))
                await asyncio.sleep(0.001)

        sampler = asyncio.create_task(sample())
        try:
            spec = EpisodeSpec.synthetic(n_ranks, seed=1)
            await run_episode_net_async(spec, NetOptions(workers=workers))
        finally:
            sampler.cancel()
        await asyncio.sleep(0.05)  # let teardown callbacks run
        assert not unhandled
        return peak - baseline

    return asyncio.run(scenario())


@needs_proc_fd
class TestFileDescriptors:
    def test_fds_do_not_grow_with_ranks(self):
        assert abs(_fd_peak(128, workers=2) - _fd_peak(16, workers=2)) <= 2

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fds_are_quadratic_in_workers(self, workers):
        # Per worker: a listener, a control link, W dialled and W accepted
        # data links; the coordinator: a listener and W control links.
        exact = 2 * workers**2 + 3 * workers + 1
        peak = _fd_peak(16, workers)
        assert exact - 2 <= peak <= 2 * workers**2 + 4 * workers + 16


class TestScale:
    def test_256_ranks_identical_to_sim(self):
        spec = EpisodeSpec.synthetic(256, seed=0, n_iters=2)
        net = run_episode_net(spec, NetOptions(workers=2))
        assert net.to_dict() == run_episode_sim(spec).to_dict()

    @pytest.mark.slow
    def test_1024_ranks_identical_to_sim(self):
        # 4 tasks per rank keeps the 1,024-rank episode small and fast.
        spec = EpisodeSpec.synthetic(1024, n_tasks=4096, seed=0)
        net = run_episode_net(spec, NetOptions(workers=4))
        assert net.to_dict() == run_episode_sim(spec).to_dict()


class TestMemory:
    def test_cores_share_one_read_only_task_loads(self):
        """8 B per task per rank: the spec's one read-only ``task_loads``
        array is every core's; only ``assignment`` is private."""
        spec = EpisodeSpec.synthetic(8, seed=2)
        a, b = NodeCore(spec, 0), NodeCore(spec, 1)
        assert a.task_loads is b.task_loads is spec.task_loads_array
        assert not spec.task_loads_array.flags.writeable
        assert a.assignment.flags.writeable and not np.shares_memory(
            a.assignment, b.assignment
        )
        assert not np.shares_memory(a.assignment, spec.assignment_array)

    #: Traced peak of building this worker with one core per rank, each
    #: copying the assignment (measured before the cores became slices).
    PEAK_WITH_A_CORE_PER_RANK = 9_248_463

    def test_worker_keeps_one_assignment_not_one_per_rank(self):
        """A worker hosting 256 ranks x 4,096 tasks builds one core: one
        32 kB assignment, a 256 x 32 B knowledge matrix and two generators
        (< 1 kB each) per rank, so building it traces O(T + R*P/8) bytes,
        not the O(R*T) of a core per rank."""
        spec = EpisodeSpec.synthetic(256, n_tasks=4096, seed=0)
        tracemalloc.start()
        try:
            worker = node.NetWorker(0, spec, range(256))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        core = worker.core
        assert core.ranks == range(256) and core.known.shape == (256, 32)
        assert core.assignment.nbytes == 4096 * 8 and core.task_loads is spec.task_loads_array
        # The spec's two arrays and one copy, then 3 kB a rank for its streams.
        assert peak < 3 * core.assignment.nbytes + 3 * 1024 * len(core.ranks) + core.known.nbytes
        assert peak < self.PEAK_WITH_A_CORE_PER_RANK // 12


class TestBatchCut:
    @pytest.fixture
    def spy(self, monkeypatch):
        """Record every batch frame packed, the queue depth behind every
        send, and each step's cuts (their message sizes) per destination,
        between two drains."""
        seen = {"frames": [], "depths": [], "steps": []}
        since_drain: dict[tuple[int, int], int] = {}
        step_cuts: dict[tuple[int, int], list[list[int]]] = {}
        real_pack = dispatcher.pack_frame
        real_send = dispatcher.Dispatcher.send
        real_drain = dispatcher.Dispatcher.drain

        def pack(frame):
            payload = real_pack(frame)
            counts = frame["records"]["count"].tolist()
            sizes = [RECORD.itemsize + MEMBER_ID.itemsize * c for c in counts]
            seen["frames"].append((len(payload), sizes))
            return payload

        def send(self, dst, frame, tag=""):
            real_send(self, dst, frame, tag)
            key = (self.rank, dst)
            since_drain[key] = since_drain.get(key, 0) + 1
            seen["depths"].append((self.queued(dst), since_drain[key]))
            counts = frame["records"]["count"].tolist()
            step_cuts.setdefault(key, []).append(
                [RECORD.itemsize + MEMBER_ID.itemsize * c for c in counts])

        async def drain(self):
            await real_drain(self)
            for key in [k for k in since_drain if k[0] == self.rank]:
                del since_drain[key]
                seen["steps"].append(step_cuts.pop(key))

        monkeypatch.setattr(dispatcher, "pack_frame", pack)
        monkeypatch.setattr(dispatcher.Dispatcher, "send", send)
        monkeypatch.setattr(dispatcher.Dispatcher, "drain", drain)
        return seen

    def test_uncut_step_queues_one_frame_per_peer(self, spy):
        spec = EpisodeSpec.synthetic(64, seed=6)
        assert run_episode_net(spec, NetOptions(workers=2)).to_dict() == (
            run_episode_sim(spec).to_dict()
        )
        assert spy["depths"] and all(d == (1, 1) for d in spy["depths"])
        assert max(size for size, _ in spy["frames"]) < node.BATCH_CUT_BYTES

    def test_small_cut_changes_frames_not_results(self, spy, monkeypatch):
        cut = 4096
        monkeypatch.setattr(node, "BATCH_CUT_BYTES", cut)
        spec = EpisodeSpec.synthetic(64, seed=6)
        assert run_episode_net(spec, NetOptions(workers=2)).to_dict() == (
            run_episode_sim(spec).to_dict()
        )
        assert max(cuts for _, cuts in spy["depths"]) > 1  # cuts happened
        # Queue depth at every send <= the cuts of the step so far.
        assert all(depth <= cuts for depth, cuts in spy["depths"])
        for size, records in spy["frames"]:
            # A cut closes only once its records pass the constant: all
            # but its last message fit under it, so a frame exceeds it by
            # at most one message (plus the ~110-byte header and envelope).
            assert sum(records[:-1]) < cut
            assert size <= cut + records[-1] + 192
        # ...and no earlier: every cut of a step but its last reaches it.
        assert any(len(cuts) > 1 for cuts in spy["steps"])
        for cuts in spy["steps"]:
            assert all(sum(records) >= cut for records in cuts[:-1])


class TestControlPlane:
    """What the worker<->coordinator links carry, per episode."""

    #: ``control_bytes`` summed over both workers of a 64-rank, two-iteration
    #: episode (seed 0) while control frames were JSON with string rank
    #: keys: 112 frames, 199,478 bytes (hello through the last ``apply``).
    JSON_CONTROL_BYTES = 199_478

    def test_64_rank_control_bytes_below_the_json_layout(self):
        transport: list[dict] = []
        spec = EpisodeSpec.synthetic(64, seed=0, n_iters=2)
        run_episode_net(spec, NetOptions(workers=2), transport)
        frames = sum(row["control_frames"] for row in transport)
        sent = sum(row["control_bytes"] for row in transport)
        assert frames == 112  # the protocol's frame sequence is unchanged
        assert sent == 153_832  # measured with sections; 23 % below the JSON layout
        assert sent < self.JSON_CONTROL_BYTES

    def test_1024_rank_control_frames_stay_small(self, monkeypatch):
        """The largest control frame at 1,024 ranks (4,096 tasks, four
        workers) is the spec's ``assign``, ~50 kB — far below the frame
        limit — and no JSON envelope grows with the ranks or tasks."""
        frames: list[tuple[int, int, str]] = []
        real_pack = wire.pack_frame

        def pack(frame):  # write_frame's codec: every control frame, no batch
            data = real_pack(frame)
            envelope = int.from_bytes(data[8:12], "little")
            frames.append((len(data), envelope, frame["t"]))
            return data

        monkeypatch.setattr(wire, "pack_frame", pack)
        spec = EpisodeSpec.synthetic(1024, n_tasks=4096, seed=0)
        run_episode_net(spec, NetOptions(workers=4))
        assert {t for *_, t in frames} >= {"assign", "sent", "commit", "decide", "apply", "stats"}
        largest, _, kind = max(frames)
        assert kind == "assign" and largest < 64 * 1024
        assert largest < MAX_FRAME_BYTES / 1000
        assert max(envelope for _, envelope, _ in frames) <= 1024
