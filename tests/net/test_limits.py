"""Known limits of the socket runtime, pinned.

Open fds are ``O(W^2)`` in the worker count and independent of the rank
count (one server and one connection per worker pair), batch frames are
cut near ``BATCH_CUT_BYTES``, a dispatcher queue never holds more than
one step's cuts, and the sim<->net identity holds at 256 ranks in tier-1
(1,024 under ``slow``).
"""

import asyncio
import os

import pytest

from repro.net import (
    EpisodeSpec,
    NetOptions,
    run_episode_net,
    run_episode_net_async,
    run_episode_sim,
)
from repro.net import dispatcher, node

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
        # 4 tasks per rank keeps 1,024 NodeCores' private arrays small.
        spec = EpisodeSpec.synthetic(1024, n_tasks=4096, seed=0)
        net = run_episode_net(spec, NetOptions(workers=4))
        assert net.to_dict() == run_episode_sim(spec).to_dict()


class TestBatchCut:
    @pytest.fixture
    def spy(self, monkeypatch):
        """Record every batch frame packed and the queue depth behind
        every send, per destination, between two drains."""
        seen = {"frames": [], "depths": []}
        since_drain: dict[tuple[int, int], int] = {}
        real_pack = dispatcher.pack_frame
        real_send = dispatcher.Dispatcher.send
        real_drain = dispatcher.Dispatcher.drain

        def pack(obj, msgs=None):
            payload = real_pack(obj, msgs)
            if msgs is not None:
                seen["frames"].append((len(payload), [len(m) for m in msgs]))
            return payload

        def send(self, dst, frame, tag="", msgs=None):
            real_send(self, dst, frame, tag, msgs)
            key = (self.rank, dst)
            since_drain[key] = since_drain.get(key, 0) + 1
            seen["depths"].append((self.queued(dst), since_drain[key]))

        async def drain(self):
            await real_drain(self)
            for key in [k for k in since_drain if k[0] == self.rank]:
                del since_drain[key]

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
        for size, bodies in spy["frames"]:
            # A cut closes only once it passes the constant: all but its
            # last message fit under it, so a frame exceeds it by at most
            # one message (plus the ~70-byte envelope).
            assert sum(n + 1 for n in bodies[:-1]) < cut
            assert size <= cut + bodies[-1] + 128
