"""Outbound connection pool with stubborn-link retry semantics.

One :class:`Dispatcher` per *worker* owns a lazily-built TCP connection
per peer worker (itself included) and a per-peer FIFO send queue
drained by a dedicated task — so a slow or unreachable peer never
blocks traffic to the others. A worker enqueues at most one batch frame
(or its few cuts) per peer between two :meth:`Dispatcher.drain` calls,
so the queues are bounded by construction.

Failure handling is a stubborn link: a failed connect or write is
retried on an exponential backoff schedule (:class:`RetryPolicy`:
``rto``, ``backoff``, ``max_retries``), every enqueued frame is
retransmitted until it is written to a live connection, and each frame
carries a per-peer sequence number so the receiver can drop the
duplicates retransmission can create
(:class:`repro.net.node.NetWorker` keeps the ``(src, seq)`` seen-set).
Past ``max_retries`` the dispatcher records a terminal
:class:`DispatchError` that :meth:`drain` re-raises — giving up is
loud, never silent.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.net.logging_jsonl import WireLog
from repro.net.wire import pack_batch, pack_frame

__all__ = ["DispatchError", "RetryPolicy", "Dispatcher"]


class DispatchError(ConnectionError):
    """A peer stayed unreachable past the retry budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Stubborn-link backoff schedule, in wall-clock seconds."""

    rto: float = 0.05  #: initial retry timeout
    backoff: float = 2.0  #: multiplier per successive retry
    max_retries: int | None = 10  #: attempts after the first; None = forever
    max_delay: float = 2.0  #: backoff ceiling

    def delay(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based)."""
        return min(self.rto * self.backoff ** (attempt - 1), self.max_delay)


class _PeerChannel:
    """One peer's send queue + delivery task + connection."""

    __slots__ = ("queue", "task", "writer")

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: asyncio.Task | None = None
        self.writer: asyncio.StreamWriter | None = None


class Dispatcher:
    """A worker's outbound side: ``send`` enqueues, channel tasks deliver."""

    def __init__(
        self,
        rank: int,
        peers: dict[int, tuple[str, int]],
        policy: RetryPolicy | None = None,
        log: WireLog | None = None,
    ) -> None:
        self.rank = int(rank)  #: the owner's index among ``peers``' keys
        self.peers = dict(peers)
        self.policy = policy or RetryPolicy()
        self.log = log  #: receives one ``retry`` row per failed attempt
        self.sent = 0  #: frames written to a live connection
        self.bytes = 0  #: bytes of those frames, length prefixes included
        self.retries = 0  #: connect/write attempts that failed and were retried
        self._channels: dict[int, _PeerChannel] = {}
        self._seq: dict[int, int] = {}
        self._failure: DispatchError | None = None

    def send(
        self,
        dst: int,
        frame: dict,
        tag: str = "",
        section: tuple[list[tuple], list] | None = None,
    ) -> None:
        """Enqueue one frame for ``dst``; returns immediately.

        The frame is stamped with a per-peer ``seq`` for receiver-side
        dedup and packed here: a control frame, or with ``section`` =
        ``(records, ids)`` the envelope of a batch frame
        (:func:`~repro.net.wire.pack_batch`); ``tag`` labels the
        ``retry`` log rows only.
        """
        if self._failure is not None:
            raise self._failure
        if dst not in self.peers:
            raise KeyError(f"{dst} is not a known peer")
        seq = self._seq.get(dst, 0)
        self._seq[dst] = seq + 1
        frame = {**frame, "seq": seq}
        payload = pack_frame(frame) if section is None else pack_batch(frame, *section)
        channel = self._channels.get(dst)
        if channel is None:
            channel = self._channels[dst] = _PeerChannel()
            channel.task = asyncio.ensure_future(self._worker(dst, channel))
        channel.queue.put_nowait((payload, tag))

    def queued(self, dst: int) -> int:
        """Frames enqueued for ``dst`` that no write has picked up yet."""
        channel = self._channels.get(dst)
        return 0 if channel is None else channel.queue.qsize()

    async def drain(self) -> None:
        """Wait until every enqueued frame has been written out.

        Raises the terminal :class:`DispatchError` if any peer exceeded
        its retry budget while draining.
        """
        for channel in list(self._channels.values()):
            await channel.queue.join()
            if self._failure is not None:
                raise self._failure

    async def close(self) -> None:
        """Stop the channel tasks and close connections (pending frames
        — and a delivery parked in a retry back-off — are dropped).
        Everything is torn down before the first await, so a close that
        is itself cancelled leaks nothing."""
        channels = list(self._channels.values())
        self._channels.clear()
        waits = [c.task for c in channels if c.task is not None]
        for task in waits:
            task.cancel()
        for channel in channels:
            if channel.writer is not None:
                channel.writer.close()
                waits.append(channel.writer.wait_closed())
        await asyncio.gather(*waits, return_exceptions=True)

    # -- channel side --------------------------------------------------------

    async def _worker(self, dst: int, channel: _PeerChannel) -> None:
        while True:
            payload, tag = await channel.queue.get()
            try:
                await self._deliver(dst, channel, payload, tag)
            except DispatchError as exc:
                self._failure = exc
                channel.queue.task_done()
                # Drain the rest so join() wakes; the failure re-raises
                # from drain()/send(), not from a lost task.
                while not channel.queue.empty():
                    channel.queue.get_nowait()
                    channel.queue.task_done()
                return
            self.sent += 1
            self.bytes += len(payload)
            channel.queue.task_done()

    async def _deliver(
        self, dst: int, channel: _PeerChannel, payload: bytes, tag: str
    ) -> None:
        """Stubbornly write ``payload``: reconnect + retransmit on any
        socket error, backing off per the policy."""
        attempt = 0
        while True:
            try:
                if channel.writer is None:
                    host, port = self.peers[dst]
                    _, channel.writer = await asyncio.open_connection(host, port)
                channel.writer.write(payload)
                await channel.writer.drain()
                return
            except OSError as exc:
                if channel.writer is not None:
                    channel.writer.close()
                    channel.writer = None
                attempt += 1
                self.retries += 1
                if self.log is not None:
                    self.log.record("retry", tag, dst, 0, 0)
                budget = self.policy.max_retries
                if budget is not None and attempt > budget:
                    raise DispatchError(
                        f"{self.rank} -> {dst}: gave up after "
                        f"{attempt} attempts: {exc}"
                    ) from exc
                await asyncio.sleep(self.policy.delay(attempt))
