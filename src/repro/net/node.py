"""Live workers: one TCP endpoint hosting a slice of rank nodes.

The transport's unit is the **worker**, as a DARMA/vt process owns one
MPI endpoint for all the rank-addressed traffic it hosts. A
:class:`NetWorker` binds one loopback server, owns one
:class:`~repro.net.dispatcher.Dispatcher` whose peers are the workers
(itself included: same-worker traffic takes the same encode -> socket
-> decode path, so there is one delivery path), and hosts a contiguous
slice of :class:`NetNode` s — what is left of a rank is its
:class:`~repro.net.episode.NodeCore`, its arrival counters and its
:class:`~repro.net.logging_jsonl.WireLog`. Nothing in this module
decides *anything* about the episode; it only moves the state
machines' messages over sockets and implements the waits the round
barrier needs.

Each barrier step (a gossip round, the transfer step) leaves a worker
as **one batch frame per destination worker**: a small JSON envelope
(``src`` worker, ``iter``, ``seq``, record count) and one binary
section — a fixed-layout record per message and the members of every
gossip message in one ``<i8`` array (:func:`repro.net.wire.pack_batch`),
built straight from the step's :class:`~repro.net.episode.GossipSend` s
and ``(src, dst, task)`` transfers. No message becomes an object or a
JSON string on the way. A step is cut into several frames only once its
records pass :data:`BATCH_CUT_BYTES`. The receiver drops a repeated
``(src, seq)`` batch whole, refuses one from an earlier iteration,
hands each record to the node it addresses — gossip members as a
read-only view into the frame — and wakes one per-worker condition
once per batch.

:func:`run_worker` speaks the coordinator's control protocol (see
:mod:`repro.net.coordinator` for the frame sequence). Run as
``python -m repro.net.worker HOST PORT INDEX`` it is a standalone
worker process that dials a coordinator — that is how
``repro net run --processes N`` turns workers into real OS processes.
"""

from __future__ import annotations

import asyncio
import sys
from collections import Counter
from typing import Any, Iterable

import numpy as np

from repro.net.dispatcher import Dispatcher, RetryPolicy
from repro.net.episode import (
    XFER_BYTES,
    EpisodeSpec,
    GossipSend,
    NodeCore,
    decide_iteration,
    round_report,
)
from repro.net.logging_jsonl import WireLog
from repro.net.wire import (
    GOSSIP,
    KINDS,
    MEMBER_ID,
    RECORD,
    XFER,
    FrameError,
    expect_frame,
    read_frame,
    write_frame,
)

__all__ = ["BATCH_CUT_BYTES", "NetNode", "NetWorker", "run_worker", "main"]

#: A step's batch for one peer is cut once its records and member ids
#: pass this size, so a frame stays well under ``MAX_FRAME_BYTES`` (and
#: exceeds the constant by at most one message) at any rank count.
BATCH_CUT_BYTES = 1 << 20


class NetNode:
    """One hosted rank: protocol state machine, arrival counters, log."""

    __slots__ = ("core", "log", "arrivals")

    def __init__(self, spec: EpisodeSpec, rank: int, log: WireLog | None = None):
        self.core = NodeCore(spec, rank)
        self.log = log
        #: messages in per barrier step — a gossip round, None = transfers
        self.arrivals: Counter[int | None] = Counter()


class NetWorker:
    """One worker: a server, a dispatcher and the nodes they carry."""

    def __init__(
        self, index: int, spec: EpisodeSpec, ranks: Iterable[int],
        policy: RetryPolicy | None = None, log_dir: str | None = None,
    ) -> None:
        self.index = int(index)
        self.nodes = {
            int(r): NetNode(spec, r, WireLog(log_dir, r) if log_dir else None)
            for r in ranks
        }
        self.policy = policy or RetryPolicy()
        self.iteration = -1  #: none begun: whatever arrives now is early
        self.dispatcher: Dispatcher | None = None
        self.deduped = 0  #: retransmitted batches dropped whole
        self.message_bytes = 0  #: records + member ids sent, envelopes excluded
        self._owner: list[int] = []  #: rank -> hosting worker
        self._server: asyncio.AbstractServer | None = None
        self._seen: set[tuple[int, int]] = set()
        self._early: list[dict[str, Any]] = []  #: batches of a later iteration
        self._failure: Exception | None = None
        self._cond = asyncio.Condition()
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Bind the worker's loopback server; returns the assigned port."""
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    def connect(self, ports: list[int], slices: list[list[int]]) -> None:
        """Wire the dispatcher once every worker's port and slice is known."""
        self._owner = [w for w, (lo, hi) in enumerate(slices) for _ in range(lo, hi)]
        peers = {w: ("127.0.0.1", int(p)) for w, p in enumerate(ports)}
        log = next(iter(self.nodes.values())).log  # retry rows: the first rank's
        self.dispatcher = Dispatcher(self.index, peers, self.policy, log)

    async def close(self) -> None:
        """Torn down before the first await: a cancelled close leaks nothing."""
        # Inbound handlers from peers whose dispatchers are still open
        # would otherwise sit in read_frame forever.
        waits: list[Any] = list(self._conn_tasks)
        for task in waits:
            task.cancel()
        if self._server is not None:
            self._server.close()
            waits.append(self._server.wait_closed())
        for node in self.nodes.values():
            if node.log is not None:
                node.log.close()
        if self.dispatcher is not None:
            waits.append(self.dispatcher.close())
        await asyncio.gather(*waits, return_exceptions=True)

    def transport_stats(self) -> dict[str, int]:
        """The worker's physical counters (its share of the ``stats`` frame)."""
        out = self.dispatcher
        return {
            "worker": self.index, "frames": out.sent, "wire_bytes": out.bytes,
            "envelope_bytes": out.bytes - self.message_bytes,
            "retries": out.retries, "deduped": self.deduped,
        }

    # -- inbound -------------------------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while (frame := await read_frame(reader)) is not None:
                self.on_batch(frame)
                await self._wake()
        except (ValueError, KeyError, TypeError) as exc:
            # A peer that died mid-frame (FrameError) or sent garbage:
            # recorded, and re-raised from this worker's next barrier wait.
            self._failure = exc
            await self._wake()
        except asyncio.CancelledError:
            pass  # only close() cancels; < 3.12 streams choke on a cancelled handler
        finally:
            self._conn_tasks.discard(task)
            writer.close()

    async def _wake(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    def on_batch(self, frame: dict[str, Any]) -> None:
        """Deliver one batch frame to the nodes it addresses, once."""
        if frame.get("t") != "batch":
            raise FrameError(f"unexpected worker-to-worker frame {frame.get('t')!r}")
        src, seq, iteration = int(frame["src"]), int(frame["seq"]), int(frame["iter"])
        if (src, seq) in self._seen:
            # Retransmitted duplicate (stubborn-link dedup, the
            # receiver half of Dispatcher's retry semantics).
            self.deduped += 1
            return
        self._seen.add((src, seq))
        if iteration > self.iteration:
            # A peer already past the epoch boundary this worker has
            # yet to cross; begin_iteration delivers it.
            self._early.append(frame)
        elif iteration < self.iteration:
            # The barriers deliver every batch of an iteration before
            # any worker leaves it: this one would count toward the
            # wrong barrier.
            raise FrameError(
                f"stale batch from worker {src} (seq {seq}, iter {iteration}) "
                f"at worker {self.index}'s iteration {self.iteration}"
            )
        else:
            self._deliver(frame)

    def _deliver(self, frame: dict[str, Any]) -> None:
        records, ids = frame["records"], frame["ids"]
        ends = np.cumsum(records["count"], dtype=np.int64).tolist()
        for (kind, src, dst, count, step, size), end in zip(records.tolist(), ends):
            node = self.nodes.get(dst)
            if node is None:
                raise FrameError(f"worker {self.index} does not host rank {dst}")
            if kind == GOSSIP:
                node.core.receive(step, ids[end - count : end])
            else:
                node.core.receive_xfer(step)  # a transfer's step is its task id
                step = None
            node.arrivals[step] += 1
            if node.log is not None:
                node.log.record(
                    "rx", KINDS[kind], src, size,
                    RECORD.itemsize + MEMBER_ID.itemsize * count, step, self.iteration,
                )

    # -- outbound ------------------------------------------------------------

    async def post(
        self,
        gossip: Iterable[GossipSend] = (),
        xfers: Iterable[tuple[int, int, int]] = (),
    ) -> None:
        """Send one barrier step's messages — gossip sends and ``(src,
        dst, task)`` transfers — as one batch frame per destination
        worker (more only past :data:`BATCH_CUT_BYTES`), then wait
        until every frame is written."""
        cuts: dict[int, list[tuple[list[tuple], list[np.ndarray]]]] = {}
        room: dict[int, int] = {}

        def cut_for(rank: int, nbytes: int) -> tuple[list[tuple], list[np.ndarray]]:
            dst = self._owner[rank]
            if room.get(dst, 0) <= 0:
                cuts.setdefault(dst, []).append(([], []))
                room[dst] = BATCH_CUT_BYTES
            room[dst] -= nbytes
            self.message_bytes += nbytes
            return cuts[dst][-1]

        for s in gossip:
            count = s.members.size
            nbytes = RECORD.itemsize + MEMBER_ID.itemsize * count
            rows, ids = cut_for(s.dst, nbytes)
            rows.append((GOSSIP, s.src, s.dst, count, s.round, s.size))
            ids.append(s.members)
            log = self.nodes[s.src].log
            if log is not None:
                log.record("tx", "gossip", s.dst, s.size, nbytes, s.round, self.iteration)
        for src, dst, task in xfers:
            rows, _ = cut_for(dst, RECORD.itemsize)
            rows.append((XFER, src, dst, 0, task, XFER_BYTES))
            log = self.nodes[src].log
            if log is not None:
                log.record("tx", "xfer", dst, XFER_BYTES, RECORD.itemsize, None, self.iteration)
        envelope = {"t": "batch", "src": self.index, "iter": self.iteration}
        for dst, worker_cuts in cuts.items():
            for section in worker_cuts:
                self.dispatcher.send(dst, envelope, "batch", section)
            # Bounded by construction: drained after every step.
            assert self.dispatcher.queued(dst) <= len(worker_cuts)
        await self.dispatcher.drain()

    # -- barriers ------------------------------------------------------------

    def begin_iteration(self, iteration: int) -> dict[int, list[GossipSend]]:
        """Cross the epoch boundary: clear the arrival counters (barriers
        guarantee no earlier traffic is in flight), start every core, take in
        the batches of peers that crossed first; returns the round-1 sends."""
        self.iteration = int(iteration)
        for node in self.nodes.values():
            node.arrivals.clear()
        sends = {r: n.core.begin_iteration() for r, n in self.nodes.items()}
        early, self._early = self._early, []
        for frame in early:
            self._deliver(frame)
        return sends

    async def wait_arrivals(self, expect: dict[str, int], step: int | None) -> None:
        """The count-exact barrier: block until every hosted rank has
        its ``expect[rank]`` messages of ``step`` (a gossip round, None =
        the transfer step), evaluated once per arriving batch."""
        want = [(n.arrivals, int(expect.get(str(r), 0))) for r, n in self.nodes.items()]
        async with self._cond:
            await self._cond.wait_for(
                lambda: self._failure is not None
                or all(arrivals[step] >= count for arrivals, count in want)
            )
        if self._failure is not None:
            raise self._failure


async def run_worker(host: str, port: int, index: int = 0) -> None:
    """Host a slice of ranks and follow the coordinator's protocol.

    Control-frame sequence (worker perspective; all frames are typed by
    the ``"t"`` key, rank keys are strings because JSON):

    1. connect, send ``hello`` (this worker's index); receive ``assign``
       (spec, rank slice, log dir, retry policy) and build one
       :class:`NetWorker` hosting a :class:`NetNode` per rank;
    2. send ``ports`` (the worker's one data port); receive ``peers``
       (every worker's port and rank slice) and connect the dispatcher;
    3. per iteration: per round — post the gossip batches, send ``sent``
       (per-rank and per-destination counts), receive ``commit`` (wait
       for the expected arrivals, advance) or ``gossip_done`` (break);
       then decide transfers, post them, send ``decide``, receive
       ``xfer_commit``, wait for arrivals, send ``xfer_done``, receive
       ``apply`` and apply the global move list;
    4. send ``stats`` (per-rank registries, per-worker transport
       counters), receive ``shutdown``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    worker: NetWorker | None = None
    try:
        await write_frame(writer, {"t": "hello", "worker": index})
        assign = await expect_frame(reader, "assign")
        spec = EpisodeSpec.from_dict(assign["spec"])
        policy = RetryPolicy(**assign["policy"])
        worker = NetWorker(index, spec, assign["ranks"], policy, assign.get("log_dir"))
        nodes = worker.nodes
        await write_frame(writer, {"t": "ports", "port": await worker.start()})
        peers = await expect_frame(reader, "peers")
        worker.connect(peers["ports"], peers["slices"])

        for iteration in range(spec.n_iters):
            sends = worker.begin_iteration(iteration)
            round_index = 1
            while True:
                step = [s for batch in sends.values() for s in batch]
                await worker.post(gossip=step)
                sent = {"t": "sent", "round": round_index, **round_report(sends)}
                await write_frame(writer, sent)
                reply = await expect_frame(reader, "commit", "gossip_done")
                if reply["t"] == "gossip_done":
                    break
                await worker.wait_arrivals(reply["expect"], round_index)
                sends = {r: n.core.advance(round_index) for r, n in nodes.items()}
                round_index += 1

            report, xfers = decide_iteration(n.core for n in nodes.values())
            await worker.post(xfers=xfers)
            await write_frame(writer, {"t": "decide", **report})
            commit = await expect_frame(reader, "xfer_commit")
            await worker.wait_arrivals(commit["expect"], None)
            await write_frame(writer, {"t": "xfer_done"})
            apply = await expect_frame(reader, "apply")
            applied = np.asarray(apply["moves"], dtype=np.int64).reshape(-1, 3)
            for node in nodes.values():
                node.core.apply_moves(applied)

        stats_frame = {
            "t": "stats",
            "registries": {str(r): n.core.registry.to_dict() for r, n in nodes.items()},
            "transport": worker.transport_stats(),
        }
        await write_frame(writer, stats_frame)
        await expect_frame(reader, "shutdown")
    finally:
        writer.close()
        if worker is not None:
            await worker.close()


def main(argv: list[str] | None = None) -> int:
    """Standalone worker process entry: dial a coordinator and serve.

    Invoked as ``python -m repro.net.worker HOST PORT INDEX`` (see that
    module for why the entry shim lives apart from this import target).
    """
    host, port, index = sys.argv[1:] if argv is None else argv
    asyncio.run(run_worker(host, int(port), int(index)))
    return 0
