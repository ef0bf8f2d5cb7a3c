"""Live workers: one TCP endpoint hosting a slice of ranks.

The transport's unit is the **worker**, as a DARMA/vt process owns one
MPI endpoint for all the rank-addressed traffic it hosts. A
:class:`NetWorker` binds one loopback server, owns one
:class:`~repro.net.dispatcher.Dispatcher` whose peers are the workers
(itself included: same-worker traffic takes the same encode -> socket
-> decode path, so there is one delivery path), and hosts a contiguous
rank slice as **one** :class:`~repro.net.episode.NodeCore` (one
assignment, one knowledge matrix, one registry) and, when logging, a
:class:`~repro.net.logging_jsonl.WireLog` per rank. Nothing in this
module decides *anything* about the episode; it only moves the core's
messages over sockets and implements the waits the round barrier needs.

Each barrier step (a gossip round, the transfer step) leaves a worker
as **one batch frame per destination worker** (:mod:`repro.net.wire`),
its record and member-id sections built straight from the step's
:class:`~repro.net.episode.GossipSends` arrays or ``(task, src, dst)``
move rows, cut into several frames only past :data:`BATCH_CUT_BYTES`.
The receiver drops a repeated ``(src, seq)`` batch whole, refuses one
from an earlier iteration, counts its arrivals per hosted rank with a
``bincount``, hands the core the whole batch in one call and wakes one
per-worker condition once per batch; only a wire log costs a step per
record. ``core_s`` sums the seconds spent inside core calls.

:func:`run_worker` speaks the coordinator's control protocol (see
:mod:`repro.net.coordinator`) in the same frame layout, and counts the
frames and bytes its control link carries (``control_frames`` /
``control_bytes`` in its ``stats``). Run as
``python -m repro.net.worker HOST PORT INDEX`` it is a standalone
worker process that dials a coordinator — that is how
``repro net run --processes N`` turns workers into real OS processes.
"""

from __future__ import annotations

import asyncio
import sys
from time import perf_counter
from typing import Any

import numpy as np

from repro.net.dispatcher import Dispatcher, RetryPolicy
from repro.net.episode import (
    XFER_BYTES,
    EpisodeSpec,
    GossipSends,
    NodeCore,
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

__all__ = ["BATCH_CUT_BYTES", "NetWorker", "run_worker", "main"]

#: A step's batch for one peer is cut once its records and member ids
#: pass this size, so a frame stays well under ``MAX_FRAME_BYTES`` (and
#: exceeds the constant by at most one message) at any rank count.
BATCH_CUT_BYTES = 1 << 20


class NetWorker:
    """One worker: a server, a dispatcher and the ranks they carry."""

    def __init__(
        self, index: int, spec: EpisodeSpec, ranks: range,
        policy: RetryPolicy | None = None, log_dir: str | None = None,
    ) -> None:
        self.index = int(index)
        self.ranks = ranks  #: the hosted slice; logs are indexed by rank - ranks.start
        self.core = NodeCore(spec, ranks)
        self.core_s = 0.0  #: seconds inside core calls
        self.logs = [WireLog(log_dir, r) for r in ranks] if log_dir else None
        self.policy = policy or RetryPolicy()
        self.iteration = -1  #: none begun: whatever arrives now is early
        #: step (a gossip round, None = transfers) -> messages in per hosted rank
        self.arrivals: dict[int | None, np.ndarray] = {}
        self.dispatcher: Dispatcher | None = None
        self.deduped = 0  #: retransmitted batches dropped whole
        self.message_bytes = 0  #: records + member ids sent, envelopes excluded
        self._owner = np.empty(0, np.int64)  #: rank -> hosting worker
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
        self._owner = np.repeat(np.arange(len(slices)), [hi - lo for lo, hi in slices])
        peers = {w: ("127.0.0.1", int(p)) for w, p in enumerate(ports)}
        log = self.logs and self.logs[0]  # retry rows: the first rank's
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
        for log in self.logs or ():
            log.close()
        if self.dispatcher is not None:
            waits.append(self.dispatcher.close())
        await asyncio.gather(*waits, return_exceptions=True)

    def transport_stats(self) -> dict[str, int]:
        """The worker's physical counters (its share of the ``stats`` frame)."""
        out = self.dispatcher
        return {
            "worker": self.index, "frames": out.sent, "wire_bytes": out.bytes,
            "envelope_bytes": out.bytes - self.message_bytes,
            "retries": out.retries, "deduped": self.deduped, "core_s": self.core_s,
        }

    def call(self, method, *args, **kwargs):
        """Call a core method, adding its wall time to ``core_s``."""
        start = perf_counter()
        result = method(*args, **kwargs)
        self.core_s += perf_counter() - start
        return result

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
        """Deliver one batch frame to the ranks it addresses, once."""
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
        records, ids, hosted = frame["records"], frame["ids"], len(self.ranks)
        local = records["dst"] - self.ranks.start
        if ((local < 0) | (local >= hosted)).any():
            raise FrameError(f"worker {self.index} hosts {self.ranks}, not all of {records['dst']}")
        gossip = records["kind"] == GOSSIP
        steps = records["step"][gossip]
        for step in np.unique(steps).tolist():
            arrived = np.bincount(local[gossip][steps == step], minlength=hosted)
            self.arrivals[step] = self.arrivals.get(step, 0) + arrived
        xfers = np.bincount(local[~gossip], minlength=hosted)
        self.arrivals[None] = self.arrivals.get(None, 0) + xfers
        if steps.size:
            counts, dst = records["count"][gossip], records["dst"][gossip]
            self.call(self.core.receive, steps, ids, counts, dst)
        if xfers.any():
            self.call(self.core.receive_xfer, messages=int(xfers.sum()))
        for kind, src, dst, count, step, size in records.tolist() if self.logs else ():
            self.logs[dst - self.ranks.start].record(
                "rx", KINDS[kind], src, size, RECORD.itemsize + MEMBER_ID.itemsize * count,
                step if kind == GOSSIP else None, self.iteration,
            )

    # -- outbound ------------------------------------------------------------

    async def post(self, gossip: GossipSends | None = None, xfers: np.ndarray | None = None):
        """Send one barrier step — its gossip sends, or its ``(n, 3)``
        ``(task, src, dst)`` transfer moves — as one batch frame per
        destination worker, cut only once its records and ids pass
        :data:`BATCH_CUT_BYTES` (so all but a cut's last message fit under
        it), and wait until all are written."""
        if gossip is not None:
            columns = (GOSSIP, gossip.src, gossip.dst, gossip.counts, gossip.round, gossip.sizes)
            ids = gossip.ids
        else:
            columns = (XFER, xfers[:, 1], xfers[:, 2], 0, xfers[:, 0], XFER_BYTES)
            ids = np.empty(0, MEMBER_ID)
        records = np.empty(len(columns[1]), RECORD)
        for name, column in zip(RECORD.names, columns):
            records[name] = column
        nbytes = RECORD.itemsize + MEMBER_ID.itemsize * records["count"].astype(np.int64)
        self.message_bytes += int(nbytes.sum())
        for kind, src, dst, count, step, size in records.tolist() if self.logs else ():
            self.logs[src - self.ranks.start].record(
                "tx", KINDS[kind], dst, size, RECORD.itemsize + MEMBER_ID.itemsize * count,
                step if kind == GOSSIP else None, self.iteration,
            )
        owner = self._owner[records["dst"]]
        id_owner = np.repeat(owner, records["count"])
        envelope = {"t": "batch", "src": self.index, "iter": self.iteration}
        for dst in np.unique(owner).tolist():
            mine, mine_ids, ends = records[owner == dst], ids[id_owner == dst], nbytes[owner == dst]
            ends, id_ends = np.cumsum(ends), np.concatenate([[0], np.cumsum(mine["count"])])
            cuts = [0]
            while cuts[-1] < len(mine):  # a cut closes at the message that fills it
                base = ends[cuts[-1] - 1] if cuts[-1] else 0
                cuts.append(min(int(np.searchsorted(ends, base + BATCH_CUT_BYTES)) + 1, len(mine)))
            for lo, hi in zip(cuts, cuts[1:]):
                cut = {"records": mine[lo:hi], "ids": mine_ids[id_ends[lo] : id_ends[hi]]}
                self.dispatcher.send(dst, {**envelope, **cut}, "batch")
            # Bounded by construction: drained after every step.
            assert self.dispatcher.queued(dst) <= len(cuts) - 1
        await self.dispatcher.drain()

    # -- barriers ------------------------------------------------------------

    def begin_iteration(self, iteration: int) -> GossipSends:
        """Cross the epoch boundary: clear the arrival counters (barriers
        guarantee no earlier traffic is in flight), start the core, take in
        the batches of peers that crossed first; returns the round-1 sends."""
        self.iteration = int(iteration)
        self.arrivals = {}
        sends = self.call(self.core.begin_iteration)
        early, self._early = self._early, []
        for frame in early:
            self._deliver(frame)
        return sends

    async def wait_arrivals(self, expect: np.ndarray, step: int | None) -> None:
        """The count-exact barrier: block until every hosted rank has its
        ``expect`` count (this slice's, in rank order) of ``step`` messages
        (a gossip round, None = transfers), checked once per batch."""
        if expect.shape != (len(self.ranks),):
            raise FrameError(f"expected counts of shape {expect.shape} for {len(self.ranks)} ranks")
        async with self._cond:
            await self._cond.wait_for(
                lambda: self._failure is not None
                or bool(np.all(self.arrivals.get(step, 0) >= expect))
            )
        if self._failure is not None:
            raise self._failure


class _ControlLink:
    """A worker's coordinator connection, counting frames and bytes both ways."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer
        self.frames = self.bytes = 0

    async def readexactly(self, n: int) -> bytes:  # all read_frame asks of a reader
        data = await self.reader.readexactly(n)
        self.bytes += len(data)
        return data

    async def send(self, frame: dict[str, Any]) -> None:
        self.bytes += await write_frame(self.writer, frame)
        self.frames += 1

    async def expect(self, *types: str) -> dict[str, Any]:
        frame = await expect_frame(self, *types)
        self.frames += 1
        return frame


async def run_worker(host: str, port: int, index: int = 0) -> None:
    """Host a slice of ranks and follow the coordinator's protocol.

    Control-frame sequence (worker perspective; every per-rank field is
    a section indexed by rank):

    1. send ``hello``; receive ``assign`` (spec scalars, ``task_loads``
       and ``assignment`` sections, ``[lo, hi)`` rank slice, log dir,
       retry policy) and build a :class:`NetWorker`;
    2. send ``ports``; receive ``peers`` (every worker's port and slice);
    3. per iteration: per round, post the gossip batches, send ``sent``
       (:func:`~repro.net.episode.round_report`), receive ``commit``
       (this slice's ``expect`` counts: wait for them, advance) or
       ``gossip_done``; then post the transfers, send ``decide``
       (:meth:`~repro.net.episode.NodeCore.decide`), receive
       ``xfer_commit``, wait, send ``xfer_done``, receive ``apply`` and
       apply its ``(n, 3)`` move rows;
    4. send ``stats`` (the core's one registry — integer counters, so any
       slicing gives the simulator's totals — and the transport, core-time
       and control-link counters), receive ``shutdown``.
    """
    link = _ControlLink(*await asyncio.open_connection(host, port))
    worker: NetWorker | None = None
    try:
        await link.send({"t": "hello", "worker": index})
        assign = await link.expect("assign")
        arrays = {key: assign[key] for key in ("task_loads", "assignment")}
        spec = EpisodeSpec.from_dict({**assign["spec"], **arrays})
        policy = RetryPolicy(**assign["policy"])
        worker = NetWorker(index, spec, range(*assign["ranks"]), policy, assign.get("log_dir"))
        await link.send({"t": "ports", "port": await worker.start()})
        peers = await link.expect("peers")
        worker.connect(peers["ports"], peers["slices"])

        for iteration in range(spec.n_iters):
            sends = worker.begin_iteration(iteration)
            round_index = 1
            while True:
                await worker.post(sends)
                report = round_report(sends, worker.ranks, spec.n_ranks)
                await link.send({"t": "sent", "round": round_index, **report})
                reply = await link.expect("commit", "gossip_done")
                if reply["t"] == "gossip_done":
                    break
                await worker.wait_arrivals(reply["expect"], round_index)
                sends = worker.call(worker.core.advance, round_index)
                round_index += 1

            report = worker.call(worker.core.decide)
            await worker.post(xfers=report["moves"])
            await link.send({"t": "decide", **report})
            commit = await link.expect("xfer_commit")
            await worker.wait_arrivals(commit["expect"], None)
            await link.send({"t": "xfer_done"})
            worker.call(worker.core.apply_moves, (await link.expect("apply"))["moves"])

        transport = {**worker.transport_stats(), "control_frames": link.frames,
                     "control_bytes": link.bytes}
        registry = worker.core.registry.to_dict()
        await link.send({"t": "stats", "registry": registry, "transport": transport})
        await link.expect("shutdown")
    finally:
        link.writer.close()
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
