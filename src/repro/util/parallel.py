"""Deterministic parallelism helpers: RNG streams and the trial executor.

TemperedLB's ``n_trials`` are embarrassingly parallel (Alg. 3: each
trial restarts from the same assignment), but sharing one RNG stream
across workers would make results depend on scheduling. The fix is the
standard spawned-streams pattern: derive one child generator per trial
from the parent generator *before* any work starts. The children are a
pure function of the parent's state, so a fixed seed produces the same
per-trial streams — and therefore bit-identical results — whether the
trials then run on one worker or many.

:class:`TrialExecutor` is the execution layer on top of that pattern.
It maps a pure function over per-trial payloads under one of two
backends:

``serial``
    A plain loop in the calling thread. Zero overhead; the baseline.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`. Sidesteps the
    GIL entirely: read-only shared state reaches each worker **once**
    via the pool initializer (inherited copy-on-write under the
    ``fork`` start method), only the small per-trial payloads and
    outcomes cross the IPC boundary, and results return in submission
    order.

:func:`resolve_backend` picks between them from what it can observe:
``serial`` when there is nothing to run concurrently — one worker, one
payload, or one usable core (a pool on a single core can only add
fork/IPC and time-slicing overhead) — or when a process pool cannot be
built cheaply (no POSIX ``fork``); ``process`` otherwise. The trial
loop is GIL-bound Python/NumPy, so a thread pool never beat the serial
loop (0.93x measured at the § V scale) and there is none. Both backends
call the same function on the same payloads, so the choice affects
wall time only — never results.

:class:`RunAhead` applies the same rule (:func:`can_fork_worker`) to a
pipeline of two stages: a generator of fixed-length rows runs in one
forked worker, ahead of the caller that consumes the rows, so the two
overlap on two cores. The rows cross through a fixed ring in shared
memory, never through pickling; the generator's results are the same
wherever it runs.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "RING_SLOTS",
    "RemoteTraceback",
    "RunAhead",
    "TrialExecutor",
    "can_fork_worker",
    "effective_cpu_count",
    "resolve_backend",
    "spawn_streams",
]


def spawn_streams(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """``n`` independent child generators spawned from ``rng``.

    Spawning advances the parent's spawn key but never consumes from its
    random stream.
    """
    if n <= 0:
        return []
    return list(rng.spawn(n))


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container or cgroup can
    pin the process to fewer cores, and parallel speedup is bounded by
    *that* number. Perf floors and utilization reports key off this.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fork_available() -> bool:
    """Whether the cheap copy-on-write process start method exists."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - broken multiprocessing build
        return False


def can_fork_worker() -> bool:
    """Whether a forked worker can run *beside* this process.

    It needs a second usable core (:func:`effective_cpu_count`) — a
    worker time-sliced with its parent on one core is strictly
    overhead — and the ``fork`` start method (a worker that re-imports
    the world is too).
    """
    return effective_cpu_count() >= 2 and _fork_available()


def resolve_backend(n_workers: int, n_payloads: int | None = None) -> str:
    """The backend a map over ``n_payloads`` with ``n_workers`` uses.

    ``"serial"`` when the worker count or the payload count leaves
    nothing to overlap, or when :func:`can_fork_worker` says no;
    ``"process"`` otherwise.
    """
    effective = min(n_workers, n_payloads) if n_payloads is not None else n_workers
    if effective <= 1 or not can_fork_worker():
        return "serial"
    return "process"


# -- process-backend plumbing ----------------------------------------------
#
# The shared state travels through the pool initializer, so it crosses
# into each worker exactly once (zero-copy under fork); per-trial
# submissions then carry only (fn, payload), so the mapped function
# (pickled by name), the payloads and the outcomes must pickle.

_WORKER_SHARED: Any = None


def _init_worker(shared: Any) -> None:
    """Pool initializer: stash the read-only shared state per worker."""
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _invoke_shared(fn: Callable[[Any, Any], Any], payload: Any) -> Any:
    """Per-task trampoline run inside a worker process."""
    return fn(_WORKER_SHARED, payload)


class TrialExecutor:
    """Map a pure ``fn(shared, payload)`` over payloads, preserving order.

    ``n_workers`` caps the pool, which never exceeds the payload count;
    :func:`resolve_backend` picks the backend.

    The function must be deterministic given ``(shared, payload)`` and
    must not mutate ``shared`` — that is what makes every backend
    return bit-identical results. For the process backend ``fn`` must
    be a module-level (picklable) function and payloads/outcomes must
    pickle; ``shared`` crosses the process boundary once per worker.
    """

    def __init__(self, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)

    def backend_for(self, n_payloads: int) -> str:
        """The concrete backend a ``map`` over ``n_payloads`` would use."""
        return resolve_backend(self.n_workers, n_payloads)

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        payloads: Sequence[Any],
        shared: Any = None,
    ) -> list[Any]:
        """``[fn(shared, p) for p in payloads]``, possibly in parallel.

        Results always come back in payload order regardless of
        completion order, so callers can merge deterministically.
        """
        payloads = list(payloads)
        backend = self.backend_for(len(payloads))
        workers = min(self.n_workers, len(payloads))
        if backend == "serial":
            return [fn(shared, payload) for payload in payloads]
        return self._map_process(fn, payloads, shared, workers)

    def _map_process(
        self,
        fn: Callable[[Any, Any], Any],
        payloads: list[Any],
        shared: Any,
        workers: int,
    ) -> list[Any]:
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(shared,),
            )
        except (OSError, PermissionError) as exc:  # pragma: no cover - sandboxes
            # Environments without working semaphores/pipes cannot host
            # a process pool; degrade to the serial loop. Results are
            # identical by construction, only the wall time differs.
            warnings.warn(
                f"process pool unavailable ({exc}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return [fn(shared, payload) for payload in payloads]
        with pool:
            futures = [pool.submit(_invoke_shared, fn, p) for p in payloads]
            return [f.result() for f in futures]


# -- run-ahead pipeline ------------------------------------------------------

#: Rows a :class:`RunAhead` ring holds: how far its worker may get ahead
#: of the caller. Sized to cover the steps between two EMPIRE LB calls
#: at the benchmark scale (docs/performance.md, *The PIC physics worker*).
RING_SLOTS = 32

# One-byte message tags on the worker's pipe to the caller; the caller
# frees a slot with a bare ``_FREE`` on the other pipe.
_ROW, _DONE, _FAILED, _FREE = b"r", b"d", b"e", b"f"


class RemoteTraceback(Exception):
    """The cause chained to an exception re-raised from a worker."""

    def __str__(self) -> str:
        return f"raised in the worker:\n{self.args[0]}"


def _failure_message(exc: Exception) -> bytes:
    """``exc`` and its traceback, pickled — or a stand-in that pickles."""
    tb = traceback.format_exc()
    try:
        blob = pickle.dumps((exc, tb))
        pickle.loads(blob)  # an exception may pickle yet fail to rebuild
    except Exception:
        blob = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
    return _FAILED + blob


class RunAhead:
    """Iterate ``rows``, a generator of ``width``-long ``int64`` rows,
    produced ahead of the caller in a forked worker or inline.

    Forked, the worker iterates its copy-on-write copy of ``rows`` into a
    ring of :data:`RING_SLOTS` rows in an anonymous shared ``mmap`` made
    before the fork. One-byte tokens on two pipes say that a slot is
    filled (worker to caller) or free again (caller to worker), so the
    worker blocks only when it is a full ring ahead, and memory does not
    grow with the number of rows. The caller copies each row out of its
    slot and frees the slot. After the last row the worker sends back
    ``finish()`` (pickled), which lands in :attr:`result`; it is how the
    producer's state returns to the caller. A worker exception re-raises
    in the caller at the row where it happened, with the worker's
    traceback chained as its cause, and leaving the ``with`` block for
    any reason terminates and reaps the worker.

    Inline (``forked=False``, or when the fork fails) the caller
    iterates ``rows`` itself, ``finish`` is never called and
    :attr:`result` stays ``None``: the state is already in place.

    :attr:`busy_s` is the producer's own time inside ``rows``, timed
    where it runs; :attr:`wait_s` is the caller's time blocked on the
    worker (0 inline).
    """

    def __init__(
        self,
        rows: Iterator[np.ndarray],
        width: int,
        finish: Callable[[], Any],
        forked: bool,
    ) -> None:
        self._rows = rows
        self._width = int(width)
        self._finish = finish
        self.forked = bool(forked)
        self.result: Any = None
        self.busy_s = 0.0
        self.wait_s = 0.0
        self._process: Any = None

    def __enter__(self) -> "RunAhead":
        if self.forked:
            try:
                self._start()
            except OSError as exc:  # pragma: no cover - fork refused (memory, pids)
                # The same generator runs inline: only wall time differs.
                warnings.warn(
                    f"run-ahead worker unavailable ({exc}); running inline",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.forked = False
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Terminate the worker if it still runs, and reap it."""
        if self._process is None:
            return
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._ready.close()
        self._free.close()
        self._process = None
        self._ring = None  # unmapped once the last row view is gone

    def __iter__(self) -> Iterator[np.ndarray]:
        if not self.forked:
            yield from self._timed()
            return
        ring = np.frombuffer(self._ring, dtype=np.int64).reshape(RING_SLOTS, self._width)
        step = 0
        while True:
            message = self._receive()
            tag, body = message[:1], memoryview(message)[1:]
            if tag == _DONE:
                self.busy_s, self.result = pickle.loads(body)
                return
            if tag == _FAILED:
                exc, tb = pickle.loads(body)
                raise exc from RemoteTraceback(tb)
            row = ring[step % RING_SLOTS].copy()
            step += 1
            try:
                self._free.send_bytes(_FREE)
            except BrokenPipeError:
                pass  # the worker has produced its last row and exited
            yield row

    # -- internals ------------------------------------------------------------

    def _timed(self) -> Iterator[np.ndarray]:
        rows = iter(self._rows)
        while True:
            start = time.perf_counter()
            try:
                row = next(rows)
            except StopIteration:
                return
            finally:
                self.busy_s += time.perf_counter() - start
            yield row

    def _start(self) -> None:
        context = multiprocessing.get_context("fork")
        self._ring = mmap.mmap(-1, RING_SLOTS * self._width * 8)
        ready_r, ready_w = context.Pipe(duplex=False)
        free_r, free_w = context.Pipe(duplex=False)
        process = context.Process(target=self._produce, args=(ready_w, free_r), daemon=True)
        try:
            process.start()
        except OSError:
            ready_r.close()
            free_w.close()
            raise
        finally:
            # The caller keeps its own ends only, so a worker that dies
            # reads as end-of-file rather than a hang.
            ready_w.close()
            free_r.close()
        self._process, self._ready, self._free = process, ready_r, free_w

    def _produce(self, ready: Any, free: Any) -> None:
        """The worker: fill slots, one token per row, then the hand-back."""
        ring = np.frombuffer(self._ring, dtype=np.int64).reshape(RING_SLOTS, self._width)
        try:
            for step, row in enumerate(self._timed()):
                if step >= RING_SLOTS:
                    free.recv_bytes()  # the caller has copied row step - RING_SLOTS
                ring[step % RING_SLOTS] = row
                ready.send_bytes(_ROW)
            message = _DONE + pickle.dumps((self.busy_s, self._finish()))
        except Exception as exc:
            message = _failure_message(exc)
        ready.send_bytes(message)

    def _receive(self) -> bytes:
        start = time.perf_counter()
        try:
            return self._ready.recv_bytes()
        except EOFError:
            self._process.join()
            raise RuntimeError(
                f"run-ahead worker exited (code {self._process.exitcode}) without a result"
            ) from None
        finally:
            self.wait_s += time.perf_counter() - start
