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
    GIL entirely: read-only shared state is shipped to each worker
    **once** via the pool initializer (inherited copy-on-write under
    the ``fork`` start method, pickled once per worker under
    ``spawn``), only the small per-trial payloads and outcomes cross
    the IPC boundary, and results return in submission order.

:func:`resolve_backend` picks between them from what it can observe:
``serial`` when there is nothing to run concurrently — one worker, one
payload, or one usable core (a pool on a single core can only add
fork/IPC and time-slicing overhead) — or when a process pool cannot be
built cheaply (no POSIX ``fork``); ``process`` otherwise. The trial
loop is GIL-bound Python/NumPy, so a thread pool never beat the serial
loop (0.93x measured at the § V scale) and there is none. Both backends
call the same function on the same payloads, so the choice affects
wall time only — never results.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "EXECUTOR_AUTO",
    "EXECUTOR_PROCESS",
    "EXECUTOR_SERIAL",
    "EXECUTORS",
    "TrialExecutor",
    "effective_cpu_count",
    "resolve_backend",
    "spawn_streams",
]

EXECUTOR_SERIAL = "serial"
EXECUTOR_PROCESS = "process"
EXECUTOR_AUTO = "auto"
#: Valid ``executor=`` values (``auto`` resolves before execution).
EXECUTORS = (EXECUTOR_SERIAL, EXECUTOR_PROCESS, EXECUTOR_AUTO)


def spawn_streams(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """``n`` independent child generators spawned from ``rng``.

    Spawning advances the parent's spawn key but never consumes from its
    random stream. Falls back to spawning the underlying seed sequence
    on NumPy versions without ``Generator.spawn``.
    """
    if n <= 0:
        return []
    try:
        return list(rng.spawn(n))
    except AttributeError:  # pragma: no cover - numpy < 1.25
        children = rng.bit_generator.seed_seq.spawn(n)  # type: ignore[attr-defined]
        return [np.random.default_rng(child) for child in children]


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


def resolve_backend(
    executor: str | None, n_workers: int, n_payloads: int | None = None
) -> str:
    """Resolve an ``executor=`` knob to a concrete backend name.

    ``None`` and ``"auto"`` pick ``serial`` when ``n_workers``, the
    payload count, or :func:`effective_cpu_count` leaves nothing to
    overlap or fork is unavailable, and ``process`` otherwise. Explicit
    backend names pass through unchanged (still degrading to ``serial``
    when only one payload or worker is in play, where a pool could only
    add overhead — results are identical either way).
    """
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS} or None, got {executor!r}"
        )
    effective = min(n_workers, n_payloads) if n_payloads is not None else n_workers
    if effective <= 1:
        return EXECUTOR_SERIAL
    if executor is None or executor == EXECUTOR_AUTO:
        # A pool of time-sliced workers on one core, or one that must
        # re-import the world per worker (spawn), is strictly overhead;
        # the serial loop is the fast path.
        if effective_cpu_count() < 2 or not _fork_available():
            return EXECUTOR_SERIAL
        return EXECUTOR_PROCESS
    return executor


# -- process-backend plumbing ----------------------------------------------
#
# The shared state travels through the pool initializer, so it crosses
# into each worker exactly once (zero-copy under fork); per-trial
# submissions then carry only (fn, payload). Both the mapped function
# and the payloads must be picklable for the spawn start method.

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

    Parameters
    ----------
    executor:
        Backend request (``None``/``"auto"``/``"serial"``/``"process"``);
        resolved via :func:`resolve_backend`.
    n_workers:
        Worker cap; the pool never exceeds the payload count.

    The function must be deterministic given ``(shared, payload)`` and
    must not mutate ``shared`` — that is what makes every backend
    return bit-identical results. For the process backend ``fn`` must
    be a module-level (picklable) function and payloads/outcomes must
    pickle; ``shared`` crosses the process boundary once per worker.
    """

    def __init__(self, executor: str | None = None, n_workers: int = 1) -> None:
        if executor is not None and executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS} or None, got {executor!r}"
            )
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.requested = executor
        self.n_workers = int(n_workers)

    def backend_for(self, n_payloads: int) -> str:
        """The concrete backend a ``map`` over ``n_payloads`` would use."""
        return resolve_backend(self.requested, self.n_workers, n_payloads)

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
        if backend == EXECUTOR_SERIAL:
            return [fn(shared, payload) for payload in payloads]
        return self._map_process(fn, payloads, shared, workers)

    def _map_process(
        self,
        fn: Callable[[Any, Any], Any],
        payloads: list[Any],
        shared: Any,
        workers: int,
    ) -> list[Any]:
        context = (
            multiprocessing.get_context("fork")
            if _fork_available()
            else multiprocessing.get_context()
        )
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(shared,),
            )
        except (OSError, PermissionError) as exc:  # pragma: no cover - sandboxes
            # Environments without working semaphores/pipes cannot host
            # a process pool; degrade to the serial loop. Results are
            # identical by construction, only the wall time differs.
            warnings.warn(
                f"process executor unavailable ({exc}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return [fn(shared, payload) for payload in payloads]
        with pool:
            futures = [pool.submit(_invoke_shared, fn, p) for p in payloads]
            return [f.result() for f in futures]
