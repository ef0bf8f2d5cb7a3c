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
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "TrialExecutor",
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


def resolve_backend(n_workers: int, n_payloads: int | None = None) -> str:
    """The backend a map over ``n_payloads`` with ``n_workers`` uses.

    ``"serial"`` when the worker count, the payload count or
    :func:`effective_cpu_count` leaves nothing to overlap — a pool of
    time-sliced workers on one core is strictly overhead — or when fork
    is unavailable (a pool that re-imports the world per worker is
    too); ``"process"`` otherwise.
    """
    effective = min(n_workers, n_payloads) if n_payloads is not None else n_workers
    if effective <= 1 or effective_cpu_count() < 2 or not _fork_available():
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
