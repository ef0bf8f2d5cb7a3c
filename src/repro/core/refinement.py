"""Algorithm 3 — iterative refinement of the task-rank mapping.

TemperedLB's outer loop: ``n_trials`` independent trials, each running
``n_iters`` inform+transfer iterations from the original assignment. The
proposal with the lowest imbalance across *all* iterations of *all*
trials wins, and only that proposal's transfers are actually executed
(deferred migration, Alg. 3 l.13). Trials restart from the previous
timestep's state so a bad random walk cannot trap the result in a local
minimum (§ V-A).

That loop is written once, in :func:`run_trials` (per-trial reset, rank
loads, iteration rows, gossip totals, best-of selection), around an
:data:`IterationDriver` that one family supplies: the phase-level
inform and transfer stages here, the event-level inform stage and
per-rank transfers in :meth:`repro.runtime.lbmanager.LBManager.run_episode`.

Trials are independent, so they can run concurrently. With
``n_workers`` set, each trial draws from its own spawned RNG stream
(:func:`repro.util.parallel.spawn_streams`) and records into its own
sub-registry; streams are derived from the parent generator before any
work starts, results merge in trial order, and ties on the best
imbalance resolve to the lowest trial index — so the refined assignment
and all recorded statistics are bit-identical for any worker count >= 1
under **either** backend (``serial`` / ``process``;
:func:`repro.util.parallel.resolve_backend` picks one from the worker
count, the trial count, the usable cores and ``fork``). The trial loop is
GIL-bound Python/NumPy, so only a process pool turns extra cores into
wall-clock speedup; the shared read-only inputs (task loads, the original
assignment, the stage configs) ship to each worker once via the pool
initializer, and only the per-trial RNG payloads and
:class:`_TrialOutcome` results cross the IPC boundary.

``n_workers=None`` (the default) keeps the historical serial semantics:
one shared RNG stream consumed trial after trial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.base import IterationRecord
from repro.core.distribution import Distribution
from repro.core.gossip import GossipConfig, GossipResult, run_inform_stage
from repro.core.metrics import imbalance
from repro.core.transfer import TransferConfig, TransferStats, transfer_stage
from repro.obs import StatsRegistry
from repro.util.parallel import TrialExecutor, spawn_streams
from repro.util.validation import check_positive, coerce_rng

__all__ = ["IterationDriver", "RefinementResult", "iterative_refinement", "run_trials"]

#: One family's Algorithm 3 iteration (l.4-11): ``(trial, iteration,
#: working, loads)`` runs inform and transfer on ``working`` in place,
#: from its pre-iteration rank ``loads``, and returns the proposed
#: imbalance, the transfer stats and the inform result.
IterationDriver = Callable[
    [int, int, np.ndarray, np.ndarray], tuple[float, TransferStats, GossipResult]
]


@dataclass
class RefinementResult:
    """Best proposal found by Algorithm 3, with full iteration history."""

    best_assignment: np.ndarray
    best_imbalance: float
    initial_imbalance: float
    records: list[IterationRecord] = field(default_factory=list)
    total_gossip_messages: int = 0
    total_gossip_bytes: int = 0


@dataclass
class _TrialOutcome:
    """One trial's iteration rows and trial-local best proposal.

    Everything here is plain data (dataclass rows, floats, arrays), so
    an outcome pickles losslessly — the process backend ships one back
    per trial.
    """

    records: list[IterationRecord] = field(default_factory=list)
    best_imbalance: float = float("inf")
    best_assignment: np.ndarray | None = None
    gossip_messages: int = 0
    gossip_bytes: int = 0


@dataclass(frozen=True)
class _TrialShared:
    """Read-only inputs every trial needs, shipped to workers once.

    Under the process backend this object crosses into each worker a
    single time via the pool initializer (inherited copy-on-write with
    the ``fork`` start method) — per-trial submissions carry only the
    trial number and its RNG stream.
    """

    dist: Distribution
    n_iters: int
    gossip: GossipConfig
    transfer: TransferConfig
    instrumented: bool


def _run_trial(
    trial: int, original: np.ndarray, task_loads: np.ndarray, n_ranks: int,
    n_iters: int, iterate: IterationDriver,
) -> _TrialOutcome:
    """Run one trial (Alg. 3 l.3-12) against a private working copy.

    Safe to run concurrently given a driver that owns its RNG and
    registry: ``original`` and ``task_loads`` are only read.
    """
    working = np.array(original, copy=True)  # Alg. 3 l.3: reset per trial
    out = _TrialOutcome()
    for iteration in range(1, int(n_iters) + 1):
        loads = np.bincount(working, weights=task_loads, minlength=n_ranks)
        proposed, stats, inform = iterate(trial, iteration, working, loads)
        out.records.append(IterationRecord(
            trial=trial, iteration=iteration, transfers=stats.transfers,
            rejections=stats.rejections, imbalance=proposed,
            gossip_messages=inform.n_messages, gossip_bytes=inform.bytes_sent,
        ))
        out.gossip_messages += inform.n_messages
        out.gossip_bytes += inform.bytes_sent
        if proposed < out.best_imbalance:
            out.best_imbalance = proposed
            out.best_assignment = np.array(working, copy=True)
    return out


def run_trials(
    iterate: IterationDriver, original: np.ndarray, task_loads: np.ndarray,
    n_ranks: int, n_trials: int, n_iters: int, initial_imbalance: float,
) -> RefinementResult:
    """Algorithm 3's outer loop, one trial after another, around one
    family's iteration driver.

    Every trial restarts from ``original``; each iteration hands the
    driver the working assignment and its rank loads, and the proposal
    with the lowest imbalance across all trials wins (ties to the lowest
    trial; the original assignment when nothing beats
    ``initial_imbalance``). Nothing is migrated here.
    """
    result = RefinementResult(np.array(original, copy=True), initial_imbalance, initial_imbalance)
    _select_best(result, (
        _run_trial(trial, original, task_loads, n_ranks, n_iters, iterate)
        for trial in range(1, int(n_trials) + 1)
    ))
    return result


def _phase_driver(
    dist: Distribution, gossip: GossipConfig, transfer: TransferConfig,
    rng: np.random.Generator, registry: StatsRegistry | None,
) -> IterationDriver:
    """The phase-level iteration: :func:`run_inform_stage` then
    :func:`transfer_stage`, one ``lb.iteration`` row per call."""
    instrumented = registry is not None
    l_ave = dist.average_load  # constant: no load is created or destroyed

    def iterate(trial, iteration, working, loads):
        if instrumented:
            with registry.timed("wall.inform", time.perf_counter):
                inform = run_inform_stage(
                    loads, gossip, rng, average_load=l_ave, registry=registry
                )
            with registry.timed("wall.transfer", time.perf_counter):
                stats = transfer_stage(
                    working, dist.task_loads, inform, transfer, rng, registry=registry
                )
        else:
            inform = run_inform_stage(loads, gossip, rng, average_load=l_ave)
            stats = transfer_stage(working, dist.task_loads, inform, transfer, rng)
        loads = np.bincount(working, weights=dist.task_loads, minlength=dist.n_ranks)
        proposed = imbalance(loads)
        if instrumented:
            registry.inc("lb.iterations")
            registry.observe(
                "lb.iteration",
                trial=trial,
                iteration=iteration,
                proposed=stats.proposed,
                accepted=stats.transfers,
                rejected=stats.rejections,
                nacked=stats.nacked,
                rejection_rate=stats.rejection_rate,
                cmf_builds=stats.cmf_builds,
                cmf_updates=stats.cmf_updates,
                imbalance=proposed,
                gossip_messages=inform.n_messages,
                gossip_bytes=inform.bytes_sent,
            )
        return proposed, stats, inform

    return iterate


def _trial_worker(
    shared: _TrialShared, payload: tuple[int, np.random.Generator]
) -> tuple[_TrialOutcome, StatsRegistry | None]:
    """Executor entry point: run one trial against the shared inputs.

    Module-level (and therefore picklable by name) so the process
    backend of :class:`~repro.util.parallel.TrialExecutor` can dispatch
    it.
    The sub-registry is created *here*, inside the worker, and returned
    with the outcome; the caller merges sub-registries in trial order.
    """
    trial, rng = payload
    registry = StatsRegistry() if shared.instrumented else None
    dist = shared.dist
    iterate = _phase_driver(dist, shared.gossip, shared.transfer, rng, registry)
    outcome = _run_trial(
        trial, dist.assignment, dist.task_loads, dist.n_ranks, shared.n_iters, iterate
    )
    return outcome, registry


def _select_best(result: RefinementResult, outcomes: Iterable[_TrialOutcome]) -> None:
    """Fold trial outcomes into ``result`` in trial order (Alg. 3 l.13).

    The strict ``<`` comparison is the tie-breaking rule: when two
    trials reach an equal best imbalance, the *lowest trial index*
    keeps the win. Outcomes always arrive in trial order (the executor
    preserves submission order), so this rule holds for every backend
    and worker count.
    """
    for out in outcomes:
        result.records.extend(out.records)
        result.total_gossip_messages += out.gossip_messages
        result.total_gossip_bytes += out.gossip_bytes
        if out.best_assignment is not None and out.best_imbalance < result.best_imbalance:
            result.best_imbalance = out.best_imbalance
            result.best_assignment = out.best_assignment


def iterative_refinement(
    dist: Distribution,
    n_trials: int = 1,
    n_iters: int = 1,
    gossip: GossipConfig | None = None,
    transfer: TransferConfig | None = None,
    rng: np.random.Generator | int | None = None,
    registry: StatsRegistry | None = None,
    n_workers: int | None = None,
) -> RefinementResult:
    """Run Algorithm 3 and return the best proposal.

    The input distribution is never mutated. ``l_ave`` is constant across
    iterations (no load is created or destroyed), matching the paper's
    observation in § V-B.

    With a ``registry`` attached, every (trial, iteration) appends one
    row to the ``lb.iteration`` series — the programmatic form of the
    paper's § V-B/§ V-D tables — the inform/transfer stages record
    their own counters, and the stages' wall time accumulates into the
    ``wall.inform`` / ``wall.transfer`` / ``wall.refinement`` timers.
    ``wall.inform``/``wall.transfer`` are *cumulative per-trial* stage
    time; ``wall.refinement`` is the true start-to-finish span of this
    call, so under parallel execution the stage timers can legitimately
    exceed it (see ``docs/observability.md``). Instrumentation draws no
    RNG, so the refined assignment is identical with or without it.

    ``n_workers`` selects the execution model:

    - ``None`` — the historical serial semantics: one RNG stream shared
      across trials.
    - ``>= 1`` — per-trial spawned streams, dispatched by a
      :class:`~repro.util.parallel.TrialExecutor`; results are
      bit-identical for every backend and worker count, but differ
      from the shared-stream serial walk.
    """
    check_positive("n_trials", n_trials)
    check_positive("n_iters", n_iters)
    gossip = gossip or GossipConfig()
    transfer = transfer or TransferConfig()
    rng = coerce_rng(rng)

    original = dist.assignment
    initial = dist.imbalance()

    instrumented = registry is not None
    wall_start = time.perf_counter()
    if n_workers is None:
        iterate = _phase_driver(dist, gossip, transfer, rng, registry)
        result = run_trials(
            iterate, original, dist.task_loads, dist.n_ranks, n_trials, n_iters, initial
        )
    else:
        check_positive("n_workers", n_workers)
        streams = spawn_streams(rng, int(n_trials))
        shared = _TrialShared(dist, int(n_iters), gossip, transfer, instrumented)
        pool = TrialExecutor(min(int(n_workers), int(n_trials)))
        payloads = [(trial + 1, streams[trial]) for trial in range(int(n_trials))]
        pairs = pool.map(_trial_worker, payloads, shared)
        if instrumented:
            # Merge in trial order regardless of completion order, so
            # recorded series are identical for any worker count.
            for _, sub in pairs:
                registry.merge(sub)  # type: ignore[arg-type]
        result = RefinementResult(np.array(original, copy=True), initial, initial)
        _select_best(result, (outcome for outcome, _ in pairs))

    if instrumented:
        registry.add_time("wall.refinement", time.perf_counter() - wall_start)
        registry.inc("lb.refinements")
        registry.event(
            "lb.refinement",
            n_trials=int(n_trials),
            n_iters=int(n_iters),
            initial_imbalance=result.initial_imbalance,
            best_imbalance=result.best_imbalance,
            gossip_messages=result.total_gossip_messages,
            gossip_bytes=result.total_gossip_bytes,
        )
    return result
