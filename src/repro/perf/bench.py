"""The perf bench: what no ``benchmarks/e2e`` workload measures.

Two cases. The § V-scale stage timings belong to ``benchmarks/e2e``'s
``phase_4k``, which times the same inform and transfer stages with
repeats and spread.

``refinement/serial`` vs ``refinement/parallel``
    Algorithm 3 with the trial loop serial (spawned streams, one
    worker) vs. parallel under the shipping resolution rule (a process
    pool wherever a second core and ``fork`` exist) — same streams,
    bit-identical output, so the ratio is work-for-work. The per-stage
    ``wall.*`` timers from both instrumented runs ride along, and the
    parallel run's cumulative stage walls over its true
    ``wall.refinement`` span give the utilization figure (> 1 means
    trials overlapped *in time*; whether that overlap was real cores or
    time-slicing shows in the speedup, which is bounded by
    ``meta.cpu_count`` — recorded for exactly that reason). These are
    the payload's only ``benchmarks[]`` rows.
The ``--scale`` ladder
    One ``scale_ladder[]`` record per rung, the only copy of the rung's
    numbers: one inform stage per knowledge store where the packed
    matrix is tractable, each with its ``f x |senders|`` message-model
    bit (``message_model_exact``); both stores consume identical RNG and
    produce bit-identical knowledge, so the ratio —
    ``speedups.inform_backend_auto_vs_alt_<rung>`` — is work-for-work
    and proves ``knowledge="auto"`` picks the faster store. Then one
    transfer stage and one full Algorithm 3 episode (``refinement``,
    with its ``wall.*`` stage timers). The 131k episode is the headline
    "how long does a whole LB decision take at BG/Q scale" figure, and
    its subprocess peak RSS is the < 8 GiB acceptance gate.

The refinement race runs on the paper's § V analysis scenario (10^4
tasks on 4096 ranks); ``quick`` drops it to a CI-smoke size. Every
case reports the best of ``repeats`` runs (state is rebuilt per run,
so repeated timings are independent). ``profile=True`` additionally
runs the serial race case and each rung case once under
:mod:`cProfile` and collects the top-20 cumulative hotspots per case
into the payload's ``profiles`` section (the CLI writes them to
``benchmarks/results/``).
"""

from __future__ import annotations

import multiprocessing
import platform
import resource
import sys
import time
from typing import Any, Callable

import numpy as np

from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.refinement import iterative_refinement
from repro.core.transfer import TransferConfig, transfer_stage
from repro.obs import StatsRegistry
from repro.util.parallel import effective_cpu_count, resolve_backend
from repro.workloads.synthetic import paper_analysis_scenario

__all__ = [
    "run_benchmarks",
    "run_scale_ladder",
    "format_report",
    "SCALE_RUNGS",
    "SCALE_RSS_BUDGET_MB",
    "LADDER_MAX_KNOWN",
]

#: The refinement race's scale (n_tasks, n_loaded_ranks, n_ranks): § V's.
FULL_SCALE = (10_000, 16, 4096)
#: CI-smoke scale for ``--quick``.
QUICK_SCALE = (2_000, 8, 512)

#: ``bench --scale`` ladder rungs (4k = the § V analysis rank count,
#: 131k = the paper's headline BG/Q run). Each rung times one
#: inform+transfer episode under the limited-information configuration
#: that makes high rank counts tractable (``max_known`` cap, "lowest"
#: trim) and records the peak RSS of a fresh subprocess running it.
SCALE_RUNGS: dict[str, dict[str, int]] = {
    "4k": {"n_ranks": 4_096, "n_loaded": 16, "tasks_full": 10_000, "tasks_quick": 10_000},
    "32k": {"n_ranks": 32_768, "n_loaded": 64, "tasks_full": 500_000, "tasks_quick": 100_000},
    "131k": {"n_ranks": 131_072, "n_loaded": 256, "tasks_full": 2_000_000, "tasks_quick": 500_000},
}

#: Knowledge cap for ladder rungs. 512 entries is deep knowledge for the
#: transfer CMF while keeping every backend's state O(P x cap).
LADDER_MAX_KNOWN = 512

#: Peak-RSS ceiling per rung (MiB), asserted by the committed-bench
#: floor checks and the CI scale-smoke gate. The 131k budget is the
#: acceptance criterion of the scale-ladder milestone (< 8 GiB for a
#: 131,072-rank / 2M-task episode).
SCALE_RSS_BUDGET_MB = {"4k": 2_048, "32k": 1_024, "131k": 8_192}

#: Rungs where the dense packed-bitmap backend is still run as a
#: reference. At 131k the dense knowledge matrix alone is ~2 GiB and
#: each round copies it, so the rung runs the sparse store only.
_RUNG_REFERENCE = {"4k": True, "32k": True, "131k": False}

#: Full-episode (Algorithm 3) shape per rung: (n_trials, n_iters).
#: Small on purpose — the episode case measures per-iteration cost of
#: the whole inform+transfer+selection loop, not convergence quality,
#: and one 131k iteration is already tens of seconds.
_RUNG_EPISODE = {"4k": (2, 2), "32k": (1, 2), "131k": (1, 2)}


def _time_best(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best wall time of ``repeats`` calls, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _profile_text(fn: Callable[[], Any], top: int = 20) -> str:
    """Run ``fn`` once under :mod:`cProfile`; top-``top`` cumulative rows.

    A failing case still yields a complete listing: the traceback is
    prepended and whatever the profiler captured before the raise
    follows. Profiling is diagnostics — it must never abort the bench
    run or leave its JSON/text artifacts half-written.
    """
    import cProfile
    import io
    import pstats
    import traceback

    prof = cProfile.Profile()
    prof.enable()
    failure = None
    try:
        fn()
    except Exception:
        failure = traceback.format_exc()
    finally:
        prof.disable()
    buf = io.StringIO()
    if failure is not None:
        buf.write("PROFILED CASE FAILED — partial profile below\n")
        buf.write(failure)
        buf.write("\n")
    pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def _peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MiB (``ru_maxrss``)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / 1024.0 if sys.platform != "darwin" else peak / (1024.0 * 1024.0)


def _message_model_exact(stage: Any, fanout: int) -> bool:
    """Whether every round sent exactly ``fanout x |senders|`` messages."""
    return stage.per_round_messages == [fanout * s for s in stage.per_round_senders]


def _run_scale_rung(
    name: str, quick: bool, repeats: int, seed: int, profile: bool = False
) -> dict[str, Any]:
    """Time one ladder rung (in-process): stages and one episode.

    The packed store runs alongside the sparse one where it is
    tractable (``_RUNG_REFERENCE``), so the rung reports both the cost
    of the store that ships at that rank count and the ratio against
    the alternative. On top of the per-stage timings, one full
    ``iterative_refinement`` episode (``_RUNG_EPISODE`` shape) times
    the whole LB decision loop end to end with its ``wall.*`` stage
    timers.
    """
    spec = SCALE_RUNGS[name]
    n_ranks = spec["n_ranks"]
    n_tasks = spec["tasks_quick"] if quick else spec["tasks_full"]
    # Inform cost depends on rank count only, never task count, so the
    # full k=10 rounds stay affordable in quick mode — and the quick-CI
    # backend ratio then measures the same saturated-round regime the
    # committed full-scale bench gates.
    rounds = 10
    reps = {"4k": repeats, "32k": min(repeats, 2), "131k": 1}[name]
    dist = paper_analysis_scenario(
        n_tasks=n_tasks,
        n_loaded_ranks=spec["n_loaded"],
        n_ranks=n_ranks,
        seed=seed,
    )
    loads = np.bincount(dist.assignment, weights=dist.task_loads, minlength=n_ranks)
    base = dict(rounds=rounds, max_known=LADDER_MAX_KNOWN, trim_policy="lowest")
    auto_backend = GossipConfig(**base).resolve_knowledge(n_ranks)
    backends = ("packed", "sparse") if _RUNG_REFERENCE[name] else ("sparse",)
    profiles: dict[str, str] = {}
    inform_secs: dict[str, float] = {}
    inform_mem: dict[str, float] = {}
    inform_messages: dict[str, int] = {}
    model_exact: dict[str, bool] = {}
    gossip = None
    for backend in backends:
        config = GossipConfig(knowledge=backend, **base)

        def bench_inform(config=config):
            return run_inform_stage(
                loads, config, np.random.default_rng(seed + 1), average_load=dist.average_load
            )

        secs, stage = _time_best(bench_inform, reps)
        inform_secs[backend] = secs
        inform_messages[backend] = stage.n_messages
        model_exact[backend] = _message_model_exact(stage, config.fanout)
        inform_mem[backend] = stage.knowledge.memory_bytes() / 2**20
        if backend == auto_backend or gossip is None:
            gossip = stage
        if profile and backend == "sparse":
            profiles[f"inform_sparse_{name}"] = _profile_text(bench_inform)

    def bench_transfer():
        assignment = np.array(dist.assignment, copy=True)
        return transfer_stage(
            assignment,
            dist.task_loads,
            gossip,
            TransferConfig(),
            np.random.default_rng(seed + 2),
        )

    transfer_secs, stats = _time_best(bench_transfer, reps)
    if profile:
        profiles[f"transfer_{name}"] = _profile_text(bench_transfer)

    # Full-episode case: Algorithm 3 end to end at this rank count —
    # inform + CMF + transfer + trial selection — under the shipping
    # configuration (the "auto" backend). One repeat: episodes
    # are the most expensive cases on the ladder and the per-stage
    # wall timers expose where the time went anyway.
    ep_trials, ep_iters = _RUNG_EPISODE[name]

    def bench_episode() -> StatsRegistry:
        registry = StatsRegistry()
        iterative_refinement(
            dist,
            n_trials=ep_trials,
            n_iters=ep_iters,
            gossip=GossipConfig(knowledge="auto", **base),
            transfer=TransferConfig(),
            rng=np.random.default_rng(seed + 3),
            registry=registry,
        )
        return registry

    episode_secs, episode_registry = _time_best(bench_episode, 1)
    if profile:
        profiles[f"refinement_{name}"] = _profile_text(bench_episode)

    return {
        "scale": name,
        "n_ranks": n_ranks,
        "n_tasks": n_tasks,
        "n_loaded_ranks": spec["n_loaded"],
        "rounds": rounds,
        "max_known": LADDER_MAX_KNOWN,
        "trim_policy": "lowest",
        "repeats": reps,
        "auto_backend": auto_backend,
        "inform_seconds": inform_secs,
        "inform_messages": inform_messages,
        "message_model_exact": model_exact,
        "knowledge_memory_mb": inform_mem,
        "transfer_seconds": transfer_secs,
        "transfers": stats.transfers,
        "refinement": {
            "seconds": episode_secs,
            "n_trials": ep_trials,
            "n_iters": ep_iters,
            "stage_walls": {
                k: float(v) for k, v in episode_registry.timers.items()
            },
        },
        "peak_rss_budget_mb": SCALE_RSS_BUDGET_MB[name],
        "profiles": profiles,
    }


def _scale_rung_worker(
    conn, name: str, quick: bool, repeats: int, seed: int, profile: bool = False
) -> None:
    """Spawn target: run one rung and ship the result over a pipe.

    Runs in a fresh process so ``ru_maxrss`` — a process-lifetime
    high-water mark — measures this rung alone, not whatever larger
    rung or suite ran earlier in the parent. Profile texts (when
    requested) travel back over the same pipe as part of the record.
    """
    try:
        payload = _run_scale_rung(name, quick, repeats, seed, profile=profile)
        payload["peak_rss_mb"] = _peak_rss_mb()
        conn.send(payload)
    except BaseException as exc:  # pragma: no cover - surfaced in the parent
        conn.send({"scale": name, "error": repr(exc)})
    finally:
        conn.close()


def run_scale_ladder(
    scale: str,
    quick: bool = False,
    repeats: int = 3,
    seed: int = 0,
    profile: bool = False,
) -> list[dict[str, Any]]:
    """Run the ``--scale`` ladder and return one record per rung.

    ``scale`` is a rung name or ``"all"``. Each rung runs in a spawned
    subprocess so its ``peak_rss_mb`` is a per-rung measurement; if the
    platform cannot spawn, the rung runs in-process and the record is
    flagged ``"subprocess": False`` (its RSS then includes the parent's
    history and is an upper bound).
    """
    if scale == "all":
        rungs = list(SCALE_RUNGS)
    elif scale in SCALE_RUNGS:
        rungs = [scale]
    else:
        raise ValueError(
            f"scale must be one of {[*SCALE_RUNGS, 'all']}, got {scale!r}"
        )
    records = []
    for name in rungs:
        try:
            ctx = multiprocessing.get_context("spawn")
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_scale_rung_worker,
                args=(send, name, quick, repeats, seed, profile),
            )
            proc.start()
            send.close()
            try:
                record = recv.recv()
            except EOFError:
                record = {"scale": name, "error": "rung worker died without a result"}
            finally:
                proc.join()
            record["subprocess"] = True
        except (ImportError, OSError, ValueError):
            record = _run_scale_rung(name, quick, repeats, seed, profile=profile)
            record["peak_rss_mb"] = _peak_rss_mb()
            record["subprocess"] = False
        if "error" in record:
            raise RuntimeError(f"scale rung {name} failed: {record['error']}")
        records.append(record)
    return records


def run_benchmarks(
    quick: bool = False,
    repeats: int = 3,
    seed: int = 0,
    workers: int | None = None,
    scale: str | None = None,
    profile: bool = False,
) -> dict[str, Any]:
    """Run the bench and return the ``BENCH_perf.json`` payload.

    ``workers`` overrides the refinement race's parallel worker count
    (default: 2 at quick scale, 4 at full scale). The parallel case
    measures the shipping resolution rule — the process backend
    wherever a second core and ``fork`` exist, the serial loop where a
    pool cannot win — and the payload records the resolved backend.

    ``scale`` additionally runs the rank-count ladder (a rung name or
    ``"all"``; see :func:`run_scale_ladder`): the payload gains one
    ``scale_ladder`` record per rung and, per raced rung,
    ``speedups.inform_backend_auto_vs_alt_<rung>`` — the ratio that
    proves ``knowledge="auto"`` picks the faster store at that rank
    count.

    ``profile=True`` runs the serial race case and each rung case once
    more under cProfile and returns the top-20 cumulative listings in
    ``payload["profiles"]``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    n_tasks, n_loaded, n_ranks = QUICK_SCALE if quick else FULL_SCALE
    dist = paper_analysis_scenario(
        n_tasks=n_tasks, n_loaded_ranks=n_loaded, n_ranks=n_ranks, seed=seed
    )
    n_trials, n_iters, default_workers = (2, 2, 2) if quick else (4, 2, 4)
    n_workers = default_workers if workers is None else int(workers)
    rows: list[dict[str, Any]] = []
    timers: dict[str, dict[str, float]] = {}
    profiles: dict[str, str] = {}
    for label, case_workers in (("serial", 1), ("parallel", n_workers)):

        def bench_refinement(case_workers=case_workers):
            registry = StatsRegistry()
            iterative_refinement(
                dist,
                n_trials=n_trials,
                n_iters=n_iters,
                rng=np.random.default_rng(seed + 3),
                registry=registry,
                n_workers=case_workers,
            )
            return registry

        secs, registry = _time_best(bench_refinement, repeats)
        if profile and label == "serial":
            profiles["refinement_serial"] = _profile_text(bench_refinement)
        timers[label] = {k: float(v) for k, v in registry.timers.items()}
        rows.append(
            {
                "name": f"refinement/{label}",
                "seconds": secs,
                "repeats": repeats,
                "n_trials": n_trials,
                "n_iters": n_iters,
                "n_workers": case_workers,
                "executor": resolve_backend(case_workers, n_trials),
            }
        )
    speedups = {"refinement_parallel_vs_serial": rows[0]["seconds"] / rows[1]["seconds"]}

    # -- rank-count ladder (opt-in via ``scale``) ---------------------------
    ladder: list[dict[str, Any]] = []
    if scale is not None:
        ladder = run_scale_ladder(
            scale, quick=quick, repeats=repeats, seed=seed, profile=profile
        )
        for rung in ladder:
            profiles.update(rung.pop("profiles", {}))
            # The gated ladder invariant: whatever store "auto" picks at
            # this rank count must beat the alternative. Rungs run
            # without a reference store (131k) contribute timing and
            # RSS data only — there is nothing tractable to race.
            seconds = rung["inform_seconds"]
            alts = [b for b in seconds if b != rung["auto_backend"]]
            if alts:
                speedups[f"inform_backend_auto_vs_alt_{rung['scale']}"] = (
                    seconds[alts[0]] / seconds[rung["auto_backend"]]
                )
    # Stage timers are cumulative per trial and measure elapsed time
    # inside each worker (descheduled slices included); wall.refinement
    # is the true span. Their ratio is the utilization of the parallel
    # run: > 1 means trials overlapped in time, and only together with
    # a speedup > 1 does that overlap prove real core parallelism (it
    # can approach n_workers on idle multi-core hardware).
    parallel = timers["parallel"]
    stage_wall = parallel.get("wall.inform", 0.0) + parallel.get("wall.transfer", 0.0)
    refinement_wall = parallel.get("wall.refinement", 0.0)
    return {
        "meta": {
            "quick": quick,
            "repeats": repeats,
            "seed": seed,
            "scale": {"n_tasks": n_tasks, "n_loaded_ranks": n_loaded, "n_ranks": n_ranks},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            # Parallel speedup is bounded by the cores this process may
            # use — anyone reading the refinement ratio needs this.
            "cpu_count": effective_cpu_count(),
        },
        "benchmarks": rows,
        "speedups": speedups,
        "scale_ladder": ladder,
        "profiles": profiles,
        "wall_timers": timers["serial"],
        "refinement_parallel": {
            "executor": resolve_backend(n_workers, n_trials),
            "n_workers": n_workers,
            "stage_wall_seconds": stage_wall,
            "wall_seconds": refinement_wall,
            "utilization": (stage_wall / refinement_wall) if refinement_wall else 0.0,
        },
    }


def format_report(payload: dict[str, Any]) -> str:
    """Human-readable digest of a :func:`run_benchmarks` payload.

    The race rows print at ``meta.scale``; each ladder rung prints its
    own block (summary, inform per store with its message-model bit,
    transfer, episode).
    """
    meta = payload["meta"]
    scale = meta["scale"]
    lines = [
        f"perf bench ({'quick' if meta['quick'] else 'full'} scale: "
        f"{scale['n_tasks']} tasks, {scale['n_ranks']} ranks; "
        f"best of {meta['repeats']})",
        "",
    ]
    width = max(len(b["name"]) for b in payload["benchmarks"])
    for bench in payload["benchmarks"]:
        detail = ", ".join(
            f"{k}={v}" for k, v in bench.items() if k not in ("name", "seconds", "repeats")
        )
        lines.append(
            f"  {bench['name']:<{width}}  {bench['seconds'] * 1e3:9.2f} ms  ({detail})"
        )
    lines.append("")
    for name, value in payload["speedups"].items():
        lines.append(f"  speedup {name}: {value:.2f}x")
    for rung in payload.get("scale_ladder", ()):
        mem = "/".join(
            f"{b}={v:.1f}MB" for b, v in sorted(rung["knowledge_memory_mb"].items())
        )
        lines.append(
            f"  rung {rung['scale']}: {rung['n_ranks']} ranks, "
            f"{rung['n_tasks']} tasks, auto={rung['auto_backend']}, "
            f"knowledge {mem}, peak RSS {rung['peak_rss_mb']:.0f} MB "
            f"(budget {rung['peak_rss_budget_mb']} MB"
            + ("" if rung["subprocess"] else ", in-process upper bound")
            + ")"
        )
        exact = rung["message_model_exact"]
        lines.append(
            "    inform: "
            + ", ".join(
                f"{b} {s:.2f}s (f x senders {'exact' if exact[b] else 'BROKEN'})"
                for b, s in rung["inform_seconds"].items()
            )
            + f"; transfer {rung['transfer_seconds']:.2f}s, "
            f"{rung['transfers']} transfers"
        )
        episode = rung["refinement"]
        walls = episode["stage_walls"]
        lines.append(
            f"    episode ({episode['n_trials']}x{episode['n_iters']}): "
            f"{episode['seconds']:.2f}s total, "
            f"inform {walls.get('wall.inform', 0.0):.2f}s, "
            f"transfer {walls.get('wall.transfer', 0.0):.2f}s"
        )
    refinement = payload["refinement_parallel"]
    if refinement["wall_seconds"]:
        lines.append(
            "  refinement utilization: "
            f"{refinement['stage_wall_seconds']:.2f}s stage walls / "
            f"{refinement['wall_seconds']:.2f}s wall.refinement = "
            f"{refinement['utilization']:.2f} "
            f"({refinement['executor']} x{refinement['n_workers']}, "
            f"{meta['cpu_count']} cores)"
        )
    if payload["wall_timers"]:
        timers = ", ".join(
            f"{k}={v * 1e3:.1f}ms" for k, v in sorted(payload["wall_timers"].items())
        )
        lines.append(f"  stage wall timers (serial refinement): {timers}")
    return "\n".join(lines)
