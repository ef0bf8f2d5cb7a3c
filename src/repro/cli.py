"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``
    Run the § V criterion study on a synthetic scenario and print the
    per-iteration table (optionally both criteria side by side).
``empire``
    Run one EMPIRE surrogate configuration and print the Fig. 3-style
    breakdown plus speedups against an SPMD run of the same scenario.
``protocols``
    Measure event-level protocol costs (allreduce, gossip, migration)
    at a given rank count.
``sweep``
    Run a declarative sweep (workloads x strategies x seeds) from a
    ``SweepSpec`` JSON file and print the aggregated table.
``trace``
    Trace one LB episode on the event-level runtime and print a
    per-rank Gantt chart, message counts by tag and utilization.
``stats``
    Run an instrumented balancer over a time-varying workload and
    summarize the telemetry registry (counters, per-iteration series),
    or summarize a previously exported stats JSON.
``bench``
    Race serial against parallel refinement trials and, with
    ``--scale``, run the rank-count ladder (store race, stage walls,
    per-rung peak RSS); write ``BENCH_perf.json`` (see
    ``docs/performance.md``). ``bench faults`` writes
    ``BENCH_faults.json``.
``net``
    ``net run`` runs one LB episode over real loopback TCP sockets
    (``--check`` compares it with the simulator); ``net analyze``
    summarizes the artifact directory a run leaves.
``version``
    Print the package version.

``analyze``, ``empire``, ``protocols``, ``sweep``, ``stats`` and
``net analyze`` accept ``--json PATH`` to additionally write
machine-readable results; ``bench --json PATH`` moves its output file
(``-`` skips writing). ``trace``, ``net run`` and ``version`` take no
``--json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    """``--workers``: the trial-parallelism knob.

    Exposed on every subcommand that runs TemperedLB refinement trials
    (and on ``bench``, where it parameterizes the refinement race).
    Results are bit-identical for every count >= 1 — each trial gets
    its own spawned RNG stream — and only wall time changes: a process
    pool runs the trials where a second core and fork exist, the serial
    loop elsewhere. Omitting the flag is *not* the same as ``1``: it
    runs the shared-stream loop (one stream drawn across all trials),
    whose decisions can differ from any count's until that loop gives
    way to per-trial streams.
    """
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel refinement-trial workers; results are identical for "
        "every N >= 1 (default: the shared-stream serial loop, whose results "
        "can differ from any N's)",
    )


def _add_fault_flags(p: argparse.ArgumentParser, churn: bool = False) -> None:
    """``--loss-rate`` / ``--fault-seed`` (and optionally ``--churn``):
    fault-injection knobs. Loss of 0 (the default) is bit-identical to
    the build without the fault layer."""
    p.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="per-message gossip drop probability (default 0 = lossless)",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault RNG streams (independent of --seed)",
    )
    if churn:
        p.add_argument(
            "--churn",
            type=str,
            default=None,
            help="membership churn spec: action:rank@time[,...] "
            "(e.g. crash:3@2e-3,restart:3@4e-3)",
        )


def _parse_fault_config(args: argparse.Namespace):
    """A FaultConfig from CLI flags, or None when every knob is off."""
    from repro.sim.faults import FaultConfig, parse_churn

    churn = parse_churn(args.churn) if getattr(args, "churn", None) else ()
    if args.loss_rate <= 0.0 and not churn:
        return None
    return FaultConfig(loss_rate=args.loss_rate, seed=args.fault_seed, churn=churn)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TemperedLB reproduction (CLUSTER 2021) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="§ V criterion iteration study")
    p.add_argument("--criterion", choices=["original", "relaxed", "both"], default="both")
    p.add_argument("--tasks", type=int, default=2500)
    p.add_argument("--loaded-ranks", type=int, default=8)
    p.add_argument("--ranks", type=int, default=512)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("empire", help="EMPIRE surrogate run")
    p.add_argument(
        "--config",
        dest="configuration",
        default="tempered",
        help="spmd | amt | grapevine | greedy | hier | tempered | rcb",
    )
    p.add_argument("--ranks", type=int, default=100)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lb-period", type=int, default=50)
    p.add_argument("--particles", type=int, default=10_000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--iters", type=int, default=6)
    _add_workers_flag(p)
    _add_fault_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("protocols", help="event-level protocol cost measurement")
    p.add_argument("--ranks", type=int, default=64)
    p.add_argument("--fanout", type=int, default=4)
    p.add_argument("--rounds", type=int, default=6)
    _add_fault_flags(p, churn=True)
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("sweep", help="run a declarative sweep from a JSON spec file")
    p.add_argument("spec", type=str, help="path to a SweepSpec JSON file")
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("trace", help="trace one LB episode and print a Gantt chart")
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--tasks-per-rank", type=int, default=6)
    p.add_argument("--width", type=int, default=64)

    p = sub.add_parser("stats", help="instrumented run telemetry summary/export")
    p.add_argument(
        "input",
        nargs="?",
        default=None,
        help="existing stats JSON to summarize (omit to run a fresh episode)",
    )
    p.add_argument("--balancer", choices=["tempered", "grapevine"], default="tempered")
    p.add_argument("--tasks", type=int, default=2000)
    p.add_argument("--ranks", type=int, default=64)
    p.add_argument("--phases", type=int, default=4)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--iters", type=int, default=4)
    _add_workers_flag(p)
    _add_fault_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", type=str, default=None)
    p.add_argument("--csv", type=str, default=None)

    p = sub.add_parser(
        "bench", help="benchmark suites -> BENCH_perf.json / BENCH_faults.json"
    )
    p.add_argument(
        "suite",
        nargs="?",
        choices=["perf", "faults"],
        default="perf",
        help="perf = refinement race and --scale ladder (default); "
        "faults = imbalance degradation vs gossip loss rate",
    )
    p.add_argument(
        "--quick", action="store_true", help="CI-smoke scale instead of the § V scale"
    )
    p.add_argument("--repeats", type=int, default=3, help="best-of-N timing repeats")
    p.add_argument(
        "--scale",
        choices=["4k", "32k", "131k", "all"],
        default=None,
        help="also run the rank-count ladder at this rung (or every rung); "
        "each rung runs in a fresh subprocess and records its peak RSS "
        "(perf suite only)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run the serial refinement case and each rung case once under "
        "cProfile and write the top-20 cumulative hotspots per case to "
        "benchmarks/results/ (perf suite only)",
    )
    _add_workers_flag(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument(
        "--json",
        type=str,
        default=None,
        help="output path (default BENCH_<suite>.json; '-' to skip writing)",
    )

    p = sub.add_parser(
        "net", help="real-socket runtime: run and analyze loopback episodes"
    )
    netsub = p.add_subparsers(dest="net_command", required=True)
    pr = netsub.add_parser(
        "run", help="run one LB episode over real loopback TCP sockets"
    )
    pr.add_argument("--ranks", type=int, default=64)
    pr.add_argument("--tasks", type=int, default=None,
                    help="task count (default 32 per rank)")
    pr.add_argument("--loaded-ranks", type=int, default=None,
                    help="initially loaded ranks (default ranks/8)")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--fanout", type=int, default=6)
    pr.add_argument("--rounds", type=int, default=10)
    pr.add_argument("--iters", type=int, default=1,
                    help="inform+transfer iterations per episode")
    pr.add_argument("--workers", type=int, default=None,
                    help="in-process workers (one socket endpoint each) "
                    "hosting the rank nodes (default 1)")
    pr.add_argument("--processes", type=int, default=0,
                    help="shard ranks across N real worker OS processes "
                    "instead (0 = in-process coroutine workers; sockets are "
                    "real either way)")
    pr.add_argument("--out", type=str, default="net_episode",
                    help="artifact directory (result.json + logs/)")
    pr.add_argument("--no-logs", action="store_true",
                    help="skip per-rank JSONL message logs")
    pr.add_argument("--timeout", type=float, default=300.0,
                    help="wall-clock budget for the episode (seconds)")
    pr.add_argument("--check", action="store_true",
                    help="also run the simulator reference and fail unless "
                    "the results are bit-identical (the CI net-smoke gate)")
    pa = netsub.add_parser(
        "analyze", help="summarize a net episode directory (result + wire logs)"
    )
    pa.add_argument("dir", type=str, help="artifact directory from 'net run'")
    pa.add_argument("--json", type=str, default=None)

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": _cmd_analyze,
        "bench": _cmd_bench,
        "empire": _cmd_empire,
        "net": _cmd_net,
        "protocols": _cmd_protocols,
        "stats": _cmd_stats,
        "sweep": _cmd_sweep,
        "trace": _cmd_trace,
        "version": _cmd_version,
    }[args.command]
    return handler(args)


def _cmd_version(args: argparse.Namespace) -> int:
    import repro

    print(repro.__version__)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        criterion_comparison,
        criterion_study,
        format_comparison_table,
        format_iteration_table,
    )
    from repro.analysis.io import save_json
    from repro.workloads import paper_analysis_scenario

    dist = paper_analysis_scenario(
        n_tasks=args.tasks,
        n_loaded_ranks=args.loaded_ranks,
        n_ranks=args.ranks,
        seed=args.seed,
    )
    print(
        f"scenario: {args.tasks} tasks on {args.loaded_ranks} of "
        f"{args.ranks} ranks, I0 = {dist.imbalance():.2f}\n"
    )
    if args.criterion == "both":
        studies = criterion_comparison(dist, n_iters=args.iters, seed=args.seed)
        print(
            format_comparison_table(
                {"Criterion 35": studies["original"], "Criterion 37": studies["relaxed"]}
            )
        )
        payload = {
            name: [r.imbalance for r in study.records]
            for name, study in studies.items()
        }
    else:
        study = criterion_study(dist, args.criterion, n_iters=args.iters, rng=args.seed)
        print(
            format_iteration_table(
                study.records, study.initial_imbalance, title=f"criterion: {args.criterion}"
            )
        )
        payload = {args.criterion: [r.imbalance for r in study.records]}
    if args.json:
        save_json(payload, args.json)
    return 0


def _cmd_empire(args: argparse.Namespace) -> int:
    from repro.analysis import format_rows
    from repro.analysis.io import save_json
    from repro.empire import EmpireConfig, run_empire

    base = EmpireConfig(
        configuration=args.configuration,
        n_ranks=args.ranks,
        n_steps=args.steps,
        lb_period=args.lb_period,
        initial_particles=args.particles,
        injection_per_step=max(args.particles // 100, 1),
        n_trials=args.trials,
        n_iters=args.iters,
        n_workers=args.workers,
        faults=_parse_fault_config(args),
        seed=args.seed,
    )
    run = run_empire(base)
    rows = [run.breakdown()]
    if args.configuration != "spmd":
        spmd = run_empire(base.with_configuration("spmd"))
        rows.append(spmd.breakdown())
        print(
            f"particle speedup vs SPMD: {spmd.t_particle / run.t_particle:.2f}x, "
            f"total: {spmd.t_total / run.t_total:.2f}x\n"
        )
    print(format_rows(rows, ["Type", "t_n", "t_p", "t_lb", "t_total"]))
    if args.json:
        save_json(rows, args.json)
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    from repro.analysis import format_rows
    from repro.analysis.io import save_json
    from repro.runtime.lbmanager import event_inform_stage
    from repro.sim.faults import FaultyLink, HeartbeatFailureDetector
    from repro.sim.process import System
    from repro.sim.reductions import allreduce

    n = args.ranks
    fault_cfg = _parse_fault_config(args)
    sys_ = System(n)
    times: dict[int, float] = {}
    allreduce(
        sys_,
        [1.0] * n,
        combine=lambda a, b: a + b,
        on_complete=lambda rank, v: times.__setitem__(rank, sys_.engine.now),
    )
    sys_.run()

    sys2 = System(n)
    link = detector = None
    if fault_cfg is not None:
        link = FaultyLink(sys2, fault_cfg)
        detector = HeartbeatFailureDetector(sys2, fault_cfg)
    loads = np.ones(n)
    loads[: max(2, n // 16)] = 20.0
    gossip, gossip_elapsed = event_inform_stage(
        sys2, loads, fanout=args.fanout, rounds=args.rounds, detector=detector
    )

    rows = [
        {
            "P": n,
            "allreduce (us)": max(times.values()) * 1e6,
            "gossip (us)": gossip_elapsed * 1e6,
            "gossip msgs": gossip.n_messages,
            "coverage": gossip.coverage(),
        }
    ]
    if link is not None:
        rows[0]["drops"] = link.drops
        rows[0]["crashes"] = link.crashes
        rows[0]["suspected"] = len(detector.suspected) if detector is not None else 0
    print(format_rows(rows, list(rows[0].keys())))
    if args.json:
        save_json(rows, args.json)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import format_rows
    from repro.analysis.io import load_json, save_json
    from repro.analysis.runner import SweepSpec, run_sweep

    spec = SweepSpec.from_dict(load_json(args.spec))
    rows = run_sweep(spec)
    printable = [{k: v for k, v in row.items() if k != "raw"} for row in rows]
    print(
        format_rows(
            printable,
            ["workload", "strategy", "initial I", "final I", "final I std", "migrations"],
            title=f"sweep over {len(spec.seeds)} seeds",
        )
    )
    if args.json:
        save_json(rows, args.json)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.tempered import TemperedConfig
    from repro.runtime import AMTRuntime, LBManager
    from repro.sim.trace import Tracer
    from repro.util.validation import check_positive_int

    check_positive_int("--tasks-per-rank", args.tasks_per_rank)
    check_positive_int("--width", args.width)
    n_ranks = args.ranks
    rng = np.random.default_rng(0)
    n_tasks = n_ranks * args.tasks_per_rank
    task_loads = rng.gamma(4.0, 0.002, size=n_tasks)
    assignment = np.zeros(n_tasks, dtype=np.int64)
    runtime = AMTRuntime(n_ranks, task_loads, assignment, task_overhead=1e-5)
    tracer = Tracer(runtime.system)
    phase = runtime.execute_phase()
    episode = LBManager(
        runtime, TemperedConfig(n_trials=1, n_iters=3, fanout=4, rounds=4), seed=1
    ).run_episode()
    runtime.execute_phase()

    print(f"phase 0 imbalanced (I={phase.imbalance():.1f}), LB episode "
          f"({episode.n_migrations} migrations, t_lb={episode.t_lb*1e3:.2f} ms), "
          f"phase 1 balanced (I={episode.final_imbalance:.2f})\n")
    print("per-rank CPU activity (# = busy):")
    print(tracer.gantt(width=args.width))
    print("\nmessages by tag (application traffic only):")
    for tag, count in sorted(tracer.messages_by_tag().items()):
        print(f"  {tag:<20} {count:>6}")
    util = tracer.utilization()
    print(f"\nmean utilization: {util.mean():.2f} "
          f"(min {util.min():.2f}, max {util.max():.2f})")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.io import load_stats, save_stats, stats_to_csv
    from repro.obs import StatsRegistry

    if args.input is not None:
        registry = load_stats(args.input)
        print(registry.summary())
        return 0

    from repro.core.distribution import Distribution
    from repro.core.grapevine import GrapevineLB
    from repro.core.tempered import TemperedLB
    from repro.util.validation import check_positive_int
    from repro.workloads import MovingHotspot

    check_positive_int("--phases", args.phases)
    registry = StatsRegistry()
    faults = _parse_fault_config(args)
    if args.balancer == "grapevine":
        lb = GrapevineLB(n_iters=args.iters, faults=faults)
    else:
        lb = TemperedLB(
            n_trials=args.trials, n_iters=args.iters, n_workers=args.workers, faults=faults
        )
    lb.instrument(registry)

    # A drifting hotspot gives each phase a different imbalance profile,
    # so the per-iteration series shows time-varying behavior.
    hotspot = MovingHotspot(args.tasks, speed=0.02)
    rng = np.random.default_rng(args.seed)
    assignment = rng.integers(0, max(args.ranks // 8, 1), size=args.tasks)
    for phase in range(args.phases):
        dist = Distribution(hotspot.loads(phase), assignment, args.ranks)
        result = lb.rebalance(dist, rng=rng)
        assignment = result.assignment
        print(
            f"phase {phase}: I {result.initial_imbalance:8.3f} -> "
            f"{result.final_imbalance:6.3f}  migrations {result.n_migrations}"
        )
    print()
    print(registry.summary())
    if args.json:
        save_stats(registry, args.json)
    if args.csv:
        stats_to_csv(registry, args.csv)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.io import save_json

    if args.suite == "faults":
        from repro.perf import format_fault_report, run_fault_bench

        payload = run_fault_bench(
            quick=args.quick, seed=args.seed, fault_seed=args.fault_seed
        )
        print(format_fault_report(payload))
        out = args.json if args.json is not None else "BENCH_faults.json"
    else:
        from repro.perf import format_report, run_benchmarks

        payload = run_benchmarks(
            quick=args.quick,
            repeats=args.repeats,
            seed=args.seed,
            workers=args.workers,
            scale=args.scale,
            profile=args.profile,
        )
        print(format_report(payload))
        # Profile listings go to files, not the committed JSON: they are
        # host-specific flat text, useful next to the run that made them.
        profiles = payload.pop("profiles", {})
        for path in write_profiles(profiles):
            print(f"[profile: {path}]")
        out = args.json if args.json is not None else "BENCH_perf.json"
    if out and out != "-":
        save_json(payload, out)
        print(f"\n[saved to {out}]")
    return 0


def write_profiles(
    profiles: dict[str, str], outdir: "str | None" = None
) -> list:
    """Write per-case profile listings atomically under ``outdir``.

    Each file lands via a same-directory temp name and ``os.replace`` so
    a crash (or a case whose profile text errored upstream) never leaves
    a truncated ``profile_<case>.txt`` behind. Returns the paths written.
    """
    import os
    from pathlib import Path

    if not profiles:
        return []
    out = Path(outdir) if outdir is not None else Path("benchmarks/results")
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for case, text in sorted(profiles.items()):
        path = out / f"profile_{case}.txt"
        tmp = out / f".profile_{case}.txt.tmp"
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        written.append(path)
    return written


def _cmd_net(args: argparse.Namespace) -> int:
    from repro.net import (
        EpisodeSpec,
        NetOptions,
        WorkerFailed,
        run_episode_net,
        run_episode_sim,
        save_result,
    )
    from repro.net.analyze import analyze_episode, format_report

    if args.net_command == "analyze":
        report = analyze_episode(args.dir)
        print(format_report(report))
        if args.json:
            from repro.analysis.io import save_json

            save_json(report, args.json)
        return 0 if report.get("consistent", True) else 1

    from pathlib import Path

    from repro.util.validation import check_nonnegative

    check_nonnegative("--processes", args.processes)
    if args.processes > 0 and args.workers is not None:
        raise ValueError("--workers and --processes both set the worker count; pass one")
    outdir = Path(args.out)
    log_dir = None if args.no_logs else str(outdir / "logs")
    options = NetOptions(
        workers=args.processes or (1 if args.workers is None else args.workers),
        processes=args.processes > 0,
        log_dir=log_dir,
        timeout=args.timeout,
    )
    spec = EpisodeSpec.synthetic(
        args.ranks,
        n_tasks=args.tasks,
        n_loaded_ranks=args.loaded_ranks,
        seed=args.seed,
        fanout=args.fanout,
        rounds=args.rounds,
        n_iters=args.iters,
    )
    transport: list[dict] = []
    try:
        result = run_episode_net(spec, options, transport)
    except WorkerFailed as exc:
        print(f"net episode failed: {exc}", file=sys.stderr)
        return 1
    save_result(outdir / "result.json", spec, result, options)
    mode = (
        f"{args.processes} OS processes" if options.processes
        else f"{options.workers} in-process workers"
    )
    wire = {
        key: sum(row[key] for row in transport)
        for key in ("frames", "wire_bytes", "envelope_bytes", "retries", "deduped",
                    "control_frames", "control_bytes", "core_s")
    }
    print(
        f"net episode: {spec.n_ranks} ranks over loopback TCP ({mode})\n"
        f"  gossip: {result.n_messages} messages in "
        f"{len(result.per_round_messages)} rounds, "
        f"coverage {result.coverage:.4f}\n"
        f"  transfers: {len(result.moves)} moves\n"
        f"  wire: {wire['frames']} batch frames, {wire['wire_bytes']} bytes "
        f"({wire['envelope_bytes']} envelope), control: {wire['control_frames']} "
        f"frames, {wire['control_bytes']} bytes, retries={wire['retries']} "
        f"deduped={wire['deduped']} core_s={wire['core_s']:.3f}\n"
        f"  imbalance: {result.initial_imbalance:.4f} -> "
        f"{result.final_imbalance:.4f}\n"
        f"  artifacts: {outdir / 'result.json'}"
        + (f", {log_dir}/" if log_dir else "")
    )
    if args.check:
        reference = run_episode_sim(spec)
        if reference.to_dict() != result.to_dict():
            print("bit-identity: FAILED — net result diverges from simulator")
            return 1
        print("bit-identity: net == sim (field-for-field)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
