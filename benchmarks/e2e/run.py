"""The repo benchmark: six LB workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                 # all six, then the traced pass
    python3 benchmarks/e2e/run.py --selfcheck     # two sets, A/A agreement table
    python3 benchmarks/e2e/run.py --quick         # small sizes, N=2 (smoke test)
    python3 benchmarks/e2e/run.py --workload phase_4k --seed 3 --seconds 16 --trace 0

The last form is the one ``BENCHMARK.json`` declares: one workload, in a
fresh subprocess, ending in one JSON result line. See README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # import cost is part of setup_s

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORKLOADS = (
    "phase_4k",
    "phase_8k_capped",
    "transfer_256_dense",
    "empire_400",
    "runtime_256",
    "net_64",
)
#: A child that outlives this is killed; the driver allows a run 180 s.
CHILD_TIMEOUT_S = 170.0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0, help="seed the op seeds derive from")
    parser.add_argument("--seconds", type=float, default=None, help="op budget; N = seconds / nominal s/op")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="1: the per-layer run")
    parser.add_argument("--quick", action="store_true", help="small sizes (<= 512 ranks), N=2")
    parser.add_argument("--selfcheck", action="store_true", help="run the set twice and compare")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = 0.0 if args.quick else float(contract["run_seconds"])
    return args


# -- the child: one workload, one run ----------------------------------------


def import_harness() -> Any:
    """The harness imports numpy and the program; only who needs it pays."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness

    return harness


def child(args: argparse.Namespace) -> int:
    harness = import_harness()
    from wl_empire import EmpireWorkload
    from wl_net import NetWorkload
    from wl_phase import phase_workloads
    from wl_runtime import RuntimeWorkload

    workloads = [
        *phase_workloads(args.quick),
        EmpireWorkload(args.quick),
        RuntimeWorkload(args.quick),
        NetWorkload(args.quick),
    ]
    workload = next(w for w in workloads if w.name == args.workload)
    import_s = time.perf_counter() - START

    if args.trace:
        report = harness.run_traced(workload, args.seed)
        declared = harness.PER_LAYER
    else:
        report = harness.run_untraced(workload, args.seed, args.seconds, import_s)
        declared = harness.END_TO_END
    report.update(
        workload=workload.name,
        trace=int(bool(args.trace)),
        quick=args.quick,
        meta=workload.meta,
        fingerprint=harness.fingerprint(args.seed),
    )
    RESULTS.mkdir(exist_ok=True)
    report_path(workload.name, args.trace).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"== {workload.name}  trace={report['trace']}  seed={args.seed}  "
          f"ops={report['attempted']}  failed={report['failed']}  samples={report['samples']}")
    print(f"   {json.dumps({**report['meta'], **report['fingerprint']}, sort_keys=True)}")
    for name, value in report["values"].items():
        unit = declared.get(name, {}).get("unit", "-")
        line = f"   {name:<34} {value:>16.6g} {unit:<6}"
        if name in report["quartiles"]:
            q1, _, q3 = report["quartiles"][name]
            stat = "mean" if name in harness.EXACT else "median"
            line += f" {stat} of {report['samples']}, quartiles [{q1:.6g}, {q3:.6g}]"
        print(line)
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")
    result = {
        "correct": report["failed"] == 0 and not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        # A layer this workload does not exercise reads 0.
        "metrics": harness.contract_metrics(report["values"], declared, 0.0 if args.trace else None),
    }
    print(json.dumps(result))
    return 0


def report_path(workload: str, trace: int | None) -> Path:
    return RESULTS / f"{'layers' if trace else 'run'}_{workload}.json"


# -- the parent: spawn, collect, compare -------------------------------------


def spawn(args: argparse.Namespace, workload: str, trace: int) -> dict[str, Any]:
    """Run one workload in a fresh subprocess; returns its full report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # run() kills the child on timeout and waits for it before raising.
    subprocess.run(command, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(report_path(workload, trace).read_text(encoding="utf-8"))


def run_set(args: argparse.Namespace, trace: int) -> dict[str, dict[str, Any]]:
    return {name: spawn(args, name, trace) for name in WORKLOADS}


def measure_set(args: argparse.Namespace) -> dict[str, dict[str, float]]:
    """One full set: every workload's end-to-end and per-layer values."""
    untraced, traced = run_set(args, 0), run_set(args, 1)
    return {w: {**untraced[w]["values"], **traced[w]["values"]} for w in WORKLOADS}


def print_table(title: str, reports: dict[str, dict[str, Any]]) -> None:
    names = list(dict.fromkeys(n for r in reports.values() for n in r["values"]))
    print(f"\n{title}")
    print(f"{'metric':<34}" + "".join(f"{w:>20}" for w in reports))
    for name in names:
        cells = (r["values"].get(name) for r in reports.values())
        print(f"{name:<34}" + "".join(f"{'-' if c is None else format(c, '.6g'):>20}" for c in cells))


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code must agree: end-to-end metrics
    within their bounds, quality metrics and layer counts exactly."""
    harness = import_harness()
    bounds = {name: m["bound"] for name, m in harness.END_TO_END.items()}
    bounds.update({name: 0.0 for name in harness.EXACT})
    # Counts made by the program repeat; the fd peak is sampled on a clock.
    bounds.update({
        name: 0.0 for name, m in harness.PER_LAYER.items()
        if m["unit"] in ("count", "bytes") and name != "net.fds_peak"
    })
    first, second = measure_set(args), measure_set(args)
    rows, ok = [], True
    print(f"\n{'workload':<20}{'metric':<28}{'first':>14}{'second':>14}{'rel.diff':>10}{'bound':>8}")
    for workload in WORKLOADS:
        for name, bound in bounds.items():
            if name not in first[workload]:
                continue  # a layer this workload does not exercise
            a, b = first[workload][name], second[workload][name]
            diff = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            agrees = diff <= bound
            ok &= agrees
            rows.append(dict(workload=workload, metric=name, first=a, second=b,
                             rel_diff=diff, bound=bound, agrees=agrees))
            print(f"{workload:<20}{name:<28}{a:>14.6g}{b:>14.6g}{diff:>10.4f}{bound:>8.2f}"
                  f"{'' if agrees else '  DISAGREES'}")
    fingerprint = json.loads(report_path(WORKLOADS[0], 0).read_text(encoding="utf-8"))["fingerprint"]
    table = {"fingerprint": fingerprint, "agrees": ok, "rows": rows}
    (RESULTS / "selfcheck.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"\nselfcheck {'passed' if ok else 'FAILED'}; table in {RESULTS / 'selfcheck.json'}")
    return 0 if ok else 1


def main() -> int:
    args = parse_args()
    if args.child:
        return child(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck(args)
        if args.workload:
            spawn(args, args.workload, args.trace or 0)
            return 0
        untraced, traced = run_set(args, 0), run_set(args, 1)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print_table("end to end (tracing off; medians over N ops)", untraced)
    print_table("per layer (traced run)", traced)
    for workload, report in traced.items():
        for closure in ("core.refinement.stage_closure", "empire.closure"):
            share = report["values"].get(closure)
            if share is not None and share < 0.95:
                print(f"{workload}: {closure} = {share:.3f} < 0.95")
    failures = [f for r in (*untraced.values(), *traced.values()) for f in r["failures"]]
    print(f"\n{len(failures)} failed checks" + "".join(f"\n  {f}" for f in failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
