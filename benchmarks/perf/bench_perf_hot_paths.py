"""Perf bench — the repo's perf trajectory artifact.

Runs the same harness as ``repro bench`` (quick scale plus the 4k
ladder rung, so it fits the benchmark suite's budget), prints the
report and persists it to ``benchmarks/results/perf_hot_paths.txt``;
``repro bench --scale all`` without ``--quick`` produces the committed
full-scale figures.

Quick-scale ratios are printed and persisted, not floor-gated: at this
size the serial refinement a pool races is ~0.1 s — less than pool
start-up — so ``refinement_parallel_vs_serial`` measures the machine,
not the code (0.63 on the 2-vCPU reference box). The § V-scale stage
timings are ``benchmarks/e2e``'s (``phase_4k``), and the races whose
outcome is decided are retired; their committed ratios live on in
``BENCH_perf.json`` and ``docs/performance.md``. What is asserted here
is the count-exact ``f x |senders|`` message model on both stores of
the 4k rung and the committed full-scale ladder's floors.
"""

import json
import pathlib

from repro.perf import SCALE_RSS_BUDGET_MB, format_report, run_benchmarks

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def run_hot_paths():
    return run_benchmarks(quick=True, repeats=3, seed=0, scale="4k")


def test_perf_hot_paths(benchmark, artifact):
    payload = benchmark.pedantic(run_hot_paths, rounds=1, iterations=1)
    artifact("perf_hot_paths", format_report(payload))
    assert payload["speedups"]["refinement_parallel_vs_serial"] > 0
    (rung,) = payload["scale_ladder"]
    assert rung["message_model_exact"] == {"packed": True, "sparse": True}


def test_committed_bench_scale_ladder_floors(benchmark):
    """Floor-assert the committed ``BENCH_perf.json`` rank-count ladder.

    The artifact is regenerated with ``repro bench --scale all``; this
    check keeps a regenerated file honest without re-running the heavy
    rungs: every recorded ``speedups.*`` must clear 1.0 (no fast path
    may ship slower than its reference), the ladder speedup proving
    ``knowledge="auto"`` picks the winning backend must be present at
    both raced rungs, and each rung — 131k included, which only the
    committed artifact covers (CI stops at 32k) — must have stayed
    inside its peak-RSS budget, 8 GiB at 131,072 ranks / 2M tasks.
    """
    payload = benchmark.pedantic(
        lambda: json.loads((REPO_ROOT / "BENCH_perf.json").read_text()),
        rounds=1,
        iterations=1,
    )
    for name, value in payload["speedups"].items():
        assert value >= 1.0, f"speedups.{name} = {value:.2f} regressed below 1.0"
    for rung in ("4k", "32k"):
        assert f"inform_backend_auto_vs_alt_{rung}" in payload["speedups"], rung
    ladder = {r["scale"]: r for r in payload["scale_ladder"]}
    assert set(ladder) == set(SCALE_RSS_BUDGET_MB)
    for name, rung in ladder.items():
        budget = SCALE_RSS_BUDGET_MB[name]
        assert rung["peak_rss_mb"] < budget, (
            f"rung {name}: peak RSS {rung['peak_rss_mb']:.0f} MB "
            f"over the {budget} MB budget"
        )
        # Every rung must carry its full-episode refinement case with
        # stage walls — the whole-loop timing the ladder now headlines.
        episode = rung["refinement"]
        assert episode["seconds"] > 0, name
        assert episode["stage_walls"]["wall.inform"] > 0, name
        assert episode["stage_walls"]["wall.transfer"] > 0, name
    assert ladder["131k"]["n_ranks"] == 131_072
    assert ladder["131k"]["n_tasks"] >= 2_000_000
