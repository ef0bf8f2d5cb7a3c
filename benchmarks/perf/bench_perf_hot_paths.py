"""Hot-path microbenchmarks — the repo's perf trajectory artifact.

Runs the same harness as ``repro bench`` (quick scale, so it fits the
benchmark suite's budget), prints the report and persists it to
``benchmarks/results/perf_hot_paths.txt``. The headline numbers are the
transfer-stage speedup of incremental CMF maintenance over the
pre-optimization full-rebuild path (floor 3x at full scale) and the
refinement speedup of process-backed parallel trials over the serial
trial loop (floor 2x at full scale with 4 workers — *on hardware with
the cores to match*); ``repro bench`` without ``--quick`` produces the
full-scale figures.

Every ``speedups.*`` entry is floor-asserted here: a fast path that
regresses below its reference can no longer land silently. The
refinement floor is the one entry that needs hardware to exist — a
process pool cannot beat serial on a single-core host, where the
executor's job is merely to not lose — so that assert is conditional
on ``effective_cpu_count() >= 2`` (true on CI runners).
"""

import json
import pathlib

from repro.perf import SCALE_RSS_BUDGET_MB, format_report, run_benchmarks
from repro.util.parallel import effective_cpu_count

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def run_hot_paths():
    return run_benchmarks(quick=True, repeats=3, seed=0)


def test_perf_hot_paths(benchmark, artifact):
    payload = benchmark.pedantic(run_hot_paths, rounds=1, iterations=1)
    artifact("perf_hot_paths", format_report(payload))
    # Informational floor: even at quick scale the fast path should
    # beat its reference clearly; the 3x acceptance bar applies to the
    # full § V scale where the reference is 8x larger.
    assert payload["speedups"]["transfer_incremental_vs_rebuild"] > 1.5
    if effective_cpu_count() >= 2:
        # Parallel trials must beat the serial loop wherever a second
        # core exists.
        assert payload["speedups"]["refinement_parallel_vs_serial"] > 1.0
    for bench in payload["benchmarks"]:
        if bench["name"].startswith("inform/"):
            assert bench["message_model_exact"], bench["name"]


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
    # The fused sparse inform driver vs the pure-Python reference at
    # 32k ranks — the compiled-kernel milestone's acceptance floor.
    assert payload["speedups"]["inform_sparse_kernel_vs_python"] >= 1.5, (
        "fused sparse driver lost its >= 1.5x edge over the reference"
    )
    ladder = {r["scale"]: r for r in payload["scale_ladder"]}
    assert set(ladder) == set(SCALE_RSS_BUDGET_MB)
    for name, rung in ladder.items():
        budget = SCALE_RSS_BUDGET_MB[name]
        assert rung["peak_rss_mb"] < budget, (
            f"rung {name}: peak RSS {rung['peak_rss_mb']:.0f} MB "
            f"over the {budget} MB budget"
        )
        assert rung["kernel_equivalent"], name
        # Every rung must carry its full-episode refinement case with
        # stage walls — the whole-loop timing the ladder now headlines.
        episode = rung["refinement"]
        assert episode["seconds"] > 0, name
        assert episode["stage_walls"]["wall.inform"] > 0, name
        assert episode["stage_walls"]["wall.transfer"] > 0, name
    assert ladder["131k"]["n_ranks"] == 131_072
    assert ladder["131k"]["n_tasks"] >= 2_000_000
