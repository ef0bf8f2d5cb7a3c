"""Smoke test of the benchmark harness itself.

Run explicitly — ``python -m pytest benchmarks/e2e/test_e2e_smoke.py`` —
it is not in tier-1's ``testpaths``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from run import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def quick_reports() -> dict[tuple[str, int], dict]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 60.0, f"--quick took {elapsed:.1f} s"
    reports = {}
    for workload in WORKLOADS:
        for trace, stem in ((0, "run"), (1, "layers")):
            path = harness.RESULTS / f"{stem}_{workload}.json"
            reports[workload, trace] = json.loads(path.read_text(encoding="utf-8"))
            assert reports[workload, trace]["quick"] is True
    return reports


def test_every_end_to_end_metric_is_finite_and_nothing_failed(quick_reports):
    for workload in WORKLOADS:
        values = quick_reports[workload, 0]["values"]
        for name in (*harness.END_TO_END, "final_imbalance", "failed_frac"):
            assert math.isfinite(values[name]), (workload, name)
        assert values["failed_frac"] == 0
        assert quick_reports[workload, 0]["attempted"] == 2
        assert quick_reports[workload, 1]["failures"] == []


def test_every_layer_metric_is_measured_by_some_workload(quick_reports):
    measured: dict[str, float] = {}
    for workload in WORKLOADS:
        measured.update(quick_reports[workload, 1]["values"])
    assert set(measured) == set(harness.PER_LAYER)
    assert all(math.isfinite(value) for value in measured.values())
    for workload in WORKLOADS:
        assert "obs.trace_overhead_frac" in quick_reports[workload, 1]["values"]


def test_fingerprint_names_machine_and_backend(quick_reports):
    report = quick_reports["phase_8k_capped", 0]
    assert {"commit", "effective_cpu_count", "numba", "python", "numpy", "threads", "seed"} <= set(
        report["fingerprint"]
    )
    assert report["fingerprint"]["threads"]["OMP_NUM_THREADS"] == "1"
    assert report["meta"]["knowledge_backend"] == "sparse"
    assert report["meta"]["auto_threshold"] > 0


def test_checker_reports_a_corrupted_assignment():
    loads = np.array([1.0, 2.0, 3.0, 4.0])
    before = np.array([0, 0, 0, 0])
    balanced = np.array([0, 1, 2, 3])
    assert harness.check_assignment(loads, before, balanced, 4)[0] == []
    out_of_range = np.array([0, 1, 2, 4])
    assert harness.check_assignment(loads, before, out_of_range, 4)[0]
    dropped_task = np.array([0, 1, 2])
    assert harness.check_assignment(loads, before, dropped_task, 4)[0]
    worse = np.array([0, 1, 2, 3])
    assert harness.check_assignment(loads, worse, before, 4)[0]
    assert harness.check_unmutated("task_loads", loads, loads * 2.0)
