"""Performance harness: what the ``benchmarks/e2e`` workloads do not measure.

``repro bench`` (see :mod:`repro.cli`) runs :func:`run_benchmarks` and
writes ``BENCH_perf.json``: the serial-vs-parallel refinement race and,
with ``--scale``, the rank-count ladder (4k / 32k / 131k) with its
store race, stage walls and per-rung peak RSS. The § V-scale stage
timings are ``benchmarks/e2e``'s. ``repro bench faults`` runs
:func:`run_fault_bench` and writes ``BENCH_faults.json``, the
imbalance-degradation-vs-loss table. See ``docs/performance.md`` and
``docs/fault_tolerance.md``.
"""

from repro.perf.bench import (
    SCALE_RSS_BUDGET_MB,
    SCALE_RUNGS,
    format_report,
    run_benchmarks,
    run_scale_ladder,
)
from repro.perf.faults import format_fault_report, run_fault_bench

__all__ = [
    "SCALE_RSS_BUDGET_MB",
    "SCALE_RUNGS",
    "format_report",
    "run_benchmarks",
    "run_scale_ladder",
    "format_fault_report",
    "run_fault_bench",
]
