"""Experiment harness — the role LBAF plays in the paper.

:mod:`repro.analysis.experiment` runs criterion studies and
returns per-iteration tables; :mod:`repro.analysis.tables` renders them
in the paper's format; :mod:`repro.analysis.series` collects the
per-timestep series behind Fig. 4.
"""

from repro.analysis.experiment import (
    CriterionStudy,
    criterion_comparison,
    criterion_study,
)
from repro.analysis.io import (
    load_json,
    load_stats,
    save_json,
    save_stats,
    stats_to_csv,
)
from repro.analysis.plot import histogram, sparkline, strip_chart
from repro.analysis.report import lb_report
from repro.analysis.runner import SweepSpec, run_sweep
from repro.analysis.series import PhaseSeries
from repro.analysis.tables import (
    format_comparison_table,
    format_iteration_table,
    format_rows,
)

__all__ = [
    "CriterionStudy",
    "PhaseSeries",
    "criterion_comparison",
    "criterion_study",
    "format_comparison_table",
    "format_iteration_table",
    "format_rows",
    "histogram",
    "lb_report",
    "sparkline",
    "strip_chart",
    "load_json",
    "load_stats",
    "save_json",
    "save_stats",
    "stats_to_csv",
    "SweepSpec",
    "run_sweep",
]
