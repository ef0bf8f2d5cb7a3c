"""Synthetic workload generators.

:mod:`repro.workloads.synthetic` builds static distributions, including
the exact § V-B analysis scenario (10^4 tasks concentrated on 2^4 of
2^12 ranks). :mod:`repro.workloads.timevarying` provides per-step load
evolutions with controllable imbalance dynamics, used to exercise the
principle of persistence.
"""

from repro.workloads.synthetic import (
    paper_analysis_scenario,
    random_distribution,
    skewed_distribution,
)
from repro.workloads.timevarying import MovingHotspot, PersistenceNoise

__all__ = [
    "MovingHotspot",
    "PersistenceNoise",
    "paper_analysis_scenario",
    "random_distribution",
    "skewed_distribution",
]
