"""Imbalance metrics (paper § III-C) and load statistics.

The central quantity is Eq. (1) of the paper::

    I = l_max / l_ave - 1

and the objective function the algorithms minimize (§ V-B)::

    F(D) = I_D - h + 1 = l_max / l_ave - h
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "imbalance",
    "objective",
    "LoadStatistics",
    "load_statistics",
    "lower_bound_max_load",
    "sigma_imbalance",
    "gini",
]


def imbalance(rank_loads: np.ndarray) -> float:
    """Eq. (1): ``max/mean - 1`` of per-rank loads; 0 for an empty system."""
    loads = np.asarray(rank_loads, dtype=np.float64)
    if loads.size == 0:
        return 0.0
    ave = loads.mean()
    if ave == 0.0:
        return 0.0
    return float(loads.max() / ave - 1.0)


def objective(rank_loads: np.ndarray, h: float = 1.0) -> float:
    """Objective ``F(D) = l_max/l_ave - h`` minimized by the transfer stage.

    ``F(D) >= 0`` is the paper's *sufficient* stopping criterion; the relaxed
    criterion of § V-C guarantees F decreases monotonically while any
    admissible transfer exists.
    """
    loads = np.asarray(rank_loads, dtype=np.float64)
    if loads.size == 0:
        return -h
    ave = loads.mean()
    if ave == 0.0:
        return -h
    return float(loads.max() / ave - h)


def lower_bound_max_load(rank_loads: np.ndarray, task_loads: np.ndarray) -> float:
    """Fig. 4b's "Lower bound (max)": ``max(l_ave, max task load)``.

    No assignment can have a maximum rank load below the average rank load,
    nor below the load of the single heaviest (unsplittable) task.
    """
    loads = np.asarray(rank_loads, dtype=np.float64)
    tasks = np.asarray(task_loads, dtype=np.float64)
    ave = loads.mean() if loads.size else 0.0
    heaviest = tasks.max() if tasks.size else 0.0
    return float(max(ave, heaviest))


def sigma_imbalance(rank_loads: np.ndarray) -> float:
    """Coefficient of variation ``std/mean`` — the secondary imbalance
    measure common in the LB literature. Unlike Eq. (1) it reacts to the
    whole distribution, not just the maximum."""
    loads = np.asarray(rank_loads, dtype=np.float64)
    if loads.size == 0:
        return 0.0
    mean = loads.mean()
    if mean == 0.0:
        return 0.0
    return float(loads.std() / mean)


def gini(rank_loads: np.ndarray) -> float:
    """Gini coefficient of the per-rank loads in [0, 1).

    0 = perfectly even; approaching 1 = all load on one rank. A
    scale-free summary useful for comparing runs with growing totals
    (the Fig. 4c situation, where I falls simply because the average
    rises)."""
    loads = np.sort(np.asarray(rank_loads, dtype=np.float64))
    n = loads.size
    if n == 0:
        return 0.0
    total = loads.sum()
    if total == 0.0:
        return 0.0
    # G = (2 * sum(i * x_i) / (n * sum(x)) ) - (n + 1) / n, i from 1.
    weighted = np.arange(1, n + 1) @ loads
    return float(2.0 * weighted / (n * total) - (n + 1.0) / n)


@dataclass(frozen=True)
class LoadStatistics:
    """Constant-size per-phase statistics exchanged by the initial all-reduce."""

    n_ranks: int
    total: float
    average: float
    maximum: float
    minimum: float
    stddev: float
    imbalance: float

    def __post_init__(self) -> None:
        if self.n_ranks < 0:
            raise ValueError("n_ranks must be non-negative")


def load_statistics(rank_loads: np.ndarray) -> LoadStatistics:
    """Compute the statistics the gossip protocol's all-reduce collects."""
    loads = np.asarray(rank_loads, dtype=np.float64)
    if loads.size == 0:
        return LoadStatistics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return LoadStatistics(
        n_ranks=int(loads.size),
        total=float(loads.sum()),
        average=float(loads.mean()),
        maximum=float(loads.max()),
        minimum=float(loads.min()),
        stddev=float(loads.std()),
        imbalance=imbalance(loads),
    )
