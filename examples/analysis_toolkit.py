#!/usr/bin/env python3
"""Tour of the analysis toolkit: reports, tables, plots.

Drifts a load hotspot over the task ring, measures its phase-to-phase
persistence, balances one phase and prints the full LB diagnostic
report, then balances every phase of the drift under three strategies
and renders the resulting imbalance as a table and a strip chart.

Run:  python examples/analysis_toolkit.py
"""

import numpy as np

from repro.analysis import format_rows, lb_report, strip_chart
from repro.core.distribution import Distribution
from repro.core.registry import make_balancer
from repro.workloads import MovingHotspot

N_TASKS, N_RANKS, N_PHASES = 256, 16, 24

STRATEGIES = {
    "tempered": {"n_trials": 1, "n_iters": 5, "fanout": 4, "rounds": 5},
    "greedy": {},
    "grapevine": {"n_iters": 5},
}


def main() -> None:
    hotspot = MovingHotspot(N_TASKS, base=0.5, amplitude=10.0, sigma=0.05, speed=0.01)
    persistence = np.mean([hotspot.persistence(t) for t in range(N_PHASES - 1)])
    print(f"moving hotspot: {N_PHASES} phases x {N_TASKS} tasks, "
          f"mean persistence {persistence:.3f}\n")

    # Every phase starts from the same block placement of tasks on ranks.
    block = (np.arange(N_TASKS) * N_RANKS // N_TASKS).astype(np.int64)
    phases = [Distribution(hotspot.loads(t), block, N_RANKS) for t in range(N_PHASES)]

    # One balancing decision, dissected with the "+LBDebug"-style report.
    lb = make_balancer("tempered", **STRATEGIES["tempered"])
    result = lb.rebalance(phases[0], rng=np.random.default_rng(0))
    print(lb_report(phases[0], result))

    # Balance each phase of the drift under three strategies.
    initial = np.mean([dist.imbalance() for dist in phases])
    print(f"\nbalancing every phase from the block placement (mean I = {initial:.2f}):")
    series = {}
    rows = []
    for name, kwargs in STRATEGIES.items():
        balancer = make_balancer(name, **kwargs)
        rng = np.random.default_rng(0)
        results = [balancer.rebalance(dist, rng=rng) for dist in phases]
        series[name] = [r.final_imbalance for r in results]
        rows.append(
            {
                "strategy": name,
                "mean final I": float(np.mean(series[name])),
                "mean migrations": float(np.mean([r.n_migrations for r in results])),
            }
        )
    print(format_rows(rows, ["strategy", "mean final I", "mean migrations"]))
    print()
    print(strip_chart(series, width=60, height=10))


if __name__ == "__main__":
    main()
