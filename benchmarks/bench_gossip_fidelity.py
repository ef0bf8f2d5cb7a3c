"""Gossip fidelity — phase-level rounds vs event-level asynchrony.

The phase-level inform stage (synchronous rounds, zero time) is the
fast path used by the analysis tables; the event-level implementation
(timestamped messages, no barriers, Safra termination) is the faithful
one. This bench runs both at identical (f, k) across scales and checks
they agree on what matters: knowledge coverage and message volume — the
calibration evidence for DESIGN.md § 5's two-fidelity substitution.
"""

import numpy as np

from repro.analysis import format_rows
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.runtime.lbmanager import event_inform_stage
from repro.sim.process import System

SCALES = [32, 128, 512]
FANOUT, ROUNDS = 4, 6


def run_compare():
    rows = []
    for n_ranks in SCALES:
        loads = np.ones(n_ranks)
        loads[: max(2, n_ranks // 16)] = 25.0
        phase = run_inform_stage(loads, GossipConfig(fanout=FANOUT, rounds=ROUNDS), rng=0)
        sys_ = System(n_ranks)
        event, event_elapsed = event_inform_stage(sys_, loads, fanout=FANOUT, rounds=ROUNDS)
        rows.append(
            {
                "P": n_ranks,
                "phase coverage": phase.coverage(),
                "event coverage": event.coverage(),
                "phase msgs": phase.n_messages,
                "event msgs": event.n_messages,
                "event time (us)": event_elapsed * 1e6,
            }
        )
    return rows


def test_gossip_fidelity(benchmark, artifact):
    rows = benchmark.pedantic(run_compare, rounds=1, iterations=1)
    table = format_rows(
        rows,
        ["P", "phase coverage", "event coverage", "phase msgs", "event msgs", "event time (us)"],
        title=f"Inform stage: synchronous-round vs asynchronous event level (f={FANOUT}, k={ROUNDS})",
    )
    artifact("gossip_fidelity", table)

    for row in rows:
        # Both implementations reach the same coverage class...
        assert abs(row["phase coverage"] - row["event coverage"]) < 0.25
        # ...with message volumes within a factor of ~2.5 of each other
        # (per-(rank, round) coalescing vs per-round coalescing).
        ratio = row["event msgs"] / max(row["phase msgs"], 1)
        assert 0.4 < ratio < 2.5
        # And the asynchronous stage quiesces in sub-millisecond
        # simulated time — the "gossip is cheap" premise.
        assert row["event time (us)"] < 2000