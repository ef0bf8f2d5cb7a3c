"""Event-level protocol costs — the microscope behind t_lb.

Measures, inside the discrete-event runtime, the simulated cost of the
protocols a distributed LB episode is made of: the statistics
all-reduce, the asynchronous gossip with termination detection, and a
migration episode. Demonstrates the O(log P) reduction depth and the
lightweight gossip cost the paper's scalability argument rests on.
"""

import numpy as np

from repro.analysis import format_rows
from repro.runtime.lbmanager import event_inform_stage
from repro.runtime.migration import migrate_tasks
from repro.sim.process import System
from repro.sim.reductions import allreduce

SCALES = [16, 64, 256]


def measure_protocols():
    rows = []
    for n_ranks in SCALES:
        # all-reduce completion time
        sys_ = System(n_ranks)
        times = {}
        allreduce(
            sys_,
            [1.0] * n_ranks,
            combine=lambda a, b: a + b,
            on_complete=lambda rank, v: times.__setitem__(rank, sys_.engine.now),
        )
        sys_.run()
        reduce_time = max(times.values())

        # gossip to quiescence
        sys_ = System(n_ranks)
        loads = np.ones(n_ranks)
        loads[: max(2, n_ranks // 16)] = 20.0
        gossip, gossip_elapsed = event_inform_stage(sys_, loads, fanout=4, rounds=6)

        # migration: one task per hot rank to a random cold rank
        sys_ = System(n_ranks)
        rng = np.random.default_rng(0)
        task_loads = rng.random(n_ranks)
        moves = [
            (t, t % 4, int(rng.integers(4, n_ranks))) for t in range(n_ranks)
        ]
        migration = migrate_tasks(sys_, moves, task_loads, bytes_per_unit_load=1e6)

        rows.append(
            {
                "P": n_ranks,
                "allreduce (us)": reduce_time * 1e6,
                "gossip (us)": gossip_elapsed * 1e6,
                "gossip msgs": gossip.n_messages,
                "coverage": gossip.coverage(),
                "migration (ms)": migration.duration * 1e3,
            }
        )
    return rows


def test_runtime_protocol_costs(benchmark, artifact):
    rows = benchmark.pedantic(measure_protocols, rounds=1, iterations=1)
    table = format_rows(
        rows,
        ["P", "allreduce (us)", "gossip (us)", "gossip msgs", "coverage", "migration (ms)"],
        title="Event-level protocol costs vs rank count (simulated)",
    )
    artifact("runtime_protocols", table)

    by_p = {r["P"]: r for r in rows}
    # Logarithmic all-reduce: 16x the ranks is nowhere near 16x the time.
    assert by_p[256]["allreduce (us)"] < 4 * by_p[16]["allreduce (us)"]
    # Gossip message count grows ~linearly in P (coalesced forwarding).
    assert by_p[256]["gossip msgs"] < 40 * by_p[16]["gossip msgs"]
    # Everything is sub-second — the "t_lb is negligible" ingredient.
    for row in rows:
        assert row["migration (ms)"] < 1000
