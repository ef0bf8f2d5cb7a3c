"""Stress tests: random message storms with tracing invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.process import System
from repro.sim.termination import SafraDetector
from repro.sim.trace import Tracer


@given(
    n_ranks=st.integers(min_value=2, max_value=10),
    n_seeds=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=25, deadline=None)
def test_storm_invariants(n_ranks, n_seeds, depth, seed):
    """Under a random storm: utilization stays in [0, 1], the traced
    communication matrix matches the system's byte counter, and the
    detector still fires exactly once."""
    rng = np.random.default_rng(seed)
    sys_ = System(n_ranks)
    tracer = Tracer(sys_)

    def handler(proc, msg):
        proc.compute(float(rng.random()) * 1e-3)
        if msg.payload > 0:
            for _ in range(int(rng.integers(0, 3))):
                proc.send(
                    int(rng.integers(0, n_ranks)),
                    "storm",
                    payload=msg.payload - 1,
                    size=int(rng.integers(16, 4096)),
                )

    for p in sys_.processes:
        p.register("storm", handler)
    detected = []
    det = SafraDetector(sys_, on_terminate=detected.append)
    for _ in range(n_seeds):
        sys_.processes[0].send(int(rng.integers(0, n_ranks)), "storm", payload=depth)
    det.start()
    sys_.run()

    assert len(detected) == 1
    util = tracer.utilization()
    assert (util >= 0).all() and (util <= 1.0 + 1e-12).all()
    # The tracer sees only application bytes (control traffic — the
    # token ring — is excluded by default).
    app_bytes = sum(r.size for r in tracer.sends)
    assert app_bytes <= sys_.bytes_sent  # control traffic on top
    # Busy time equals what the processes accumulated.
    busy = [sum(end - start for start, end in iv) for iv in tracer.busy]
    np.testing.assert_allclose(busy, [p.compute_time for p in sys_.processes], rtol=1e-9)
