"""Property-based invariants for the HierLB baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import Distribution
from repro.core.hier import HierLB

loads_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
    min_size=2,
    max_size=60,
)


def make_dist(loads, n_ranks, seed):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n_ranks, size=len(loads))
    return Distribution(np.asarray(loads), assignment, n_ranks)


@given(
    loads=loads_strategy,
    n_ranks=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_hier_never_worse_and_conserves(loads, n_ranks, seed):
    dist = make_dist(loads, n_ranks, seed)
    res = HierLB(branching=2).rebalance(dist)
    after = np.bincount(res.assignment, weights=dist.task_loads, minlength=n_ranks)
    assert after.sum() == pytest.approx(dist.total_load)
    assert after.max() <= dist.rank_loads().max() + 1e-9
