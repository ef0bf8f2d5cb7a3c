"""Property-based tests (hypothesis) for the paper's theoretical results.

Covers Lemma 1, Lemma 2, the CMF well-formedness conditions, the § V-E
ordering contracts, and the conservation invariants of every strategy.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Distribution, GreedyLB, HierLB, TemperedLB
from repro.core.cmf import CMF_MODIFIED, CMF_ORIGINAL, build_cmf, sample_cmf
from repro.core.criteria import original_criterion, relaxed_criterion
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.metrics import imbalance, objective
from repro.core.ordering import order_tasks
from repro.core.transfer import TransferConfig, transfer_stage

positive_loads = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


# ---------------------------------------------------------------------------
# Lemma 1 / Lemma 2
# ---------------------------------------------------------------------------


@given(
    l_i=st.floats(min_value=0.1, max_value=100),
    l_x_frac=st.floats(min_value=0.0, max_value=0.99),
    load_frac=st.floats(min_value=0.01, max_value=0.999),
)
def test_lemma1_pairwise_max_strictly_decreases(l_i, l_x_frac, load_frac):
    """An accepted relaxed-criterion transfer strictly lowers the pairwise max.

    This is the core inequality of Lemma 1's proof:
    ``max(l_i - l, l_x + l) < l_i`` whenever ``l < l_i - l_x``.
    """
    l_x = l_i * l_x_frac
    load = (l_i - l_x) * load_frac  # guarantees load < l_i - l_x
    assume(load > 0)
    assert relaxed_criterion(l_x, load, l_ave=1.0, l_p=l_i)
    new_max = max(l_i - load, l_x + load)
    assert new_max < l_i


@given(
    l_i=st.floats(min_value=0.1, max_value=100),
    l_x_frac=st.floats(min_value=0.0, max_value=1.0),
    excess=st.floats(min_value=0.0, max_value=50),
)
def test_lemma2_violating_transfer_never_helps(l_i, l_x_frac, excess):
    """Lemma 2: moving a task with load >= l_i - l_x off a maximally
    loaded rank cannot lower the maximum."""
    l_x = l_i * l_x_frac
    load = (l_i - l_x) + excess  # load >= l_i - l_x: criterion violated
    assume(load > 0)
    assert not relaxed_criterion(l_x, load, l_ave=1.0, l_p=l_i)
    new_max_pair = max(l_i - load, l_x + load)
    assert new_max_pair >= l_i - 1e-12


@given(loads=positive_loads, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_lemma1_objective_nonincreasing_through_full_stage(loads, seed):
    """Running a full relaxed-criterion transfer stage (shared view, so
    every acceptance sees true loads) never increases the objective F —
    at the end, and at every accepted transfer: replaying the stage's
    moves in order, each lowers the larger of its two ranks' loads
    strictly (Lemma 1) and never raises F.

    Lemma 1 is exact arithmetic. The stage evaluates ``l < l_p - l_x``
    in floats, so when the criterion's slack ``l_p - l_x - l`` is within
    rounding it can accept a zero-gain swap (``l_x + l == l_p``, e.g.
    loads ``[127.3410035802888, 1.3023723032349181, 1.3023723032349181]``
    at seed 195223); such a move must still not raise the pair's
    maximum beyond rounding."""
    task_loads = np.asarray(loads)
    n_ranks = 4
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n_ranks, size=task_loads.size)
    before = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    gossip = run_inform_stage(before, GossipConfig(fanout=2, rounds=3), rng=seed)
    stats = transfer_stage(
        assignment,
        task_loads,
        gossip,
        TransferConfig(view="shared", max_passes=None, cascade=True),
        rng=seed,
    )
    after = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    assert objective(after) <= objective(before) + 1e-9

    replay = before.copy()
    for task, src, dst in stats.moves:
        pair_max, f = max(replay[src], replay[dst]), objective(replay)
        slack = replay[src] - replay[dst] - task_loads[task]
        replay[src] -= task_loads[task]
        replay[dst] += task_loads[task]
        rounding = 1e-12 * pair_max
        if slack > rounding:
            assert max(replay[src], replay[dst]) < pair_max
        else:
            assert max(replay[src], replay[dst]) <= pair_max + rounding
        assert objective(replay) <= f + 1e-12
    np.testing.assert_allclose(replay, after, atol=1e-9 * after.sum())


# ---------------------------------------------------------------------------
# CMF properties
# ---------------------------------------------------------------------------


@given(
    loads=positive_loads,
    l_ave=st.floats(min_value=1e-2, max_value=1e3),
    variant=st.sampled_from([CMF_ORIGINAL, CMF_MODIFIED]),
)
def test_cmf_well_formed(loads, l_ave, variant):
    cmf = build_cmf(np.asarray(loads), l_ave, variant)
    if cmf is None:
        return
    assert cmf.shape == (len(loads),)
    assert (np.diff(cmf) >= -1e-12).all()
    assert cmf[-1] == 1.0
    assert (cmf >= -1e-12).all()


@given(loads=positive_loads, l_ave=st.floats(min_value=1e-2, max_value=1e3))
def test_modified_cmf_defined_whenever_loads_differ(loads, l_ave):
    """§ V-C: the modified CMF must handle above-average loads; it is only
    degenerate when every known load equals l_s."""
    arr = np.asarray(loads)
    cmf = build_cmf(arr, l_ave, CMF_MODIFIED)
    l_s = max(l_ave, arr.max())
    if np.any(arr < l_s * (1 - 1e-12)):
        assert cmf is not None
    elif arr.max() >= l_s:
        assert cmf is None


@given(
    loads=st.lists(
        st.floats(min_value=0.0, max_value=0.9), min_size=2, max_size=20
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_cmf_sampling_prefers_lighter_ranks(loads, seed):
    """Heavier known load => never a higher selection probability."""
    arr = np.asarray(loads)
    assume(arr.std() > 0)
    cmf = build_cmf(arr, 1.0, CMF_ORIGINAL)
    assume(cmf is not None)
    pmf = np.diff(np.concatenate([[0.0], cmf]))
    lightest = int(np.argmin(arr))
    heaviest = int(np.argmax(arr))
    assert pmf[lightest] >= pmf[heaviest] - 1e-12


# ---------------------------------------------------------------------------
# Ordering contracts
# ---------------------------------------------------------------------------


@given(loads=positive_loads, l_p_scale=st.floats(min_value=1.1, max_value=5.0))
def test_orderings_are_permutations(loads, l_p_scale):
    task_loads = np.asarray(loads)
    tasks = np.arange(task_loads.size, dtype=np.int64)
    l_ave = float(task_loads.sum() / 4)
    l_p = l_ave * l_p_scale
    for name in ("load_intensive", "fewest_migrations", "lightest"):
        out = order_tasks(name, tasks, task_loads, l_ave, l_p)
        assert sorted(out.tolist()) == tasks.tolist()


@given(loads=positive_loads)
def test_fewest_migrations_leader_resolves_overload_if_possible(loads):
    """Alg. 5: when some task exceeds the excess, the first candidate is
    the lightest such task — a single migration resolving the overload."""
    task_loads = np.asarray(loads)
    tasks = np.arange(task_loads.size, dtype=np.int64)
    l_p = float(task_loads.sum())
    l_ave = l_p / 2.0
    l_ex = l_p - l_ave
    covering = task_loads[task_loads > l_ex]
    assume(covering.size > 0)
    out = order_tasks("fewest_migrations", tasks, task_loads, l_ave, l_p)
    assert task_loads[out[0]] == covering.min()


@given(loads=positive_loads)
def test_lightest_prefix_covers_excess(loads):
    """Alg. 6: the tasks ordered before the first ascending-load task
    (the descending group) cumulatively cover the excess when possible."""
    task_loads = np.asarray(loads)
    tasks = np.arange(task_loads.size, dtype=np.int64)
    l_p = float(task_loads.sum())
    l_ave = l_p * 0.6
    l_ex = l_p - l_ave
    out = order_tasks("lightest", tasks, task_loads, l_ave, l_p)
    lead = task_loads[out[0]]
    group = task_loads[task_loads <= lead]
    if task_loads.sum() >= l_ex:
        assert group.sum() >= l_ex - 1e-9


# ---------------------------------------------------------------------------
# Strategy conservation invariants
# ---------------------------------------------------------------------------

strategy_factory = st.sampled_from(
    [
        lambda: TemperedLB(n_trials=1, n_iters=2, fanout=2, rounds=3),
        lambda: GreedyLB(),
        lambda: HierLB(branching=2),
    ]
)


@given(
    loads=positive_loads,
    n_ranks=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
    factory=strategy_factory,
)
@settings(max_examples=60, deadline=None)
def test_strategies_conserve_load_and_never_worsen(loads, n_ranks, seed, factory):
    task_loads = np.asarray(loads)
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n_ranks, size=task_loads.size)
    dist = Distribution(task_loads, assignment, n_ranks)
    res = factory().rebalance(dist, rng=seed)
    after = np.bincount(res.assignment, weights=task_loads, minlength=n_ranks)
    assert after.sum() == pytest.approx(dist.total_load)
    assert (res.assignment >= 0).all() and (res.assignment < n_ranks).all()


@given(
    loads=positive_loads,
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_tempered_never_returns_worse_than_input(loads, seed):
    """Algorithm 3 keeps the best proposal, so the result can never be
    worse than doing nothing."""
    task_loads = np.asarray(loads)
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, 4, size=task_loads.size)
    dist = Distribution(task_loads, assignment, 4)
    res = TemperedLB(n_trials=1, n_iters=2, fanout=2, rounds=2).rebalance(dist, rng=seed)
    assert res.final_imbalance <= res.initial_imbalance + 1e-12


@given(loads=positive_loads, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_imbalance_metric_invariants(loads, seed):
    """I >= 0 always; I == 0 iff all rank loads equal the max."""
    arr = np.asarray(loads)
    assert imbalance(arr) >= -1e-12
    if arr.std() == 0:
        assert imbalance(arr) == pytest.approx(0.0)
