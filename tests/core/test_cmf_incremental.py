"""Equivalence proof-by-test: IncrementalCMF vs. fresh ``build_cmf``.

The incremental sampler's contract (see ``repro/core/cmf.py``) is that
after any sequence of single-candidate load updates its mass vector,
exhausted condition and materialized prefix sums are *exactly* what a
from-scratch ``build_cmf`` over the current loads produces, and that a
draw consumes exactly one uniform and lands on the same index as
``sample_cmf`` on the materialized CMF.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cmf as cmf_module
from repro.core.cmf import (
    _RESCALES,
    CMF_MODIFIED,
    CMF_ORIGINAL,
    IncrementalCMF,
    _fenwick_add,
    _fenwick_build,
    _fenwick_paths,
    _fenwick_search,
    _masses,
    build_cmf,
    sample_cmf,
)

loads_strategy = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=40,
)

updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1_000_000),  # index (mod size)
        st.floats(min_value=0.0, max_value=80.0, allow_nan=False),  # new load
    ),
    max_size=30,
)


def materialize(inc: IncrementalCMF) -> np.ndarray | None:
    """The prefix array :func:`build_cmf` would return for ``inc`` right
    now: the same normalized cumsum over ``inc``'s masses."""
    if inc.exhausted:
        return None
    masses = inc.masses
    cmf = np.cumsum(masses / masses.sum())
    cmf[-1] = 1.0
    return cmf


def assert_matches_fresh_build(inc: IncrementalCMF, l_ave: float, variant: str):
    """The incremental state must equal a from-scratch build, exactly."""
    fresh = build_cmf(inc.loads, l_ave, variant)
    if fresh is None:
        assert inc.exhausted
        assert materialize(inc) is None
    else:
        assert not inc.exhausted
        materialized = materialize(inc)
        assert np.array_equal(materialized, fresh)
        # Masses themselves are bit-identical to build_cmf's expression.
        loads = np.asarray(inc.loads, dtype=np.float64)
        expected_masses = np.clip(1.0 - loads / inc.l_s, 0.0, None)
        assert np.array_equal(inc.masses, expected_masses)


class TestIncrementalMatchesBuild:
    # Some runs draw an l_ave near the smallest float: loads / l_s then
    # overflows to inf, which clips to the right mass (0) with a warning.
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @given(loads=loads_strategy, l_ave=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_initial_state_both_variants(self, loads, l_ave):
        for variant in (CMF_ORIGINAL, CMF_MODIFIED):
            inc = IncrementalCMF(np.asarray(loads), l_ave, variant)
            assert_matches_fresh_build(inc, l_ave, variant)

    @given(
        loads=loads_strategy,
        l_ave=st.floats(min_value=1e-3, max_value=50.0),
        updates=updates_strategy,
    )
    @settings(max_examples=150, deadline=None)
    def test_random_update_sequences(self, loads, l_ave, updates):
        for variant in (CMF_ORIGINAL, CMF_MODIFIED):
            inc = IncrementalCMF(np.asarray(loads), l_ave, variant)
            for raw_idx, new_load in updates:
                inc.update(raw_idx % len(loads), new_load)
                assert_matches_fresh_build(inc, l_ave, variant)

    @given(
        loads=loads_strategy,
        l_ave=st.floats(min_value=1e-3, max_value=50.0),
        updates=updates_strategy,
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_sample_draws_match_sample_cmf(self, loads, l_ave, updates, seed):
        """Same RNG stream, same drawn index as the materialized CMF."""
        inc = IncrementalCMF(np.asarray(loads), l_ave, CMF_MODIFIED)
        rng_inc = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        for raw_idx, new_load in updates:
            inc.update(raw_idx % len(loads), new_load)
            if inc.exhausted:
                continue
            reference = materialize(inc)
            assert sample_cmf(reference, rng_ref) == inc.sample(rng_inc)
        # One uniform per draw: the streams stay aligned.
        assert rng_inc.random() == rng_ref.random()

    def test_transfer_like_walk_stays_exact(self):
        """A long accept/nack-style walk (the transfer stage's usage)."""
        rng = np.random.default_rng(42)
        loads = rng.uniform(0.0, 2.0, size=64)
        l_ave = 1.0
        inc = IncrementalCMF(loads, l_ave, CMF_MODIFIED)
        for _ in range(500):
            if inc.exhausted:
                break
            idx = inc.sample(rng)
            # Simulate an accepted transfer onto the sampled recipient,
            # occasionally a downward nack correction.
            delta = rng.uniform(0.0, 0.3)
            new_load = float(inc.loads[idx]) + delta
            if rng.random() < 0.1:
                new_load = max(0.0, float(inc.loads[idx]) - delta)
            inc.update(idx, new_load)
            assert_matches_fresh_build(inc, l_ave, CMF_MODIFIED)
        assert inc.updates > 0

    def test_exhaustion_equivalence_edge_cases(self):
        # Empty candidate list.
        inc = IncrementalCMF(np.zeros(0), 1.0, CMF_MODIFIED)
        assert inc.exhausted and materialize(inc) is None
        # l_s == 0 (all-zero loads, zero average).
        inc = IncrementalCMF(np.zeros(3), 0.0, CMF_MODIFIED)
        assert inc.exhausted
        assert build_cmf(np.zeros(3), 0.0, CMF_MODIFIED) is None
        # Every candidate at l_s: no positive mass.
        inc = IncrementalCMF(np.full(4, 2.0), 1.0, CMF_MODIFIED)
        assert inc.exhausted
        assert build_cmf(np.full(4, 2.0), 1.0, CMF_MODIFIED) is None
        # Raising one candidate above l_s rebuilds; dropping it back
        # revives positive mass for the rest.
        inc = IncrementalCMF(np.array([1.0, 2.0]), 1.0, CMF_MODIFIED)
        assert not inc.exhausted
        inc.update(0, 2.0)
        assert inc.exhausted
        inc.update(0, 0.5)
        assert not inc.exhausted
        assert_matches_fresh_build(inc, 1.0, CMF_MODIFIED)

    def test_sampling_exhausted_raises(self):
        inc = IncrementalCMF(np.zeros(0), 1.0, CMF_MODIFIED)
        with pytest.raises(ValueError):
            inc.sample(np.random.default_rng(0))

    def test_counts_builds_and_updates(self):
        inc = IncrementalCMF(np.array([0.2, 0.4, 0.6]), 1.0, CMF_MODIFIED)
        assert inc.builds == 1 and inc.updates == 0
        inc.update(0, 0.3)  # no l_s change: point update only
        assert inc.builds == 1 and inc.updates == 1
        inc.update(1, 5.0)  # new running max above l_s: full rebuild
        assert inc.builds == 2 and inc.updates == 2


class TestFenwick:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_build_matches_prefix_sums(self, values):
        arr = np.asarray(values)
        tree = _fenwick_build(arr)
        # Every inclusive prefix reachable by descent equals the cumsum.
        for target in np.cumsum(arr) - 1e-12:
            idx = _fenwick_search(tree, float(max(target, 0.0)))
            ref = int(np.searchsorted(np.cumsum(arr), float(max(target, 0.0)), side="right"))
            assert idx == min(ref, arr.size - 1) or idx == ref

    def test_add_then_search(self):
        arr = np.array([1.0, 0.0, 2.0, 1.0])
        tree = _fenwick_build(arr)
        _fenwick_add(tree, 1, 3.0)  # arr becomes [1, 3, 2, 1]
        # Cumulative: [1, 4, 6, 7]; target 2.5 lands in index 1.
        assert _fenwick_search(tree, 2.5) == 1
        assert _fenwick_search(tree, 0.5) == 0
        assert _fenwick_search(tree, 6.5) == 3

    @pytest.mark.parametrize("n", [1, 2, 7, 255, 4095, 4097])
    def test_cached_index_build_matches_where_insert_build(self, n):
        """The cached-parent build is the pre-cache build, bit for bit."""

        def reference(values):
            prefix = np.cumsum(values)
            idx = np.arange(1, values.size + 1)
            low = idx - (idx & -idx)
            nodes = prefix[idx - 1] - np.where(low > 0, prefix[low - 1], 0.0)
            tree = nodes.tolist()
            tree.insert(0, 0.0)
            return tree

        values = np.random.default_rng(n).gamma(2.0, 0.7, size=n)
        for _ in range(2):  # second call reads the cached index array
            assert _fenwick_build(values).tolist() == reference(values)

    def test_empty_build_is_the_zero_slot(self):
        assert _fenwick_build(np.zeros(0)).tolist() == [0.0]

    def test_cached_paths_equal_the_add_walk(self):
        """The nodes each cached path names are the nodes ``_fenwick_add``
        writes, in its order, for every index of every tree up to 600."""

        class Written(list):
            def __setitem__(self, i, value):
                self.order.append(i)
                super().__setitem__(i, value)

        for n in range(601):
            paths = _fenwick_paths(n)
            assert len(paths) == n
            for index in range(n):
                tree = Written([0.0] * (n + 1))
                tree.order = []
                _fenwick_add(tree, index, 1.0)
                assert paths[index] == tuple(tree.order)


#: Fixed uniforms for draw checks: fractional parts of k * golden ratio,
#: which stay clear of the simple fractions where masses add up exactly.
GRID = np.modf(np.arange(1, 241) * 0.6180339887498949)[0].tolist()


def _spy_rebuilds(monkeypatch):
    """Log every full rebuild after a sampler's first."""
    rebuilds = []
    rebuild = IncrementalCMF._rebuild

    def spy(self):
        if self.builds:
            rebuilds.append(self.l_s)
        rebuild(self)

    monkeypatch.setattr(IncrementalCMF, "_rebuild", spy)
    return rebuilds


class TestRescale:
    """An ``l_s`` move rescales the tree: nodes within rounding of a fresh
    build, every draw where a fresh ``build_cmf`` puts it."""

    def test_masses_in_place_match_the_expression(self):
        loads = np.random.default_rng(3).uniform(-1.0, 3.0, size=300)
        for l_s in (1.0, 2.5, np.linspace(0.5, 4.0, 300)):
            assert np.array_equal(_masses(loads, l_s), np.maximum(1.0 - loads / l_s, 0.0))
            assert np.array_equal(_masses(loads.tolist(), l_s), _masses(loads, l_s))

    @given(
        loads=loads_strategy,
        l_ave=st.floats(min_value=1e-3, max_value=50.0),
        # (grow?, index or amount, factor): a candidate lifted past l_s,
        # or the maximum lowered, possibly below zero.
        moves=st.lists(
            st.tuples(st.booleans(), st.integers(0, 1000), st.floats(1.01, 2.5)),
            min_size=1, max_size=5,
        ),
        listed=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_successive_moves_stay_within_rounding_of_a_fresh_build(
        self, loads, l_ave, moves, listed
    ):
        inc = IncrementalCMF(np.asarray(loads), l_ave, CMF_MODIFIED)
        if listed:  # as a point update or a draw leaves it
            inc._list_tree()
        for grow, raw, factor in moves:
            old_l_s, run = inc.l_s, inc._rescales
            if grow:
                inc.update(raw % len(loads), inc.l_s * factor)
            else:
                top = int(np.argmax(inc.loads))
                inc.update(top, float(inc.loads[top]) - (factor - 1.0) * inc.l_s)
            l_s = max(l_ave, float(inc.loads.max()))
            assert inc.l_s == l_s
            if l_s != old_l_s:  # the guard rebuilds, or the run grows by one
                rescaled = 0.5 <= old_l_s / l_s <= 2.0 and run < _RESCALES
                assert inc._rescales == (run + 1 if rescaled else 0)
            masses = _masses(inc.loads, l_s)
            fresh = _fenwick_build(masses)
            tree = np.asarray(inc._tree)[: fresh.size]
            counts = np.arange(fresh.size) & -np.arange(fresh.size)
            assert np.all(np.abs(tree - fresh) <= 1e-9 * np.maximum(np.abs(fresh), counts))
            assert abs(inc.total - masses.sum()) <= 1e-9 * len(loads)
            assert inc.n_positive == np.count_nonzero(masses)
            cmf = build_cmf(inc.loads, l_ave, CMF_MODIFIED)
            assert inc.exhausted == (cmf is None)
            if cmf is not None:
                for u in GRID:
                    assert inc.sample(_Scripted([u])) == sample_cmf(cmf, _Scripted([u]))

    @pytest.mark.parametrize(
        "new_load, rebuilt",
        [(1.5, []), (2.0, []), (2.5, [1.0])],  # r = 1/1.5, 1/2: rescaled; 1/2.5: rebuilt
    )
    def test_a_move_past_twice_l_s_rebuilds(self, monkeypatch, new_load, rebuilt):
        rebuilds = _spy_rebuilds(monkeypatch)
        inc = IncrementalCMF(np.array([0.2, 0.4, 0.6]), 1.0, CMF_MODIFIED)
        inc.update(0, new_load)
        assert rebuilds == rebuilt and inc.builds == 2 and inc.l_s == new_load

    def test_a_maximum_falling_below_half_l_s_rebuilds(self, monkeypatch):
        rebuilds = _spy_rebuilds(monkeypatch)
        inc = IncrementalCMF(np.array([0.1, 5.0]), 1.0, CMF_MODIFIED)
        inc.update(1, 3.0)  # r = 5 / 3: rescaled
        inc.update(1, 1.2)  # r = 3 / 1.2 = 2.5: rebuilt
        assert rebuilds == [3.0] and inc.builds == 3 and inc.l_s == 1.2

    def test_a_run_of_rescales_ends_in_a_rebuild(self, monkeypatch):
        rebuilds = _spy_rebuilds(monkeypatch)
        inc = IncrementalCMF(np.array([0.2, 0.4, 0.6]), 1.0, CMF_MODIFIED)
        for k in range(2 * _RESCALES + 2):
            inc.update(k % 3, inc.l_s * 1.1)
            assert len(rebuilds) == (k + 1) // (_RESCALES + 1)
            assert inc._rescales == (k + 1) % (_RESCALES + 1)
        assert inc.builds == 2 * _RESCALES + 3
        assert_matches_fresh_build(inc, 1.0, CMF_MODIFIED)


class _Scripted:
    """A stand-in generator: ``random(size=None)`` replays scripted
    uniforms, and ``bit_generator.state`` is its draw cursor (so a
    rewind is an assignment to it). ``calls`` logs each call's size."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)
        self.drawn = 0
        self.calls = []

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.drawn

    @state.setter
    def state(self, drawn):
        self.drawn = drawn

    def random(self, size=None):
        self.calls.append(size)
        n = 1 if size is None else size
        out = self.uniforms[self.drawn : self.drawn + n]
        assert len(out) == n, "drew past the script"
        self.drawn += n
        return out[0] if size is None else np.asarray(out, dtype=float)


def _reference_pass(sampler, o_loads, p_load, threshold_load, relaxed, rng):
    """The transfer stage's per-proposal loop through sample()/update()."""
    acc_pos, acc_idx, rejected = [], [], 0
    for pos, o_load in enumerate(o_loads):
        if p_load <= threshold_load or sampler.exhausted:
            break
        idx = sampler.sample(rng)
        l_x = float(sampler.loads[idx])
        accept = o_load < p_load - l_x if relaxed else l_x + o_load < sampler.l_ave
        if accept:
            acc_pos.append(pos)
            acc_idx.append(idx)
            p_load -= o_load
            sampler.update(idx, l_x + o_load)
        else:
            rejected += 1
    return acc_pos, acc_idx, p_load, rejected


def _same_state(a, b):
    """Bit-generator states equal, array leaves compared element-wise."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _sampler_state(sampler):
    """What a sampler's next draw reads, copied."""
    return {
        "scalars": (sampler.total, sampler.n_positive, sampler.l_s, sampler._max_load),
        "loads": sampler.loads.copy(),
        "masses": sampler.masses,
        "tree": None if sampler._tree is None else np.array(sampler._tree),
        "exhausted": sampler.exhausted,
    }


class _Recording(IncrementalCMF):
    """The reference sampler, keeping its state from before each update."""

    __slots__ = ("before",)

    def update(self, idx, new_load):
        self.before = _sampler_state(self)
        super().update(idx, new_load)


def _assert_pass_matches_reference(
    known, l_ave, variant, o_loads, p_load, threshold_load, relaxed, uniforms=(),
    tamper=None, rngs=None,
):
    """Run propose_pass and the reference loop on twin samplers; every
    observable — accepts, counters, generator state, sampler state —
    must agree. A pass that ends on the threshold records its last
    accept without applying it, so there the fused sampler is held to
    the reference's state from before its final update; every other
    exit, to its state after. ``rngs`` passes the twin generators in
    (real ones, or scripted ones a test inspects afterwards)."""
    fused = IncrementalCMF(np.asarray(known, dtype=float), l_ave, variant)
    ref = _Recording(np.asarray(known, dtype=float), l_ave, variant)
    if tamper is not None:
        tamper(fused)
        tamper(ref)
    rng_fused, rng_ref = rngs or (_Scripted(uniforms), _Scripted(uniforms))
    acc_pos, acc_idx, out_load, rejected = fused.propose_pass(
        np.asarray(o_loads, dtype=float), p_load, threshold_load, relaxed, rng_fused
    )
    expected = _reference_pass(ref, o_loads, p_load, threshold_load, relaxed, rng_ref)
    assert (acc_pos, acc_idx, out_load, rejected) == expected
    assert _same_state(rng_fused.bit_generator.state, rng_ref.bit_generator.state)
    assert (fused.builds, fused.updates) == (ref.builds, ref.updates)
    ended_on_threshold = bool(acc_pos) and out_load <= threshold_load
    want = ref.before if ended_on_threshold else _sampler_state(ref)
    assert _same_state(_sampler_state(fused), want)
    return fused, acc_pos, rng_fused.bit_generator.state


def _count_paths(monkeypatch):
    """Log the tree size of every path-cache lookup the walk makes."""
    sizes = []

    def spy(n):
        sizes.append(n)
        return _fenwick_paths(n)

    monkeypatch.setattr(cmf_module, "_fenwick_paths", spy)
    return sizes


class TestProposePass:
    """Each exit of the fused pass, against the sample()/update() loop."""

    def test_walks_every_task_with_accepts_and_rejections(self):
        sampler, acc_pos, drawn = _assert_pass_matches_reference(
            known=[0.1, 0.2, 0.3, 0.4], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.2, 5.0, 0.1, 0.3], p_load=4.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.1, 0.5, 0.9, 0.3],
        )
        assert drawn == 4 and acc_pos == [0, 2, 3]  # the 5.0 task is rejected
        assert sampler.builds == 1

    def test_original_criterion_and_cmf(self):
        _, acc_pos, _ = _assert_pass_matches_reference(
            known=[0.1, 0.6, 0.9], l_ave=1.0, variant=CMF_ORIGINAL,
            o_loads=[0.3, 0.3, 0.3, 0.3], p_load=9.0, threshold_load=1.0,
            relaxed=False, uniforms=[0.0, 0.0, 0.0, 0.99],
        )
        assert acc_pos == [0, 1]  # candidate 0 fills up to 0.7, then 1.0 >= l_ave

    def test_threshold_reached_mid_pass(self):
        _, acc_pos, drawn = _assert_pass_matches_reference(
            known=[0.0, 0.0, 0.0], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.4, 0.4, 0.4, 0.4], p_load=1.7, threshold_load=1.0,
            relaxed=True, uniforms=[0.2, 0.6, 0.9, 0.5],
        )
        assert acc_pos == [0, 1] and drawn == 2  # 1.7 -> 0.9 <= h * l_ave

    def test_cmf_exhausted_mid_pass(self):
        sampler, acc_pos, drawn = _assert_pass_matches_reference(
            known=[0.5], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.5, 0.1, 0.1], p_load=9.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.5, 0.5, 0.5],
        )
        # The only candidate lands exactly on l_s: zero mass, nothing to draw.
        assert acc_pos == [0] and drawn == 1 and sampler.exhausted

    def test_l_s_rebuild_mid_pass_re_enters(self):
        sampler, acc_pos, drawn = _assert_pass_matches_reference(
            known=[0.5, 0.2, 0.8], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.9, 0.3, 0.3, 0.2], p_load=9.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.1, 0.1, 0.6, 0.95],
        )
        # The first accept lifts candidate 0 to 1.4 > l_s = 1.0: full
        # rebuild at the new scale, then the walk carries on.
        assert sampler.builds == 2 and sampler.l_s == 1.4
        assert drawn == 4 and acc_pos[0] == 0 and len(acc_pos) > 1

    def test_rebuild_on_last_task_is_still_counted(self):
        sampler, _, _ = _assert_pass_matches_reference(
            known=[0.5, 0.2], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.9], p_load=9.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.1],
        )
        assert sampler.builds == 2

    def test_shrinking_maximum_is_tracked(self):
        # A negative task load lowers the running maximum — the other
        # max-tracking branch of update().
        sampler, acc_pos, _ = _assert_pass_matches_reference(
            known=[0.8, 0.5], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[-0.3, 0.1], p_load=9.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.0, 0.9],
        )
        assert acc_pos == [0, 1] and sampler._max_load == 0.6

    def test_drift_fallback_when_descent_lands_on_zero_mass(self):
        # Accumulated float drift, exaggerated: an inner node reads high,
        # so a draw just past candidate 0's mass stops on candidate 1
        # (zero mass); and ``total`` reads high, so a draw near 1 runs
        # off the end of the tree. Both resolve against exact prefix
        # sums, as sample() does, and land on candidate 2.
        def drift(sampler):
            sampler._tree[2] += 0.01
            sampler.total += 0.25

        sampler, acc_pos, drawn = _assert_pass_matches_reference(
            known=[0.25, 1.0, 0.5], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.05, 0.05], p_load=9.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.755 / 1.5, 0.999], tamper=drift,
        )
        assert drawn == 2 and acc_pos == [0, 1]
        assert sampler.loads.tolist() == [0.25, 1.0, 0.5 + 0.05 + 0.05]

    def test_drift_past_the_end_never_lands_on_a_zero_mass(self):
        # Masses [0.8, 0.5, 0.0]: the last candidate sits at l_s. A total
        # that drifted high by one part in 1e12 and the largest uniform
        # below 1 aim past every prefix sum; the draw must resolve to the
        # last candidate *with mass* (1), not the last index (2) — both
        # in sample() and in the fused pass, which must not accept a
        # transfer onto a rank at l_s.
        u = 1.0 - 2.0**-53

        def drift(sampler):
            sampler.total *= 1.0 + 1e-12

        sampler = IncrementalCMF([0.2, 0.5, 1.0], 1.0)
        drift(sampler)
        assert sampler.sample(_Scripted([u])) == 1
        sampler, acc_pos, _ = _assert_pass_matches_reference(
            known=[0.2, 0.5, 1.0], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.1], p_load=5.0, threshold_load=1.0,
            relaxed=True, uniforms=[u], tamper=drift,
        )
        assert acc_pos == [0]
        assert sampler.loads.tolist() == [0.2, 0.5 + 0.1, 1.0]

    def test_short_walk_on_a_large_cmf_indexes_the_tree_as_built(self):
        # 50 tasks against 200 candidates, but the second accept would
        # take p_load to 0.85 <= 1.0: fewer than 200/64 + 1 = 4 accepts
        # stay above the threshold, so the walk is short however many
        # tasks are left. Converting the tree to a list would cost more
        # than the walk, so it stays an ndarray — through a point update
        # and an l_s rebuild alike — and each proposal draws alone.
        known = np.random.default_rng(7).uniform(0.0, 0.9, size=199).tolist() + [0.8]
        uniforms = [0.3, 0.9999] + [0.5] * 48
        rngs = (_Scripted(uniforms), _Scripted(uniforms))
        sampler, acc_pos, _ = _assert_pass_matches_reference(
            known, l_ave=1.0, variant=CMF_MODIFIED, o_loads=[0.05, 0.6] + [0.01] * 48,
            p_load=1.5, threshold_load=1.0, relaxed=True, rngs=rngs,
        )
        assert acc_pos == [0, 1] and sampler.builds == 2
        assert isinstance(sampler._tree, np.ndarray)
        assert rngs[0].calls == [None, None]
        # A long walk over the same CMF converts once, keeps the list and
        # draws its 50 uniforms in one call.
        rng = _Scripted([0.5] * 50)
        sampler.propose_pass(np.full(50, 0.01), 9.0, 1.0, True, rng)
        assert isinstance(sampler._tree, list)
        assert rng.calls == [50]

    def test_rebuild_mid_chunk_carries_uniforms_into_the_next_segment(self):
        uniforms = [0.1, 0.1, 0.6, 0.95]
        rngs = (_Scripted(uniforms), _Scripted(uniforms))
        sampler, acc_pos, drawn = _assert_pass_matches_reference(
            known=[0.5, 0.2, 0.8], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.9, 0.3, 0.3, 0.2], p_load=9.0, threshold_load=1.0,
            relaxed=True, rngs=rngs,
        )
        # The first accept rebuilds at l_s = 1.4; the second segment
        # walks on with the three uniforms left in the first chunk.
        assert sampler.builds == 2 and drawn == 4 and acc_pos[0] == 0
        assert rngs[0].calls == [4]

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64],
    )
    def test_long_walk_exhausting_mid_chunk_rewinds_real_generators(self, bit_generator):
        # Original CMF, three candidates: each fills past l_ave within
        # two accepts, so the CMF runs dry after a few of the 20
        # proposals the chunk drew. The generator must end where one
        # random() per proposal leaves it, cached 32-bit half included.
        rngs = []
        for _ in range(2):
            rng = np.random.Generator(bit_generator(11))
            rng.integers(2**32, dtype=np.uint32)  # leave a half-word cached
            rngs.append(rng)
        sampler, acc_pos, _ = _assert_pass_matches_reference(
            known=[0.0, 0.2, 0.4], l_ave=1.0, variant=CMF_ORIGINAL,
            o_loads=[0.6] * 20, p_load=20.0, threshold_load=1.0,
            relaxed=True, rngs=rngs,
        )
        assert sampler.exhausted and 0 < len(acc_pos) < 20
        assert isinstance(sampler._tree, list)  # the long walk ran
        assert rngs[0].random(3).tolist() == rngs[1].random(3).tolist()

    def test_list_segment_writes_back_before_a_rebuild_and_rewinds(self, monkeypatch):
        # Two candidates and 12 tasks the pass is certain to propose: a
        # list segment (12 >= 2). The first accept lifts candidate 0 to
        # 1.4 > l_s: the segment's loads go back to the sampler before
        # the rebuild reads them. The next segment is a list segment
        # too; it fills candidate 1 up to l_s, the CMF runs dry mid-chunk
        # and the generator is rewound to the four uniforms used.
        built = _count_paths(monkeypatch)
        uniforms = [0.1, 0.5, 0.5, 0.5] + [0.5] * 8
        rngs = (_Scripted(uniforms), _Scripted(uniforms))
        sampler, acc_pos, drawn = _assert_pass_matches_reference(
            known=[0.5, 0.2], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.9] + [0.4] * 11, p_load=20.0, threshold_load=1.0,
            relaxed=True, rngs=rngs,
        )
        assert built == [2, 2]  # one lookup per list segment
        assert acc_pos == [0, 1, 2, 3] and drawn == 4
        assert sampler.builds == 2 and sampler.exhausted  # filled to l_s: no rebuild
        assert sampler.loads.tolist() == [1.4, 0.2 + 0.4 + 0.4 + 0.4]
        assert rngs[0].calls == [12, 4]  # the chunk, then the redraw

    def test_a_move_inside_a_list_segment_rescales_the_bits_update_does(self, monkeypatch):
        # Twelve certain proposals over two candidates: a list segment.
        # The first accept lifts candidate 0 to 1.4 > l_s = 1.0 on the
        # fused pass's list tree and on the reference's ndarray tree; both
        # rescale (r = 1 / 1.4) through one array path, bit for bit, and
        # the walk carries on at the new scale.
        rebuilds = _spy_rebuilds(monkeypatch)
        sampler, acc_pos, _ = _assert_pass_matches_reference(
            known=[0.5, 0.2], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.9] + [0.01] * 11, p_load=20.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.1] + [0.7] * 11,
        )
        assert rebuilds == [] and sampler._rescales == 1 and sampler.builds == 2
        assert sampler.l_s == 1.4 and len(acc_pos) == 12

    def test_a_move_on_a_short_segment_rescales_the_bits_update_does(self, monkeypatch):
        # A short walk over 200 candidates: the fused pass rescales its
        # ndarray tree, the reference the list its first update made.
        rebuilds = _spy_rebuilds(monkeypatch)
        known = np.random.default_rng(7).uniform(0.0, 0.9, size=199).tolist() + [0.8]
        sampler, acc_pos, _ = _assert_pass_matches_reference(
            known, l_ave=1.0, variant=CMF_MODIFIED, o_loads=[0.05, 0.3, 0.6],
            p_load=1.5, threshold_load=1.0, relaxed=True, uniforms=[0.3, 0.9999, 0.5],
        )
        assert acc_pos == [0, 1, 2] and rebuilds == [] and sampler._rescales == 1
        assert isinstance(sampler._tree, np.ndarray) and sampler.l_s == 1.1

    @pytest.mark.parametrize("tasks, lists", [(4, False), (5, True)])
    def test_list_segments_start_at_as_many_certain_proposals_as_candidates(
        self, monkeypatch, tasks, lists
    ):
        # Five candidates, never full: every task is a certain proposal.
        # Four tasks (one below the edge) walk long, on the ndarray loads,
        # and never touch the path cache; five walk a list segment.
        built = _count_paths(monkeypatch)
        sampler, acc_pos, _ = _assert_pass_matches_reference(
            known=[0.1, 0.2, 0.3, 0.4, 0.5], l_ave=1.0, variant=CMF_MODIFIED,
            o_loads=[0.01] * tasks, p_load=9.0, threshold_load=1.0,
            relaxed=True, uniforms=[0.3] * tasks,
        )
        assert len(acc_pos) == tasks and isinstance(sampler._tree, list)
        assert built == ([5] if lists else [])

    @given(
        known=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
        # A long walk needs size/64 + 1 accepts above the threshold: 1,
        # 3 or 11 here, so the lengths below land on both sides.
        padding=st.sampled_from([0, 150, 650]),
        o_loads=st.lists(st.floats(0.0, 1.5), max_size=25),
        p_load=st.floats(0.0, 20.0),
        variant=st.sampled_from([CMF_ORIGINAL, CMF_MODIFIED]),
        relaxed=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_passes_match_reference(
        self, known, padding, o_loads, p_load, variant, relaxed, seed
    ):
        rng = np.random.default_rng(seed)
        known = known + rng.uniform(0.0, 1.2, size=padding).tolist()
        uniforms = rng.random(len(o_loads)).tolist()
        _assert_pass_matches_reference(
            known, 1.0, variant, o_loads, p_load, 1.0, relaxed, uniforms
        )
