"""A stage's senders prepared a block at a time equal them one by one.

:func:`repro.core.transfer.transfer_stage` prepares a block of senders
with array operations — candidates from ``known_many``, samplers from
:meth:`IncrementalCMF.many`, task orders from one segmented sort — and
applies a block's accepts together when its senders are independent
(snapshot view, no nacks, no cascade, no sender in any sender's
``S^p``); otherwise it prepares and applies one sender at a time. Whole stages are held to the one-sender-at-a-time oracle
:func:`tests.core.oracles.transfer_stage_lists`, final generator state
included, over both stores, every ordering, criterion and CMF variant,
thresholds on both sides of 1, stalled senders and zero-load or tied
tasks; the segmented orders are held to the oracle's per-sender
ORDERTASKS.

Senders of an independent stage whose ``S^p`` are equal share one CMF
build, each but the last walking a clone of it: stages whose rows are
all equal, all distinct or a mix — equal shards as one object or as
equal copies — are held to the same oracle, a clone is shown to be
independent of its original and its siblings, and a stage of equal rows
is shown to build once.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.transfer as transfer_module
from repro.core.cmf import _RESCALES, CMF_MODIFIED, CMF_ORIGINAL, IncrementalCMF
from repro.core.gossip import GossipResult, run_inform_stage
from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge
from repro.core.ordering import ORDERINGS, order_segments
from repro.core.transfer import TransferConfig, transfer_stage
from repro.workloads import paper_analysis_scenario
from tests.core import oracles

#: Task loads with ties and zeros.
LOADS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0, 3.5])


@st.composite
def stages(draw):
    """A transfer stage: tasks on a hot prefix of ranks, per-rank
    knowledge drawn either from the underloaded ranks (what an inform
    stage produces) or from every rank, senders themselves included."""
    n_ranks = draw(st.integers(2, 24))
    n_tasks = draw(st.integers(1, 80))
    hot = draw(st.integers(1, n_ranks))
    task_loads = np.array(draw(st.lists(LOADS, min_size=n_tasks, max_size=n_tasks)))
    assignment = np.array(
        draw(st.lists(st.integers(0, hot - 1), min_size=n_tasks, max_size=n_tasks))
    )
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    l_ave = float(loads.mean())
    underloaded = loads < l_ave
    pool = np.flatnonzero(underloaded) if draw(st.booleans()) else np.arange(n_ranks)
    sets = [
        draw(st.lists(st.sampled_from(pool.tolist()), unique=True)) if pool.size else []
        for _ in range(n_ranks)
    ]
    stalled = draw(st.lists(st.integers(0, n_ranks - 1), max_size=3))
    for p in stalled:  # knows only itself
        sets[p] = [p]
    store = draw(st.sampled_from(["packed", "sparse"]))
    knowledge = (PackedKnowledgeBitmap if store == "packed" else SparseKnowledge)(n_ranks)
    for p, members in enumerate(sets):
        knowledge.add(p, np.array(members, dtype=np.int64))
    gossip = GossipResult(knowledge, underloaded, loads, l_ave)
    config = TransferConfig(
        threshold=draw(st.sampled_from([0.8, 1.0, 1.3])),
        ordering=draw(st.sampled_from(sorted(ORDERINGS))),
        criterion=draw(st.sampled_from(["relaxed", "original"])),
        cmf=draw(st.sampled_from(["modified", "original"])),
        recompute_cmf=draw(st.booleans()),
        max_passes=draw(st.sampled_from([1, 1, 3])),
    )
    return assignment, task_loads, gossip, config, draw(st.integers(0, 2**32 - 1))


def _run(stage, assignment, task_loads, gossip, config, seed):
    moved = assignment.copy()
    rng = np.random.default_rng(seed)
    stats = stage(moved, task_loads, gossip, config, rng)
    return moved, stats, rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(stages())
def test_stage_equals_the_one_sender_oracle(case):
    assignment, task_loads, gossip, config, seed = case
    got = _run(transfer_stage, assignment, task_loads, gossip, config, seed)
    want = _run(oracles.transfer_stage_lists, assignment, task_loads, gossip, config, seed)
    assert got[0].tolist() == want[0].tolist()
    assert got[1] == want[1]
    assert got[2] == want[2]


def _spy_paths(monkeypatch):
    taken = []
    for name in ("run_independent", "run_queue"):
        original = getattr(transfer_module._Stage, name)

        def spy(self, *args, _name=name, _original=original):
            taken.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(transfer_module._Stage, name, spy)
    return taken


@pytest.mark.parametrize("threshold, path", [(1.0, "run_independent"), (0.8, "run_queue")])
def test_independent_senders_share_one_prologue(monkeypatch, threshold, path):
    """h >= 1 with inform-stage knowledge (only ranks below l_ave) is
    the independent path; h < 1 makes senders known recipients."""
    rng = np.random.default_rng(7)
    n_ranks = 32
    task_loads = rng.gamma(3.0, 0.3, size=400)
    assignment = rng.integers(0, 32, size=400)
    assignment[:200] = rng.integers(0, 4, size=200)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    underloaded = loads < loads.mean()
    knowledge = PackedKnowledgeBitmap(n_ranks)
    for p in range(n_ranks):
        knowledge.add(p, np.flatnonzero(underloaded))
    gossip = GossipResult(knowledge, underloaded, loads, float(loads.mean()))
    config = TransferConfig(threshold=threshold, ordering="fewest_migrations")
    taken = _spy_paths(monkeypatch)
    got = _run(transfer_stage, assignment, task_loads, gossip, config, 3)
    want = _run(oracles.transfer_stage_lists, assignment, task_loads, gossip, config, 3)
    assert taken == [path]
    assert got[1].transfers > 0
    assert (got[0].tolist(), got[1], got[2]) == (want[0].tolist(), want[1], want[2])


@st.composite
def segment_batches(draw):
    """Segments of tied / zero loads, some empty, with sender loads that
    make a segment all light (no task above the excess), all heavy
    (every task above it) or not overloaded at all."""
    n_segments = draw(st.integers(1, 8))
    segments = [draw(st.lists(LOADS, max_size=12)) for _ in range(n_segments)]
    l_ave = draw(st.sampled_from([0.0, 1.0, 2.5]))
    l_p = []
    for loads in segments:
        kind = draw(st.sampled_from(["light", "heavy", "under", "any"]))
        total = sum(loads)
        l_p.append({
            "light": l_ave + total + 4.0,
            "heavy": l_ave + (min(loads) / 2 if loads else 0.0),
            "under": l_ave - 1.0,
            "any": l_ave + draw(st.sampled_from([0.0, 0.5, 1.0, total])),
        }[kind])
    return segments, l_ave, l_p


@settings(max_examples=400, deadline=None)
@given(segment_batches(), st.sampled_from(sorted(ORDERINGS)))
def test_segmented_orders_equal_per_sender_orders(batch, name):
    segments, l_ave, l_p = batch
    task_loads = np.array([load for loads in segments for load in loads])
    tasks = np.arange(task_loads.size)[::-1].copy()  # ids not in load order
    task_loads = task_loads[::-1].copy()
    bounds = np.cumsum([0] + [len(loads) for loads in segments])
    ordered = tasks[order_segments(name, tasks, bounds, task_loads, l_ave, np.array(l_p))]
    for i, l in enumerate(l_p):
        mine = tasks[bounds[i] : bounds[i + 1]]
        want = oracles.order_tasks(name, mine, task_loads, l_ave, l)
        assert ordered[bounds[i] : bounds[i + 1]].tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(LOADS, max_size=20), min_size=1, max_size=6),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.sampled_from(["modified", "original"]),
)
def test_samplers_built_together_equal_samplers_built_alone(segments, l_ave, variant):
    known = np.array([load for loads in segments for load in loads], dtype=np.float64)
    bounds = np.cumsum([0] + [len(loads) for loads in segments])
    with np.errstate(divide="ignore", invalid="ignore"):
        together = IncrementalCMF.many(known.copy(), bounds, l_ave, variant)
        alone = [
            IncrementalCMF(known[a:b].copy(), l_ave, variant)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
    for got, want in zip(together, alone, strict=True):
        for name in ("l_s", "total", "n_positive", "_max_load", "builds", "updates"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.loads.tolist() == want.loads.tolist()
        if want._tree is None:
            assert got._tree is None
        else:
            assert got._tree.tobytes() == want._tree.tobytes()


@st.composite
def converged_stages(draw):
    """An independent stage (h >= 1, sets drawn from the underloaded
    ranks) whose senders hold one shared set, a set each, or a few sets
    between them, as bit rows or as shards — equal shards either one
    object or equal copies."""
    n_ranks = draw(st.integers(4, 24))
    n_tasks = draw(st.integers(4, 80))
    hot = draw(st.integers(1, max(1, n_ranks // 2)))
    task_loads = np.array(draw(st.lists(LOADS, min_size=n_tasks, max_size=n_tasks)))
    assignment = np.array(
        draw(st.lists(st.integers(0, hot - 1), min_size=n_tasks, max_size=n_tasks))
    )
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    l_ave = float(loads.mean())
    underloaded = loads < l_ave
    pool = np.flatnonzero(underloaded).tolist()
    kind = draw(st.sampled_from(["equal", "distinct", "mixed"]))
    n_sets = {"equal": 1, "distinct": n_ranks, "mixed": draw(st.integers(2, 3))}[kind]
    palette = [
        np.array(sorted(draw(st.lists(st.sampled_from(pool), unique=True))) if pool else [])
        for _ in range(n_sets)
    ]
    pick = list(range(n_ranks)) if kind == "distinct" else [
        draw(st.integers(0, n_sets - 1)) for _ in range(n_ranks)
    ]
    if draw(st.booleans()):
        knowledge = PackedKnowledgeBitmap(n_ranks)
        for p, i in enumerate(pick):
            knowledge.add(p, palette[i])
    else:
        knowledge = SparseKnowledge(n_ranks)
        shared = [ids.astype(np.int32) for ids in palette]  # sorted, as shards are
        aliased = draw(st.booleans())
        for p, i in enumerate(pick):
            knowledge.shards[p] = shared[i] if aliased else shared[i].copy()
    gossip = GossipResult(knowledge, underloaded, loads, l_ave)
    config = TransferConfig(
        threshold=draw(st.sampled_from([1.0, 1.3])),
        ordering=draw(st.sampled_from(sorted(ORDERINGS))),
        cmf=draw(st.sampled_from(["modified", "original"])),
        recompute_cmf=draw(st.booleans()),
        max_passes=draw(st.sampled_from([1, 3])),
    )
    return assignment, task_loads, gossip, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(converged_stages())
def test_shared_builds_equal_the_one_sender_oracle(case):
    assignment, task_loads, gossip, config, seed = case
    got = _run(transfer_stage, assignment, task_loads, gossip, config, seed)
    want = _run(oracles.transfer_stage_lists, assignment, task_loads, gossip, config, seed)
    assert got[0].tolist() == want[0].tolist()
    assert got[1] == want[1]
    assert got[2] == want[2]


def _state(sampler):
    """Everything a sampler walks on, as plain values: not whether a
    copy-on-write clone still shares its arrays."""
    out = {name: getattr(sampler, name) for name in sampler.__slots__ if name != "_shared"}
    out["loads"] = sampler.loads.tobytes()
    tree = out.get("_tree")
    if tree is not None:
        out["_tree"] = np.asarray(tree).tobytes()
    if isinstance(out.get("cmf"), np.ndarray):
        out["cmf"] = out["cmf"].tobytes()
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=40),
    st.floats(1e-3, 50.0),
    st.lists(LOADS, max_size=20),
    st.lists(st.tuples(st.integers(0, 10**6), st.floats(0.0, 80.0, allow_nan=False)), max_size=20),
    st.sampled_from([CMF_MODIFIED, CMF_ORIGINAL]),
    st.booleans(),
)
def test_a_clone_leaves_its_original_and_siblings_unchanged(
    loads, l_ave, tasks, updates, variant, incremental
):
    """A clone walked (a fused pass on the tree as built, then point
    updates and a rebuild) ends where a fresh build would, and its
    original and a sibling clone keep every bit."""
    known = np.array(loads)
    if incremental:
        (original,) = IncrementalCMF.many(known, np.array([0, known.size]), l_ave, variant)
    else:
        original = transfer_module._RebuildCMF(known, l_ave, variant)
    before = _state(original)
    walked, sibling = original.clone(), original.clone()
    assert _state(walked) == before == _state(sibling)
    fresh = (
        IncrementalCMF(known.copy(), l_ave, variant) if incremental
        else transfer_module._RebuildCMF(known.copy(), l_ave, variant)
    )
    if incremental:
        walk = (np.array(tasks), l_ave + sum(tasks), l_ave, True)
        assert walked.propose_pass(*walk, np.random.default_rng(1)) == fresh.propose_pass(
            *walk, np.random.default_rng(1)
        )
    for raw, new_load in updates:  # a rise past l_s rebuilds
        walked.update(raw % known.size, new_load)
        fresh.update(raw % known.size, new_load)
    if incremental:
        walked._rebuild()
        fresh._rebuild()
    assert _state(walked) == _state(fresh)
    assert _state(original) == before
    assert _state(sibling) == before


def test_a_clone_whose_only_accept_ends_its_walk_copies_nothing():
    """The accept that ends a walk is recorded, not applied, so a clone
    that writes nothing before it keeps sharing its original's arrays."""
    (original,) = IncrementalCMF.many(np.array([0.2, 0.4, 0.6]), np.array([0, 3]), 1.0)
    before = _state(original)
    twin = original.clone()
    walk = twin.propose_pass(np.array([0.5, 0.5]), 1.3, 1.0, True, np.random.default_rng(0))
    assert walk[0] == [0] and walk[2] <= 1.0
    assert np.shares_memory(twin.loads, original.loads)
    assert np.shares_memory(twin._tree, original._tree)
    assert _state(original) == before


def _spy_own(monkeypatch):
    owners = []
    own = IncrementalCMF._own

    def spy(self):
        owners.append(self)
        own(self)

    monkeypatch.setattr(IncrementalCMF, "_own", spy)
    return owners


@pytest.mark.parametrize("n_candidates", [3, 16])  # a list segment, then not
def test_a_clone_with_a_non_terminal_accept_copies_once(monkeypatch, n_candidates):
    """Its first applied write copies ``loads`` and the tree, once per
    walk however many accepts follow; the original and a sibling keep
    every bit."""
    known = np.random.default_rng(2).uniform(0.0, 0.6, size=n_candidates)
    (original,) = IncrementalCMF.many(known, np.array([0, n_candidates]), 1.0)
    before = _state(original)
    walked, sibling = original.clone(), original.clone()
    owners = _spy_own(monkeypatch)
    acc_pos, _, p_load, _ = walked.propose_pass(
        np.full(4, 0.1), 1.35, 1.0, True, np.random.default_rng(3)
    )
    assert len(acc_pos) >= 2 and p_load <= 1.0
    assert len(owners) == 1 and owners[0] is walked
    assert not np.shares_memory(walked.loads, original.loads)
    assert _state(original) == before == _state(sibling)


def test_a_stage_materialises_fewer_rebuilds_than_it_counts(monkeypatch):
    """On an independent stage at P = 1,024, no walk rebuilds the tree
    for the ``l_s`` its last accept moves: a spy on ``_rebuild`` counts
    fewer rebuilds after the first build than ``cmf_builds`` counts
    past the builds the walks start from."""
    dist = paper_analysis_scenario(n_tasks=1024, n_loaded_ranks=64, n_ranks=1024, seed=4)
    gossip = run_inform_stage(dist.rank_loads(), rng=5)
    counts = {"rebuilt": 0, "started": 0}
    rebuild, walk = IncrementalCMF._rebuild, transfer_module._Stage.walk

    def rebuild_spy(self):
        counts["rebuilt"] += self.builds > 0  # the constructor's build is l.5
        rebuild(self)

    def walk_spy(self, p, candidates, sampler, *args):
        counts["started"] += sampler.builds if candidates.size else 0
        walk(self, p, candidates, sampler, *args)

    monkeypatch.setattr(IncrementalCMF, "_rebuild", rebuild_spy)
    monkeypatch.setattr(transfer_module._Stage, "walk", walk_spy)
    taken = _spy_paths(monkeypatch)
    stats = transfer_stage(dist.assignment.copy(), dist.task_loads, gossip, rng=6)
    assert taken == ["run_independent"] and stats.overloaded_ranks == 64
    assert counts["rebuilt"] < stats.cmf_builds - counts["started"]


def test_a_stage_rebuilds_only_where_the_rescale_guard_says(monkeypatch):
    """The same stage: every ``l_s`` move a walk applies rescales the
    tree unless ``r = l_s / l_s'`` leaves [1/2, 2] or ``_RESCALES`` ran
    in a row. A spy on ``_rebuild`` sees 7 rebuilds where every move
    once rebuilt (160), while ``cmf_builds`` and the moves stay put."""
    dist = paper_analysis_scenario(n_tasks=1024, n_loaded_ranks=64, n_ranks=1024, seed=4)
    gossip = run_inform_stage(dist.rank_loads(), rng=5)
    guarded, moves = [], []
    rebuild, rescale = IncrementalCMF._rebuild, IncrementalCMF._rescale

    def rebuild_spy(self):
        if self.builds:  # the constructor's build is l.5
            r = self.l_s / max(self.l_ave, self._max_load)
            guarded.append(not 0.5 <= r <= 2.0 or self._rescales == _RESCALES)
        rebuild(self)

    def rescale_spy(self, *args):
        moves.append(args)
        rescale(self, *args)

    monkeypatch.setattr(IncrementalCMF, "_rebuild", rebuild_spy)
    monkeypatch.setattr(IncrementalCMF, "_rescale", rescale_spy)
    stats = transfer_stage(dist.assignment.copy(), dist.task_loads, gossip, rng=6)
    assert all(guarded) and len(guarded) == 7 and len(moves) == 160
    assert (stats.cmf_builds, stats.transfers, stats.rejections) == (229, 974, 10)


@pytest.mark.parametrize("recompute_cmf", [True, False])
@pytest.mark.parametrize("store", [PackedKnowledgeBitmap, SparseKnowledge])
def test_a_stage_of_equal_rows_builds_once(monkeypatch, store, recompute_cmf):
    """Counted by call, not timed: one ``known_many`` of one rank and one
    O(n) build, then a clone for every sender but the last."""
    rng = np.random.default_rng(11)
    n_ranks = 64
    task_loads = rng.gamma(3.0, 0.3, size=600)
    assignment = rng.integers(0, 64, size=600)
    assignment[:400] = rng.integers(0, 12, size=400)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    underloaded = loads < loads.mean()
    knowledge = store(n_ranks)
    for p in range(n_ranks):
        knowledge.add(p, np.flatnonzero(underloaded))
    gossip = GossipResult(knowledge, underloaded, loads, float(loads.mean()))
    config = TransferConfig(recompute_cmf=recompute_cmf)
    want = _run(oracles.transfer_stage_lists, assignment, task_loads, gossip, config, 5)
    calls = {"known": [], "built": 0, "clones": 0}
    known_many, many = store.known_many, IncrementalCMF.many
    rebuild_init = transfer_module._RebuildCMF.__init__
    clones = {cls: cls.clone for cls in (IncrementalCMF, transfer_module._RebuildCMF)}

    def known_spy(self, ranks):
        calls["known"].append(len(ranks))
        return known_many(self, ranks)

    def many_spy(known, bounds, *args):
        calls["built"] += len(bounds) - 1
        return many(known, bounds, *args)

    def init_spy(self, *args):
        calls["built"] += 1
        rebuild_init(self, *args)

    def clone_spy(self):
        calls["clones"] += 1
        return clones[type(self)](self)

    monkeypatch.setattr(store, "known_many", known_spy)
    monkeypatch.setattr(IncrementalCMF, "many", staticmethod(many_spy))
    monkeypatch.setattr(transfer_module._RebuildCMF, "__init__", init_spy)
    for cls in clones:
        monkeypatch.setattr(cls, "clone", clone_spy)
    taken = _spy_paths(monkeypatch)
    got = _run(transfer_stage, assignment, task_loads, gossip, config, 5)
    senders = got[1].overloaded_ranks
    assert taken == ["run_independent"] and senders >= 8
    assert calls == {"known": [1], "built": 1, "clones": senders - 1}
    assert got[1].cmf_builds >= senders
    assert (got[0].tolist(), got[1], got[2]) == (want[0].tolist(), want[1], want[2])


def test_accepts_are_kept_as_one_int64_array():
    """A stage's accepts cost no Python object each: one sender with
    over 20,000 accepts leaves fewer than 40 traced bytes per accept in
    its stats (an ``(n, 3)`` int64 row is 24; a ``(task, src, dst)``
    tuple and its list slot were about 100), and the rows are the
    oracle's moves in accept order."""
    n_ranks, n_tasks = 64, 30_000
    rng = np.random.default_rng(3)
    task_loads = rng.uniform(0.5, 1.5, size=n_tasks)
    assignment = np.zeros(n_tasks, dtype=np.int64)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    underloaded = loads < loads.mean()
    knowledge = PackedKnowledgeBitmap(n_ranks)
    knowledge.add(0, np.flatnonzero(underloaded))
    gossip = GossipResult(knowledge, underloaded, loads, float(loads.mean()))
    config = TransferConfig()
    _run(transfer_stage, assignment, task_loads, gossip, config, 9)  # warm every cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        moved, stats, _ = _run(transfer_stage, assignment, task_loads, gossip, config, 9)
        del moved
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stats.transfers >= 20_000
    assert kept < 40 * stats.transfers
    assert stats.moves.dtype == np.int64
    assert stats.moves.shape == (stats.transfers, 3)
    want = _run(oracles.transfer_stage_lists, assignment, task_loads, gossip, config, 9)[1]
    assert stats.moves.tolist() == want.moves.tolist()
