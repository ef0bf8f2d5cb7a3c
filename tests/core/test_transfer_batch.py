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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.transfer as transfer_module
from repro.core.cmf import IncrementalCMF
from repro.core.gossip import GossipResult
from repro.core.knowledge import PackedKnowledgeBitmap, SparseKnowledge
from repro.core.ordering import ORDERINGS, order_segments
from repro.core.transfer import TransferConfig, transfer_stage
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
