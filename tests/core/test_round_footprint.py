"""The bit-row round loop's memory contract and the chunking it rests on.

``_PackedStore`` keeps one whole-round copy of the rows, the round's
snapshot: candidates are read off its bits, and the merge buffer, both
trims, ``finish`` and the row popcounts walk their rows in chunks of
``knowledge._CHUNK_BYTES``. Three things are checked here:

- the ``tracemalloc`` peak of a whole inform stage, in units of the
  knowledge matrix (``P x P/8`` bytes) and of the sampler's widest draw
  block (``P x _MAX_WAVE_WIDTH`` ``int64`` draws), and of ``coverage()``
  in chunks;
- that the chunk budget changes no result: rows, message and byte
  counts, ``complete`` flags and the generator's state after the stage
  are the same at a budget of one row, at odd budgets and at the
  default, under both trims, the fault path and the topology bias;
- that the snapshot-backed candidate view answers ``test`` and
  ``extract`` exactly as the materialized complement does.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gossip, knowledge
from repro.core.gossip import _MAX_WAVE_WIDTH, GossipConfig, run_inform_stage
from repro.core.knowledge import _PackedCandidates, _PackedStore
from repro.sim.faults import FaultConfig
from repro.workloads import paper_analysis_scenario


def _scenario_loads(n_tasks, n_loaded, n_ranks, seed):
    dist = paper_analysis_scenario(n_tasks, n_loaded, n_ranks, seed=seed)
    return np.bincount(dist.assignment, weights=dist.task_loads, minlength=n_ranks)


# -- footprint -------------------------------------------------------------


@pytest.mark.parametrize(
    "n_ranks, n_tasks, n_loaded, cap, trim",
    [(8192, 120_000, 32, 512, "lowest"), (4096, 10_000, 16, None, "random")],
    ids=["capped-lowest-8k", "uncapped-4k"],
)
def test_inform_stage_holds_one_snapshot_beside_its_matrix(n_ranks, n_tasks, n_loaded, cap, trim):
    loads = _scenario_loads(n_tasks, n_loaded, n_ranks, seed=41)
    config = GossipConfig(max_known=cap, trim_policy=trim, knowledge="packed")
    matrix = n_ranks * ((n_ranks + 7) // 8)
    draws = n_ranks * _MAX_WAVE_WIDTH * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_inform_stage(loads, config, np.random.default_rng(41))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.n_messages > 0 and result.knowledge.memory_bytes() == matrix
    # The stage's own matrix and the round's snapshot, plus whichever is
    # larger: the sampler's wave temporaries (draws, sort keys, values,
    # ranks: about four draw blocks) or a few chunks of merge / trim
    # scratch. Whole-round candidate, merge and trim copies (about six
    # matrices in all at 8k ranks, eight at 4k) do not fit.
    bound = 2 * matrix + max(5 * draws, 4 * knowledge._CHUNK_BYTES)
    assert peak <= bound, f"peak {peak / matrix:.2f} matrices > {bound / matrix:.2f}"


def test_coverage_holds_two_chunks_not_a_matrix():
    # One AND + popcount per chunk of rows; a whole-matrix AND would be
    # 8 MiB here. The integer hit count is the same either way.
    n_ranks = 8192
    rng = np.random.default_rng(3)
    bitmap = knowledge.PackedKnowledgeBitmap(n_ranks)
    bitmap.packed[:] = rng.integers(0, 256, size=bitmap.packed.shape, dtype=np.uint8)
    underloaded = rng.random(n_ranks) < 0.6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = bitmap.coverage(underloaded)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * knowledge._CHUNK_BYTES + 64 * 1024, peak
    hits = np.bitwise_count(bitmap.packed & np.packbits(underloaded)).sum(dtype=np.int64)
    assert got == hits / n_ranks / np.count_nonzero(underloaded)
    np.testing.assert_array_equal(bitmap.counts(), knowledge._popcounts(bitmap.packed))


# -- the chunk budget changes no result -------------------------------------


def _run(loads, config, seed):
    """One stage; returns what must not depend on the chunk budget."""
    stores = []

    def capture(*args, **kwargs):
        stores.append(knowledge.inform_store(*args, **kwargs))
        return stores[-1]

    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gossip, "inform_store", capture)
        result = run_inform_stage(loads, config, rng)
    (store,) = stores
    return {
        "rows": result.knowledge.rows.copy(),
        "messages": (result.n_messages, result.bytes_sent, result.per_round_messages),
        "faults": (result.dropped, result.delayed, result.duplicated, result.expired),
        "complete": None if store.complete is None else store.complete.copy(),
        "rng": rng.bit_generator.state,
    }


@st.composite
def stages(draw):
    n_ranks = draw(st.integers(2, 160), label="ranks")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="loads"))
    loads = rng.exponential(1.0, n_ranks) * (rng.random(n_ranks) < 0.3)
    trim = draw(st.sampled_from(["lowest", "random"]), label="trim")
    cap = draw(st.sampled_from([None, 1, 3, 17]), label="cap")
    backend = draw(st.sampled_from(["packed", "sparse"]), label="backend")
    faults = None
    if draw(st.booleans(), label="faults"):
        faults = FaultConfig(loss_rate=0.2, delay_rate=0.3, duplicate_rate=0.2, seed=5)
    bias = {}
    if backend == "packed" and draw(st.booleans(), label="bias"):
        bias = dict(ranks_per_node=4, intra_node_bias=0.5)
    config = GossipConfig(
        fanout=draw(st.integers(1, 6), label="fanout"), max_known=cap,
        trim_policy=trim, knowledge=backend, faults=faults, **bias,
    )
    return loads, config


@given(
    case=stages(),
    budget=st.one_of(st.just(1), st.integers(2, 300)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_chunk_budget_changes_no_result(case, budget, seed):
    loads, config = case
    want = _run(loads, config, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knowledge, "_CHUNK_BYTES", budget)
        got = _run(loads, config, seed)
    np.testing.assert_array_equal(got.pop("rows"), want.pop("rows"))
    if want["complete"] is not None:
        np.testing.assert_array_equal(got.pop("complete"), want.pop("complete"))
    assert got == want


def test_one_row_chunks_on_a_saturating_round():
    # Every rank a sender and a receiver, and rows several words wide:
    # a budget of one row cuts each pass into hundreds of chunks.
    loads = _scenario_loads(4000, 4, 320, seed=3)
    for trim in ("lowest", "random"):
        config = GossipConfig(max_known=24, trim_policy=trim, knowledge="packed")
        want = _run(loads, config, 9)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knowledge, "_CHUNK_BYTES", 1)
            got = _run(loads, config, 9)
        np.testing.assert_array_equal(got.pop("rows"), want.pop("rows"))
        np.testing.assert_array_equal(got.pop("complete"), want.pop("complete"))
        assert got == want


# -- the snapshot-backed candidate view ------------------------------------


def _materialized(snap, pos, n_ranks, full):
    """The complement the view stands for, built from booleans."""
    bools = np.ones((pos.size, n_ranks), dtype=bool)
    if not full:
        bools &= ~np.unpackbits(snap, axis=1, count=n_ranks).view(bool)
    bools[np.arange(pos.size), pos] = False
    return np.packbits(bools, axis=1)


@st.composite
def views(draw):
    n_ranks = draw(st.integers(1, 90), label="ranks")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="stream"))
    store = _PackedStore(
        n_ranks, np.flatnonzero(rng.random(n_ranks) < 0.5), 4 if draw(st.booleans()) else None,
        "lowest", rng.random(n_ranks), rng,
    )
    store.rows[:] = np.packbits(rng.random((n_ranks, n_ranks)) < rng.random(), axis=1)
    senders = rng.choice(n_ranks, draw(st.integers(1, n_ranks)), replace=False)
    full = draw(st.booleans(), label="full")
    return store, senders, full, rng


@given(case=views(), clear=st.booleans())
@settings(max_examples=200, deadline=None)
def test_lazy_view_equals_materialized_complement(case, clear):
    store, senders, full, rng = case
    n_ranks, enc = store.n_ranks, store.enc
    snap, entries = store.snapshot(senders)
    counts, view = store.candidates(senders, snap, entries, full)
    pos = senders if enc is None else enc[senders]
    ref = _PackedCandidates(_materialized(snap, pos, n_ranks, full), enc)
    assert view._packed is None  # nothing built until asked
    np.testing.assert_array_equal(counts, _popcounts_of(ref.packed))
    rows = np.arange(senders.size)
    if clear:
        pairs = rng.integers(0, senders.size, 5), rng.integers(0, n_ranks, 5)
        view.clear(*pairs)
        ref.clear(*pairs)
        np.testing.assert_array_equal(view.packed, ref.packed)
    draws = rng.integers(0, n_ranks, (senders.size, 7))
    np.testing.assert_array_equal(view.test(rows, draws), ref.test(rows, draws))
    some = rng.choice(senders.size, rng.integers(0, senders.size + 1), replace=False)
    exclude = None
    if some.size:
        exclude = rng.integers(0, some.size, 3), rng.integers(0, n_ranks, 3)
    for got, want in zip(view.extract(some, exclude), ref.extract(some, exclude)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(view.extract(rows), ref.extract(rows)):
        np.testing.assert_array_equal(got, want)
    assert snap.tobytes() == store.rows[senders].tobytes()  # the view never writes its snapshot


def _popcounts_of(packed):
    return np.unpackbits(packed, axis=1).sum(axis=1)
