"""The SoA transfer stage is bit-identical to the list-based oracle.

``transfer_stage`` replaces the per-stage ``list[list[int]]`` rank/task
materialization with a CSR view plus sparse overrides and runs the
default configuration's passes fused (accepts recorded during the walk,
applied in bulk after it). None of it may change a single decision: every
config variant must produce the identical assignment, stats and final
RNG state as :func:`tests.core.oracles.transfer_stage_lists` under the
same seed — per stage and over whole multi-iteration episodes, where the
inform stage's draws interleave with the transfer stage's on one
generator.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.refinement as refinement
from repro.core.gossip import GossipConfig, run_inform_stage
from repro.core.soa import RankTaskState
from repro.core.transfer import TransferConfig, transfer_stage
from repro.obs import StatsRegistry
from repro.workloads import paper_analysis_scenario
from tests.core.oracles import transfer_stage_lists

VARIANTS = {
    "default": TransferConfig(),
    "lbaf-view": TransferConfig(view="shared", max_passes=None, cascade=True),
    "nacks": TransferConfig(nacks=True),
    # Production default vs the oracle's rebuild-per-accept CMF (the
    # reference the incremental maintenance is held to).
    "rebuild": TransferConfig(),
    "no-recompute": TransferConfig(recompute_cmf=False),
    "original": TransferConfig(criterion="original", cmf="original"),
    "arbitrary-3pass": TransferConfig(ordering="arbitrary", max_passes=3),
    "lightest": TransferConfig(ordering="lightest"),
}


def _episode(seed, n_ranks=24, tasks_per_rank=20):
    rng = np.random.default_rng(seed)
    n_tasks = n_ranks * tasks_per_rank
    task_loads = rng.gamma(3.0, 0.3, size=n_tasks)
    assignment = rng.integers(0, max(2, n_ranks // 4), size=n_tasks)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
    gossip = run_inform_stage(
        loads, GossipConfig(fanout=3, rounds=4), np.random.default_rng(seed + 1)
    )
    return assignment, task_loads, gossip


def _fields(stats):
    """Every field of a ``TransferStats``, its moves as a list of rows."""
    return {**dataclasses.asdict(stats), "moves": stats.moves.tolist()}


def _run(config, assignment, task_loads, gossip, seed, stage=transfer_stage):
    moved = np.array(assignment, copy=True)
    rng = np.random.default_rng(seed + 2)
    stats = stage(moved, task_loads, gossip, config, rng)
    return moved, stats, rng.bit_generator.state


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", list(VARIANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_soa_matches_lists(self, name, seed):
        config = VARIANTS[name]
        assignment, task_loads, gossip = _episode(seed)
        rebuild = name == "rebuild"
        oracle = functools.partial(transfer_stage_lists, rebuild_cmf=rebuild)
        ref = _run(config, assignment, task_loads, gossip, seed, oracle)
        new = _run(config, assignment, task_loads, gossip, seed)
        np.testing.assert_array_equal(new[0], ref[0])
        new_stats, ref_stats = _fields(new[1]), _fields(ref[1])
        if rebuild:
            # Same decisions; only how the CMF was kept current differs.
            assert ref_stats.pop("cmf_updates") == 0 < new_stats.pop("cmf_updates")
            assert new_stats.pop("cmf_builds") < ref_stats.pop("cmf_builds")
        assert new_stats == ref_stats
        # Both consume the identical RNG stream — the oracle stays
        # substitutable mid-trial.
        assert new[2] == ref[2]

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_fused_pass_under_non_pcg64_generators(self, bit_generator):
        # The fused pass draws rng.random() once per proposal, so it
        # works for every generator.
        seed = 5
        assignment, task_loads, gossip = _episode(seed)
        results = {}
        for engine, stage in (("lists", transfer_stage_lists), ("soa", transfer_stage)):
            moved = np.array(assignment, copy=True)
            rng = np.random.Generator(bit_generator(seed))
            stats = stage(moved, task_loads, gossip, TransferConfig(), rng)
            results[engine] = (moved, stats, rng.bit_generator.state)
        np.testing.assert_array_equal(results["soa"][0], results["lists"][0])
        assert _fields(results["soa"][1]) == _fields(results["lists"][1])
        assert results["soa"][1].transfers > 0
        # State dicts may embed ndarrays (MT19937): compare recursively.
        np.testing.assert_equal(results["soa"][2], results["lists"][2])

    def test_engine_knob_validated(self):
        with pytest.raises(TypeError):  # one transfer loop family, no selector
            TransferConfig(engine="soa")


def _refinement_episode(seed, shape, stage, monkeypatch):
    """One 4-iteration Algorithm 3 episode; everything observable."""
    stages = []

    def spy(*args, **kwargs):
        stats = stage(*args, **kwargs)
        stages.append((stats.moves.tolist(), stats.cmf_builds, stats.cmf_updates))
        return stats

    monkeypatch.setattr(refinement, "transfer_stage", spy)
    dist = paper_analysis_scenario(*shape, seed=seed)
    rng = np.random.default_rng(seed + 100)
    registry = StatsRegistry()
    result = refinement.iterative_refinement(
        dist,
        n_trials=1,
        n_iters=4,
        transfer=TransferConfig(),
        rng=rng,
        registry=registry,
    )
    return {
        "records": [dataclasses.asdict(r) for r in result.records],
        "assignment": result.best_assignment.tolist(),
        "stages": stages,
        "series": registry.to_dict()["series"]["lb.iteration"],
        "counters": registry.to_dict()["counters"],
        "rng": rng.bit_generator.state,
    }


class TestEpisodeIdentity:
    """Multi-iteration episodes: the generator carries state between
    stages (the inform stage's bounded-integer draws leave a cached
    32-bit half-word in PCG64), so single-stage parity is not enough —
    a since-deleted block-draw driver (PR 15) once dropped that
    half-word and every episode diverged from its second iteration on."""

    # (tasks, loaded ranks, ranks): long walks over small CMFs, and the
    # § V shape in miniature — from iteration 2 on, many senders with a
    # handful of tasks against hundreds of candidates.
    SHAPES = {"dense": (20_000, 4, 64), "wide": (2_000, 4, 512)}

    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize("seed", range(6))
    def test_engines_agree_over_four_iterations(self, seed, shape, monkeypatch):
        shape = self.SHAPES[shape]
        reference = _refinement_episode(seed, shape, transfer_stage_lists, monkeypatch)
        assert len(reference["stages"]) == 4
        assert reference["records"][1]["transfers"] > 0  # later stages do work
        episode = _refinement_episode(seed, shape, transfer_stage, monkeypatch)
        for key in reference:
            assert episode[key] == reference[key], key


class TestConservationProperty:
    @given(
        n_ranks=st.integers(2, 12),
        n_tasks=st.integers(1, 60),
        n_loaded=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        criterion=st.sampled_from(["relaxed", "original"]),
        cmf=st.sampled_from(["modified", "original"]),
        ordering=st.sampled_from(["arbitrary", "fewest_migrations", "lightest"]),
        max_passes=st.sampled_from([1, 3, None]),
        cascade=st.booleans(),
        # h < 1 makes queued senders recipients of earlier ones.
        threshold=st.sampled_from([1.0, 0.7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_small_instances_conserve_and_match_lists(
        self, n_ranks, n_tasks, n_loaded, seed, criterion, cmf, ordering,
        max_passes, cascade, threshold,
    ):
        rng = np.random.default_rng(seed)
        task_loads = rng.gamma(2.0, 0.5, size=n_tasks)
        assignment = rng.integers(0, min(n_loaded, n_ranks), size=n_tasks)
        loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)
        gossip = run_inform_stage(
            loads, GossipConfig(fanout=2, rounds=3), np.random.default_rng(seed + 1)
        )
        config = TransferConfig(
            criterion=criterion, cmf=cmf, ordering=ordering,
            max_passes=max_passes, cascade=cascade, threshold=threshold,
        )
        soa = _run(config, assignment, task_loads, gossip, seed)
        ref = _run(config, assignment, task_loads, gossip, seed, transfer_stage_lists)
        np.testing.assert_array_equal(soa[0], ref[0])
        assert _fields(soa[1]) == _fields(ref[1])
        assert soa[2] == ref[2]
        moved, stats = soa[0], soa[1]
        # Tasks: every task still has exactly one rank, and the moves
        # replayed on the input give the output.
        assert moved.shape == assignment.shape
        assert moved.min() >= 0 and moved.max() < n_ranks
        replay = assignment.copy()
        for task, src, dst in stats.moves:
            assert replay[task] == src
            replay[task] = dst
        np.testing.assert_array_equal(replay, moved)
        assert len(stats.moves) == stats.transfers
        # Load: what the ranks hold still sums to what the tasks weigh.
        after = np.bincount(moved, weights=task_loads, minlength=n_ranks)
        assert after.sum() == pytest.approx(task_loads.sum(), rel=1e-12)


class TestRankTaskState:
    def test_matches_naive_lists(self):
        rng = np.random.default_rng(3)
        n_ranks, n_tasks = 7, 40
        assignment = rng.integers(0, n_ranks, size=n_tasks)
        state = RankTaskState(assignment, n_ranks)
        naive = [[] for _ in range(n_ranks)]
        for task, rank in enumerate(assignment.tolist()):
            naive[rank].append(task)
        assert state.to_lists() == naive

    def test_extend_and_set_tasks(self):
        assignment = np.array([0, 0, 0, 1, 2])
        state = RankTaskState(assignment, 3)
        # Tasks 0, 1, 2 leave rank 0 for ranks 1, 2, 1 — one pass's
        # accepts, interleaved across recipients.
        state.extend(np.array([1, 2, 1]), np.array([0, 1, 2]))
        state.extend(np.array([2]), np.array([7]))
        state.extend(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        state.set_tasks(0, np.array([], dtype=np.int32))
        assert list(state.tasks(0)) == []
        assert list(state.tasks(1)) == [3, 0, 2]  # arrivals after originals,
        assert list(state.tasks(2)) == [4, 1, 7]  # each in arrival order
        assert state.tasks(1).dtype == np.int32

    def test_arrivals_outside_readers_are_dropped(self):
        assignment = np.array([0, 0, 0, 1, 2])
        readers = np.array([True, False, True])
        state = RankTaskState(assignment, 3, readers)
        state.extend(np.array([1, 2, 1]), np.array([0, 1, 2]))
        state.extend(np.array([1]), np.array([9]))
        assert list(state.tasks(1)) == [3]  # nobody will read rank 1 again
        assert list(state.tasks(2)) == [4, 1]

    def test_untouched_rank_returns_shared_view(self):
        assignment = np.array([0, 1, 1, 2])
        state = RankTaskState(assignment, 3)
        view = state.tasks(1)
        assert view.base is not None  # a slice of the CSR buffer
        assert list(view) == [1, 2]

    def test_empty_ranks(self):
        state = RankTaskState(np.array([2, 2]), 4)
        assert state.tasks(0).size == 0
        assert state.tasks(3).size == 0
        assert list(state.tasks(2)) == [0, 1]
