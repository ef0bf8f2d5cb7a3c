"""Seeded equivalence of parallel vs. serial refinement trials.

With ``n_workers`` set, each trial runs on its own spawned RNG stream,
so the refined assignment, the iteration records and every recorded
statistic must be bit-identical for *any* worker count >= 1. The legacy
``n_workers=None`` path shares one stream across trials and must stay
deterministic under a fixed seed.
"""

import numpy as np
import pytest

from repro.core.refinement import iterative_refinement
from repro.obs import StatsRegistry
from repro.util.parallel import spawn_streams
from repro.workloads.synthetic import paper_analysis_scenario


def make_dist(seed=0):
    return paper_analysis_scenario(
        n_tasks=400, n_loaded_ranks=4, n_ranks=32, seed=seed
    )


def run(dist, n_workers, seed=7, registry=None):
    return iterative_refinement(
        dist,
        n_trials=4,
        n_iters=3,
        rng=np.random.default_rng(seed),
        registry=registry,
        n_workers=n_workers,
    )


def assert_results_identical(a, b):
    assert np.array_equal(a.best_assignment, b.best_assignment)
    assert a.best_imbalance == b.best_imbalance
    assert a.total_gossip_messages == b.total_gossip_messages
    assert a.total_gossip_bytes == b.total_gossip_bytes
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_any_worker_count_matches_one_worker(self, workers):
        dist = make_dist()
        reference = run(dist, n_workers=1)
        parallel = run(dist, n_workers=workers)
        assert_results_identical(reference, parallel)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_registries_identical_across_worker_counts(self, workers):
        dist = make_dist()
        reg_serial = StatsRegistry()
        reg_parallel = StatsRegistry()
        a = run(dist, n_workers=1, registry=reg_serial)
        b = run(dist, n_workers=workers, registry=reg_parallel)
        assert_results_identical(a, b)
        assert reg_serial.counters == reg_parallel.counters
        assert reg_serial.series.keys() == reg_parallel.series.keys()
        # Series rows merge in trial order, so they match exactly.
        assert reg_serial.series["lb.iteration"] == reg_parallel.series["lb.iteration"]

    def test_parallel_improves_or_equals_initial(self):
        dist = make_dist()
        result = run(dist, n_workers=4)
        assert result.best_imbalance <= result.initial_imbalance

    def test_instrumentation_does_not_change_result(self):
        dist = make_dist()
        plain = run(dist, n_workers=2)
        instrumented = run(dist, n_workers=2, registry=StatsRegistry())
        assert_results_identical(plain, instrumented)

    def test_wall_timers_recorded(self):
        dist = make_dist()
        registry = StatsRegistry()
        run(dist, n_workers=2, registry=registry)
        for timer in ("wall.inform", "wall.transfer", "wall.refinement"):
            assert registry.timers[timer] > 0.0

    def test_legacy_serial_path_deterministic(self):
        dist = make_dist()
        a = run(dist, n_workers=None)
        b = run(dist, n_workers=None)
        assert_results_identical(a, b)

    def test_legacy_serial_differs_from_spawned_streams(self):
        # Not a guarantee (they could coincide), but at this scale the
        # shared-stream walk and the spawned-stream walk diverge, which
        # is exactly why n_workers=None must stay the default.
        dist = make_dist()
        legacy = run(dist, n_workers=None)
        spawned = run(dist, n_workers=1)
        assert legacy.records != spawned.records

    def test_rejects_nonpositive_workers(self):
        dist = make_dist()
        with pytest.raises(ValueError):
            run(dist, n_workers=0)

    def test_config_rejects_nonpositive_workers_at_construction(self):
        # Used to construct fine and only fail inside rebalance().
        from repro.core.tempered import TemperedConfig

        for bad in (0, -2):
            with pytest.raises(ValueError, match="n_workers"):
                TemperedConfig(n_workers=bad)
        assert TemperedConfig(n_workers=None).n_workers is None
        assert TemperedConfig(n_workers=1).n_workers == 1


class TestSpawnStreams:
    def test_streams_deterministic_and_independent(self):
        a = spawn_streams(np.random.default_rng(3), 4)
        b = spawn_streams(np.random.default_rng(3), 4)
        assert len(a) == len(b) == 4
        draws_a = [s.random(5).tolist() for s in a]
        draws_b = [s.random(5).tolist() for s in b]
        assert draws_a == draws_b
        # Pairwise distinct streams.
        flat = [tuple(d) for d in draws_a]
        assert len(set(flat)) == 4

    def test_spawn_does_not_consume_parent_stream(self):
        rng = np.random.default_rng(11)
        reference = np.random.default_rng(11).random(3)
        spawn_streams(rng, 8)
        assert np.array_equal(rng.random(3), reference)

    def test_empty_spawn(self):
        assert spawn_streams(np.random.default_rng(0), 0) == []
