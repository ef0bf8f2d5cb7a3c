"""The trial executor layer: backends, ordering, and refinement identity.

The contract under test: a ``TrialExecutor`` maps a pure function over
payloads and returns results in payload order under every backend, so
``iterative_refinement`` produces bit-identical results — assignment,
records, and registry — whether trials run serially or on worker
processes. Timer semantics ride along: stage walls are cumulative per
trial, ``wall.refinement`` is the true span.

The backend is resolved, never requested; tests pin it through the
usable-core count :func:`~repro.util.parallel.resolve_backend` reads.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core.refinement import iterative_refinement
from repro.obs import StatsRegistry
import repro.util.parallel as parallel
from repro.util.parallel import TrialExecutor, resolve_backend
from repro.workloads.synthetic import paper_analysis_scenario

BACKENDS = ("serial", "process")


def force_backend(monkeypatch, backend):
    """Make ``resolve_backend`` pick ``backend`` for >= 2 workers: one
    usable core keeps the serial loop, four allow the process pool
    (where fork exists)."""
    cores = 1 if backend == "serial" else 4
    monkeypatch.setattr(parallel, "effective_cpu_count", lambda: cores)


def scaled_square(shared, payload):
    # Module-level so the process backend can pickle it by name.
    return shared["scale"] * payload * payload


def failing(shared, payload):
    raise RuntimeError(f"trial {payload} exploded")


class TestResolveBackend:
    @pytest.fixture(autouse=True)
    def four_cores(self, monkeypatch):
        force_backend(monkeypatch, "process")

    def test_one_worker_degrades_to_serial(self):
        assert resolve_backend(1, 8) == "serial"

    def test_one_payload_degrades_to_serial(self):
        assert resolve_backend(4, 1) == "serial"

    def test_auto_prefers_process_where_fork_exists(self, monkeypatch):
        resolved = resolve_backend(4, 8)
        if "fork" in multiprocessing.get_all_start_methods():
            assert resolved == "process"
        else:  # pragma: no cover - non-POSIX
            assert resolved == "serial"
        # No fork, no cheap pool: the serial loop (which beat threads).
        monkeypatch.setattr(parallel, "_fork_available", lambda: False)
        assert resolve_backend(4, 8) == "serial"

    def test_auto_declines_pool_on_single_core(self, monkeypatch):
        # Oversubscribing one core with a pool is strictly overhead (the
        # very regression this layer fixes), so it stays serial there.
        force_backend(monkeypatch, "serial")
        assert resolve_backend(4, 8) == "serial"

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            TrialExecutor(0)


class TestExecutorMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_payload_order(self, backend, monkeypatch):
        force_backend(monkeypatch, backend)
        pool = TrialExecutor(3)
        out = pool.map(scaled_square, list(range(10)), shared={"scale": 2})
        assert out == [2 * i * i for i in range(10)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shared_state_reaches_workers(self, backend, monkeypatch):
        force_backend(monkeypatch, backend)
        pool = TrialExecutor(2)
        assert pool.map(scaled_square, [3, 4], shared={"scale": 5}) == [45, 80]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_errors_propagate(self, backend, monkeypatch):
        force_backend(monkeypatch, backend)
        pool = TrialExecutor(2)
        with pytest.raises(RuntimeError, match="exploded"):
            pool.map(failing, [1, 2], shared=None)


def make_dist(seed=0):
    return paper_analysis_scenario(n_tasks=400, n_loaded_ranks=4, n_ranks=32, seed=seed)


def run(dist, workers, registry=None, seed=7):
    return iterative_refinement(
        dist,
        n_trials=4,
        n_iters=3,
        rng=np.random.default_rng(seed),
        registry=registry,
        n_workers=workers,
    )


class TestBackendEquivalence:
    """Every backend must reproduce the one-worker reference exactly."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_assignment_and_records_identical(self, backend, workers, monkeypatch):
        dist = make_dist()
        reference = run(dist, 1)
        force_backend(monkeypatch, backend)
        result = run(dist, workers)
        assert np.array_equal(result.best_assignment, reference.best_assignment)
        assert result.best_imbalance == reference.best_imbalance
        assert result.records == reference.records

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_registries_identical(self, backend, monkeypatch):
        dist = make_dist()
        reg_ref, reg_backend = StatsRegistry(), StatsRegistry()
        run(dist, 1, registry=reg_ref)
        force_backend(monkeypatch, backend)
        run(dist, 2, registry=reg_backend)
        assert reg_ref.counters == reg_backend.counters
        assert reg_ref.series["lb.iteration"] == reg_backend.series["lb.iteration"]
        assert reg_ref.events == reg_backend.events


class TestTimerSemantics:
    """Stage timers accumulate per trial; wall.refinement is the span."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stage_timers_present_and_bounded(self, backend, monkeypatch):
        dist = make_dist()
        registry = StatsRegistry()
        force_backend(monkeypatch, backend)
        start = time.perf_counter()
        run(dist, 2, registry=registry)
        elapsed = time.perf_counter() - start
        stage_sum = registry.timers["wall.inform"] + registry.timers["wall.transfer"]
        wall = registry.timers["wall.refinement"]
        assert stage_sum > 0.0
        # The span covers dispatch + merge, so it never exceeds the
        # caller's measured elapsed time (small slack for clock reads).
        assert wall <= elapsed + 1e-3
        # Cumulative concurrent stage time is bounded by workers x span.
        assert stage_sum <= 2 * wall + 1e-3

    def test_concurrent_stage_time_exceeds_span(self, monkeypatch):
        # Per-trial stage timers measure *elapsed* time inside each
        # worker, descheduled slices included — so with >= 2 workers
        # whose trials overlap in time, their sum must cover (and
        # typically exceed) the true wall.refinement span. This holds
        # on any core count: parallel cores and time-sharing both
        # inflate cumulative stage time past the span. Enough work per
        # trial that pool startup cannot mask the overlap.
        dist = paper_analysis_scenario(
            n_tasks=2000, n_loaded_ranks=8, n_ranks=256, seed=0
        )
        registry = StatsRegistry()
        force_backend(monkeypatch, "process")
        run(dist, 2, registry=registry)
        stage_sum = registry.timers["wall.inform"] + registry.timers["wall.transfer"]
        assert stage_sum >= registry.timers["wall.refinement"]
