"""The PIC physics on both of its paths: inline and in a forked worker.

``PICSimulation.run`` runs the scenario step and the colour count in a
forked worker (:class:`repro.util.parallel.RunAhead`) when a balancer is
attached and a second core and ``fork`` exist, and inline otherwise.
Each test forces a path by faking the usable-core count, as the trial
executor tests do, and the worker path must leave every output — the
series, the final assignment, the particle rows, the scenario's state —
exactly as the inline path does.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis.series import PhaseSeries
from repro.core.greedy import GreedyLB
from repro.core.tempered import TemperedConfig, TemperedLB
from repro.empire.bdot import BDotScenario
from repro.empire.mesh import Mesh2D
from repro.empire.pic import PICSimulation, default_lb_schedule
from repro.util import parallel
from repro.util.parallel import RemoteTraceback, RunAhead
from tests.core.test_lb_digests import EMPIRE as LB_EMPIRE
from tests.core.test_lb_digests import PINNED as LB_PINNED
from tests.core.test_lb_digests import _compute as lb_compute
from tests.empire.test_identity import CASES, PINNED, _digest

PATHS = ("inline", "worker")
#: The cases that attach a balancer, so the worker path forks for them.
BALANCED = {"tempered", "greedy", "rcb", "electrostatic"}

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the worker path needs fork"
)


@pytest.fixture
def forked(monkeypatch):
    """Records, per ``run()``, whether its physics ran in a worker."""
    paths: list[bool] = []
    enter = RunAhead.__enter__

    def spy(self):
        entered = enter(self)
        paths.append(self.forked)
        return entered

    monkeypatch.setattr(RunAhead, "__enter__", spy)
    return paths


def force_path(monkeypatch, path: str) -> None:
    cores = 1 if path == "inline" else 2
    monkeypatch.setattr(parallel, "effective_cpu_count", lambda: cores)


def make_sim(scenario=None, balancer=None, n_ranks: int = 16) -> PICSimulation:
    return PICSimulation(
        Mesh2D(n_ranks, colors_per_rank=4),
        scenario or BDotScenario(initial_particles=2000, injection_per_step=20, seed=0),
        mode="amt",
        balancer=balancer if balancer is not None else TemperedLB(TemperedConfig(n_trials=1, n_iters=2)),
        lb_schedule=default_lb_schedule(period=5, first=2),
        seed=1,
    )


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_identity_case_on_each_path(monkeypatch, forked, path, case):
    force_path(monkeypatch, path)
    fn, *args = CASES[case]
    assert fn(*args) == PINNED[case]
    assert forked == [path == "worker" and case.split("-")[0] in BALANCED]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", sorted(LB_EMPIRE))
def test_lb_digest_run_on_each_path(monkeypatch, forked, path, case):
    force_path(monkeypatch, path)
    assert lb_compute(case) == LB_PINNED[case]
    assert forked == [path == "worker"]


def test_consecutive_runs_match_inline(monkeypatch, forked):
    digests = {}
    for path in PATHS:
        force_path(monkeypatch, path)
        sim = make_sim()
        first = sim.run(12)
        after_first = _digest(sim, first), sim.scenario.get_state()
        second = sim.run(9)
        digests[path] = (after_first, _digest(sim, second), sim.lb_invocations)
        assert sim.physics_s > 0.0
        assert sim.physics_wait_s >= 0.0
    assert forked == [False, False, True, True]
    (inline_first, inline_rng), *inline_rest = digests["inline"]
    (worker_first, worker_rng), *worker_rest = digests["worker"]
    assert worker_first == inline_first
    assert worker_rng == inline_rng
    assert worker_rest == inline_rest


class _Blowup(BDotScenario):
    """A velocity turns infinite during step 7's scenario step."""

    def step(self, population, step_index):
        if step_index == 7:
            population.velocities[0, 0] = np.inf
        super().step(population, step_index)


def test_worker_error_matches_inline(monkeypatch, forked):
    outcomes = {}
    for path in PATHS:
        force_path(monkeypatch, path)
        series = PhaseSeries()
        with pytest.raises(ValueError) as info:
            make_sim(_Blowup(initial_particles=2000, injection_per_step=20, seed=0)).run(12, series)
        rows = {key: series.series(key) for key in series.keys()}
        outcomes[path] = (type(info.value), str(info.value), series.n_phases, rows)
        if path == "worker":
            assert isinstance(info.value.__cause__, RemoteTraceback)
            assert "advance" in str(info.value.__cause__)
    assert forked == [False, True]
    inline, worker = outcomes["inline"], outcomes["worker"]
    assert worker[:3] == inline[:3] == (ValueError, inline[1], 7)
    assert "velocities must be finite" in inline[1]
    for key, values in inline[3].items():
        np.testing.assert_array_equal(worker[3][key], values)
    assert not multiprocessing.active_children()


class _FailingBalancer(GreedyLB):
    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def rebalance(self, dist, rng=None):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("balancer failed")
        return super().rebalance(dist, rng=rng)


def test_main_side_error_reaps_the_worker(monkeypatch, forked):
    force_path(monkeypatch, "worker")
    with pytest.raises(RuntimeError, match="balancer failed"):
        make_sim(balancer=_FailingBalancer()).run(40)
    assert forked == [True]
    assert not multiprocessing.active_children()


class _Dies(BDotScenario):
    def step(self, population, step_index):
        if step_index == 4:
            os._exit(3)
        super().step(population, step_index)


def test_worker_that_dies_fails_fast(monkeypatch, forked):
    force_path(monkeypatch, "worker")
    with pytest.raises(RuntimeError, match=r"exited \(code 3\) without a result"):
        make_sim(_Dies(initial_particles=500, injection_per_step=5, seed=0)).run(10)
    assert not multiprocessing.active_children()


class _Proxy:
    """Passes every attribute through, as a tracing harness's proxy does."""

    def __init__(self, target) -> None:
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class _ProxiedScenario(_Proxy):
    def initialize(self):
        return _Proxy(self._target.initialize())


def test_proxied_collaborators_run_on_the_worker_path(monkeypatch, forked):
    force_path(monkeypatch, "inline")
    reference = make_sim()
    expected = _digest(reference, reference.run(15))
    force_path(monkeypatch, "worker")
    sim = make_sim(_ProxiedScenario(BDotScenario(initial_particles=2000, injection_per_step=20, seed=0)))
    assert _digest(sim, sim.run(15)) == expected
    assert forked == [False, True]
    assert isinstance(sim.population, _Proxy)
    assert sim.scenario.get_state() == reference.scenario.get_state()


def test_no_balancer_stays_inline(monkeypatch, forked):
    force_path(monkeypatch, "worker")
    sim = PICSimulation(
        Mesh2D(16, colors_per_rank=4),
        BDotScenario(initial_particles=500, injection_per_step=5, seed=0),
        mode="amt",
    )
    sim.run(3)
    assert forked == [False]
    assert sim.physics_wait_s == 0.0


def test_ring_memory_is_independent_of_the_step_count(monkeypatch, forked):
    """The ring holds RING_SLOTS rows however many steps run."""
    force_path(monkeypatch, "worker")
    sizes = []
    start = RunAhead._start

    def record(self):
        start(self)
        sizes.append(len(self._ring))

    monkeypatch.setattr(RunAhead, "_start", record)
    for n_steps in (3, 60):
        make_sim().run(n_steps)
    width = 16 * 4 + 1
    assert sizes == [parallel.RING_SLOTS * width * 8] * 2
