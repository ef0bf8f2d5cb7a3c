"""A finished stage leaves nothing behind on its ``System``.

Every protocol stage — an inform stage and its Safra detector, the
statistics all-reduces, a migration and its Dijkstra–Scholten detector,
a phase barrier — detaches its hooks and retires its tags when it ends,
and numbers its tags per system. So a runtime that balances many times
pays the same per message on the last call as on the first, and two
identical episodes record identical registry keys.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.tempered import TemperedConfig
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.lbmanager import LBManager
from repro.runtime.phase import PhaseBarrier
from repro.sim.faults import FaultConfig, FaultyLink
from repro.sim.process import System
from repro.sim.reductions import allreduce
from repro.workloads import paper_analysis_scenario

HOOK_LISTS = (
    "_transmit_hooks", "_deliver_hooks", "_post_execute_hooks",
    "_compute_hooks", "_drop_hooks",
)


def _attached(system: System) -> tuple[tuple[int, ...], int]:
    """(hooks per hook list, handlers summed over ranks)."""
    hooks = tuple(len(getattr(system, name)) for name in HOOK_LISTS)
    return hooks, sum(len(p._handlers) for p in system.processes)


def _runtime(n_ranks: int, n_tasks: int, seed: int, registry=None):
    dist = paper_analysis_scenario(n_tasks, 4, n_ranks, seed=seed)
    runtime = AMTRuntime(
        n_ranks, dist.task_loads, dist.assignment, task_overhead=1e-3, registry=registry
    )
    return runtime, dist


def test_forty_episodes_leave_nothing_attached():
    """Each call starts from the same imbalanced assignment, so every
    episode runs the same stages: after 40 calls the system holds no
    more hooks and handlers than after one — none. (Stages that never
    detach leave 160 hooks and 1,520 handlers per rank here, and every
    later message runs the dead hooks.)"""
    runtime, dist = _runtime(64, 1024, seed=3)
    manager = LBManager(runtime, TemperedConfig(n_trials=1, n_iters=3), seed=4)
    attached = []
    for _ in range(40):
        runtime.apply_assignment(dist.assignment)
        runtime.execute_phase()
        manager.run_episode()
        attached.append(_attached(runtime.system))
    assert attached[-1] == attached[0]
    assert attached[0] == ((0,) * len(HOOK_LISTS), 0)


class TestDuplicatedControlTraffic:
    """With ``drop_control=True`` the fault layer also duplicates the
    collectives' own messages. A duplicate must change nothing: every
    child is folded (or counted as arrived) once, every rank completes
    (or is released) once, and the result is the lossless run's. Each
    of the 24 tree messages is delivered twice, so the event counts are
    the lossless 48 / 61 plus one no-op handler run per duplicate; the
    run before collectives were idempotent agreed on 7.0 and pinned
    36 messages / 144 events and 36 / 157."""

    N = 13
    FAULTS = FaultConfig(duplicate_rate=1.0, drop_control=True)

    def _system(self, faults: FaultConfig | None) -> System:
        system = System(self.N)
        if faults is not None:
            FaultyLink(system, faults)
        return system

    def _allreduce(self, faults):
        system = self._system(faults)
        done = Counter()
        values = {}

        def on_complete(rank, value):
            done.update([rank])
            values[rank] = value

        op = allreduce(system, [1.0] * self.N, combine=lambda a, b: a + b, on_complete=on_complete)
        system.run()
        op.close()
        assert sum(len(p._handlers) for p in system.processes) == 0
        return system, done, values

    def test_allreduce_completes_every_rank(self):
        system, done, values = self._allreduce(self.FAULTS)
        assert done == Counter(range(self.N))
        assert values == {rank: 13.0 for rank in range(self.N)}
        assert values == self._allreduce(None)[2]
        assert (system.messages_sent, system.engine.events_processed) == (24, 96)

    def _barrier(self, faults):
        system = self._system(faults)
        for proc in system.processes:
            proc.compute(1e-3 * (proc.rank + 1))
        released = Counter()
        when = {}

        def on_release(rank, time):
            released.update([rank])
            when[rank] = time

        barrier = PhaseBarrier(system, on_release)
        barrier.start()
        system.run()
        barrier.close()
        assert sum(len(p._handlers) for p in system.processes) == 0
        return system, released, when

    def test_barrier_releases_every_rank(self):
        system, released, when = self._barrier(self.FAULTS)
        assert released == Counter(range(self.N))
        # No rank is released before the last one arrives (13 ms).
        assert when == self._barrier(None)[2]
        assert min(when.values()) >= 1e-3 * self.N
        assert (system.messages_sent, system.engine.events_processed) == (24, 109)


def test_identical_episodes_record_identical_counters():
    """Tags are numbered per system: the same episode on two fresh
    runtimes in one interpreter records the same registry keys and
    values, with no suffix folding."""

    def episode() -> StatsRegistry:
        registry = StatsRegistry()
        runtime, _ = _runtime(32, 512, seed=7, registry=registry)
        runtime.execute_phase()
        LBManager(
            runtime, TemperedConfig(n_trials=1, n_iters=2), seed=8, registry=registry
        ).run_episode()
        return registry

    first, second = episode(), episode()
    assert "net.messages.inform_1" in first.counters
    assert first.counters == second.counters
    assert first.timers == second.timers


def test_stage_tags_count_per_system_and_prefix():
    a, b = System(2), System(2)
    assert [a.stage_tag("inform"), a.stage_tag("inform"), a.stage_tag("__hb")] == [
        "inform_1", "inform_2", "__hb_1",
    ]
    assert b.stage_tag("inform") == "inform_1"


class TestRetiredTags:
    def test_late_message_is_discarded_but_charged(self):
        """A message still on the wire when its stage retires executes
        as a no-op: the handler does not run, the overhead is charged
        and the post-execute hooks see it, exactly as a live no-op
        handler would."""
        runs = {}
        for retire in (False, True):
            system = System(2, handler_overhead=1e-3)
            seen, executed = [], []
            system.add_post_execute_hook(lambda p, m: executed.append(m.tag))
            tag = system.stage_tag("stage")
            system.processes[1].register(tag, lambda p, m: seen.append(m.payload))
            system.processes[0].send(1, tag, payload="late")
            if retire:
                system.retire(tag)
            system.run()
            proc = system.processes[1]
            runs[retire] = (system.engine.now, proc.busy_until, proc.received, executed)
            assert seen == ([] if retire else ["late"])
        assert runs[True] == runs[False]

    def test_unknown_tag_still_raises(self):
        system = System(2)
        system.retire("stage_1")
        system.processes[0].send(1, "stage_2")
        with pytest.raises(KeyError, match="no handler"):
            system.run()

    def test_remove_hooks_detaches_only_the_given_hooks(self):
        system = System(2)
        keep, drop = (lambda m: None), (lambda m: None)
        system.add_transmit_hook(keep)
        system.add_transmit_hook(drop)
        system.add_drop_hook(drop)
        system.remove_hooks(drop)
        assert system._transmit_hooks == (keep,)
        assert system._drop_hooks == ()
