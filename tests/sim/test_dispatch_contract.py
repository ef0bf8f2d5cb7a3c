"""The engine's dispatch contract and the ``Message`` record contract.

``Engine.run()`` has one dispatch loop for every bound, and ``peek`` /
``step`` drive the queue one event at a time. An unbounded run, chunked
``run(until=...)``, chunked ``run(max_events=...)`` and a ``peek`` /
``step`` loop must dispatch the identical ``(time, seq)`` sequence — ties at equal times in scheduling order, callbacks
that schedule at ``now`` and nested ``schedule`` calls included — and
end with the same ``now`` and ``events_processed``. Every event here
carries a label drawn when it is scheduled, so labels are the sequence
numbers and the dispatch log is the ``(time, seq)`` sequence.

A ``System`` runs a message's execution inline in its arrival event
when the execute event would be the next one popped; ``step()`` never
does. So the same four drives over message storms must execute every
handler at the same time in the same order and leave the same
accounting, with inline executions counted as events.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tempered import TemperedConfig
from repro.obs import StatsRegistry
from repro.runtime.amt import AMTRuntime
from repro.runtime.lbmanager import LBManager
from repro.sim.engine import Engine
from repro.sim.messages import Message
from repro.sim.network import NetworkModel
from repro.sim.process import System
from repro.workloads import paper_analysis_scenario

#: Few delays, exactly representable, so sums tie often.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])

#: An event: its delay and the events its callback schedules.
EVENT = st.recursive(
    st.tuples(DELAYS, st.just(())),
    lambda children: st.tuples(DELAYS, st.lists(children, max_size=3).map(tuple)),
    max_leaves=24,
)
SCHEDULE = st.lists(EVENT, min_size=1, max_size=6)

#: Executions a 64-rank episode runs inline (seed 3, 1,024 tasks).
INLINED_P64 = 2_901


def _dispatch(schedule, drive) -> tuple[list[tuple[float, int]], float, int]:
    engine = Engine()
    log: list[tuple[float, int]] = []
    labels = itertools.count()

    def fire(label: int, children) -> None:
        log.append((engine.now, label))
        for delay, grandchildren in children:
            engine.schedule(delay, fire, next(labels), grandchildren)

    for delay, children in schedule:
        engine.schedule(delay, fire, next(labels), children)
    drive(engine)
    return log, engine.now, engine.events_processed


def _step_loop(engine: Engine) -> None:
    while engine.peek() is not None:
        engine.step()


@settings(max_examples=150, deadline=None)
@given(schedule=SCHEDULE, chunk=st.integers(1, 5), cuts=st.data())
def test_every_run_mode_dispatches_the_same_sequence(schedule, chunk, cuts):
    reference = _dispatch(schedule, lambda e: e.run())
    times = sorted({t for t, _ in reference[0]})
    # Stop points: a sample of event times (a stop exactly on a time
    # dispatches every event at it, including ones scheduled at now)
    # and of midpoints between them, ending on the last event time so
    # the clock ends where an unbounded run leaves it.
    stops = cuts.draw(
        st.lists(
            st.sampled_from(times + [(a + b) / 2 for a, b in zip(times, times[1:])]),
            max_size=6,
        )
    )
    stops = sorted(set(stops)) + [times[-1]]

    def chunked_until(engine: Engine) -> None:
        for stop in stops:
            engine.run(until=stop)

    def chunked_max_events(engine: Engine) -> None:
        while engine.pending:
            engine.run(max_events=chunk)

    for drive in (chunked_until, chunked_max_events, _step_loop):
        assert _dispatch(schedule, drive) == reference


def test_ties_keep_scheduling_order_in_every_run_mode():
    schedule = [(0.5, ((0.0, ()), (0.0, ()))), (0.5, ()), (0.0, ((0.5, ()),))]
    log, now, count = _dispatch(schedule, lambda e: e.run())
    assert log == [(0.0, 2), (0.5, 0), (0.5, 1), (0.5, 3), (0.5, 4), (0.5, 5)]
    assert (now, count) == (0.5, 6)
    assert _dispatch(schedule, _step_loop) == (log, now, count)


def test_bounded_runs_leave_the_clock_where_they_stop():
    """``until`` advances the clock to the bound when the next event lies
    past it or the queue drains; a run that ``max_events`` stops keeps
    the clock at its last event."""
    engine = Engine()
    for when in (0.5, 1.0, 3.0):
        engine.schedule_at(when, lambda: None)
    assert engine.run(until=2.0, max_events=1) == 0.5
    assert engine.run(until=2.0) == 2.0
    assert (engine.pending, engine.events_processed) == (1, 2)
    assert engine.run(until=2.5, max_events=0) == 2.5  # next event past the bound
    assert engine.run(until=5.0) == 5.0
    assert engine.run(until=4.0) == 5.0  # empty queue: the clock never goes back
    assert (engine.pending, engine.events_processed) == (0, 3)


# -- message storms on a System ----------------------------------------------

#: A handler's actions on a message with hops left: ``("reply",)``,
#: ``("fan", offsets)`` (one ``send_many``), ``("compute", seconds)``
#: and ``("self",)``.
ACTION = st.one_of(
    st.just(("reply",)),
    st.tuples(st.just("fan"), st.lists(st.integers(0, 5), min_size=1, max_size=3)),
    st.tuples(st.just("compute"), st.sampled_from([0.0, 0.25, 0.5])),
    st.just(("self",)),
)
STORM = st.fixed_dictionaries({
    "n_ranks": st.integers(1, 6),
    "overhead": st.sampled_from([0.0, 2e-7]),
    # One latency and one size for every link, exactly representable,
    # so arrivals tie often.
    "latency": st.sampled_from([0.0, 0.25]),
    "plans": st.lists(st.lists(ACTION, max_size=3), min_size=1, max_size=5),
    "seeds": st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=4),
    "hops": st.integers(1, 3),
})


def _storm(storm, drive):
    """Run one storm under ``drive``; return the execution log
    ``(now, rank, msg_id, tag)`` (ids relative to the storm's first
    message) and everything the system accounts."""
    p = storm["n_ranks"]
    lat = storm["latency"]
    network = NetworkModel(
        ranks_per_node=2, intra_latency=lat, inter_latency=lat, self_latency=lat,
        intra_bandwidth=256.0, inter_bandwidth=256.0,
    )
    system = System(p, network=network, handler_overhead=storm["overhead"])
    plans = storm["plans"]
    base = Message(0, 0, "base").msg_id + 1
    log = []

    def handle(proc, msg):
        number = msg.msg_id - base
        log.append((system.engine.now, proc.rank, number, msg.tag))
        hops = msg.payload
        if not hops:
            return
        tag = "b" if hops % 2 else "a"
        for action in plans[number % len(plans)]:
            if action[0] == "reply":
                proc.send(msg.src, tag, hops - 1)
            elif action[0] == "fan":
                proc.send_many([(proc.rank + k) % p for k in action[1]], tag, hops - 1)
            elif action[0] == "compute":
                proc.compute(action[1])
            else:
                proc.send(proc.rank, tag, hops - 1)

    for proc in system.processes:
        proc.register("a", handle)
        proc.register("b", handle)
    for src, dst in storm["seeds"]:
        system.processes[src % p].send(dst % p, "a", storm["hops"])
    drive(system.engine)
    engine = system.engine
    ranks = [(q.busy_until, q.compute_time, q.sent, q.received) for q in system.processes]
    return (log, ranks, system.messages_sent, system.bytes_sent,
            engine.events_processed, engine.now, engine.pending)


@settings(max_examples=150, deadline=None)
@given(storm=STORM, chunk=st.integers(1, 5), cuts=st.data())
def test_every_run_mode_executes_a_storm_alike(storm, chunk, cuts):
    reference = _storm(storm, _step_loop)
    times = sorted({t for t, *_ in reference[0]})
    stops = cuts.draw(st.lists(st.sampled_from(times), max_size=4)) if times else []
    stops = sorted(set(stops)) + [reference[5]]

    def chunked_until(engine: Engine) -> None:
        for stop in stops:
            engine.run(until=stop)

    def chunked_max_events(engine: Engine) -> None:
        while engine.pending:
            engine.run(max_events=chunk)

    for drive in (lambda e: e.run(), chunked_until, chunked_max_events):
        assert _storm(storm, drive) == reference


class TestInlineExecution:
    """The inline rule's edges: what it saves, and where it must not run."""

    def test_an_episode_inlines_a_pinned_count_of_executions(self, monkeypatch):
        dist = paper_analysis_scenario(1024, 4, 64, seed=3)
        runtime = AMTRuntime(64, dist.task_loads, dist.assignment, task_overhead=1e-3)
        engine = runtime.system.engine
        pushes = [0]
        push = engine._push

        def counting_push(when, callback, args):
            pushes[0] += 1
            push(when, callback, args)

        monkeypatch.setattr(engine, "_push", counting_push)
        manager = LBManager(runtime, TemperedConfig(n_trials=1, n_iters=3), seed=4)
        runtime.execute_phase()
        manager.run_episode()
        # Every dispatched event was pushed, except the inline executions.
        inlined = engine.events_processed - (pushes[0] - engine.pending)
        assert inlined == INLINED_P64

    def _one_message(self):
        system = System(2, registry=StatsRegistry())
        ran = []
        system.processes[1].register("t", lambda proc, msg: ran.append(system.engine.now))
        system.processes[0].send(1, "t")
        return system, ran

    def test_step_dispatches_one_event_and_never_inlines(self):
        system, ran = self._one_message()
        engine = system.engine
        assert engine.step()
        assert (engine.events_processed, engine.pending, ran) == (1, 1, [])
        assert engine.step()
        assert (engine.events_processed, engine.pending, len(ran)) == (2, 0, 1)

    @pytest.mark.parametrize("k, expected", [(0, (0, 1, 0)), (1, (1, 1, 0)), (2, (2, 0, 1))])
    def test_max_events_counts_inline_executions(self, k, expected):
        system, ran = self._one_message()
        engine = system.engine
        engine.run(max_events=k)
        assert (engine.events_processed, engine.pending, len(ran)) == expected
        assert system.registry.counter("engine.events") == k

    def test_a_reset_leaves_a_stale_harmless_execute_event(self):
        system = System(2)
        engine = system.engine
        ran = []
        dropped = []
        system.add_drop_hook(dropped.append)
        busy = system.processes[1]
        busy.register("t", lambda proc, msg: ran.append((engine.now, msg.payload)))
        busy.compute(1.0)  # the execute event is pushed at busy_until
        system.processes[0].send(1, "t", "first")
        engine.schedule_at(0.5, busy.reset)
        engine.run(until=0.9)
        assert (busy.idle, engine.pending, ran) == (True, 1, [])
        assert [m.payload for m in dropped] == ["first"]
        engine.run()  # the stale event pops on an empty mailbox
        assert (busy.idle, engine.events_processed, busy.received, ran) == (True, 3, 0, [])
        system.processes[0].send(1, "t", "second")  # the rank still works
        engine.run()
        # Intra-node link: 64 bytes at 5 GB/s plus 0.2 us, run inline.
        assert ran == [(pytest.approx(1.0 + 64 / 5e9 + 2e-7, abs=1e-12), "second")]
        assert (busy.received, engine.events_processed) == (1, 5)


class TestMessage:
    def test_keyword_construction(self):
        msg = Message(
            src=1, dst=2, tag="gossip",
            payload={"round": 3, "members": [4, 5]}, size=120,
        )
        assert (msg.src, msg.dst, msg.tag, msg.size, msg.send_time) == (1, 2, "gossip", 120, 0.0)
        assert msg.payload == {"round": 3, "members": [4, 5]}
        assert Message(0, 1, "t").size == 64

    @pytest.mark.parametrize("field", ["src", "dst", "tag", "payload", "size", "send_time", "msg_id"])
    def test_fields_cannot_be_assigned(self, field):
        msg = Message(0, 1, "t")
        with pytest.raises(AttributeError):
            setattr(msg, field, 7)

    def test_ids_are_unique_and_increasing(self):
        ids = [Message(0, 1, "t").msg_id for _ in range(100)]
        assert ids == sorted(set(ids))

    def test_negative_size_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            Message(0, 1, "t", size=-1)
        with pytest.raises(ValueError, match="non-negative"):
            Message(src=0, dst=1, tag="t", size=-8)
