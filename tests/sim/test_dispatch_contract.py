"""The engine's dispatch contract and the ``Message`` record contract.

``Engine.run()`` has one dispatch loop for every bound, and ``peek`` /
``step`` drive the queue one event at a time. An unbounded run, chunked
``run(until=...)``, chunked ``run(max_events=...)`` and a ``peek`` /
``step`` loop must dispatch the identical ``(time, seq)`` sequence — ties at equal times in scheduling order, callbacks
that schedule at ``now`` and nested ``schedule`` calls included — and
end with the same ``now`` and ``events_processed``. Every event here
carries a label drawn when it is scheduled, so labels are the sequence
numbers and the dispatch log is the ``(time, seq)`` sequence.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.messages import Message

#: Few delays, exactly representable, so sums tie often.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])

#: An event: its delay and the events its callback schedules.
EVENT = st.recursive(
    st.tuples(DELAYS, st.just(())),
    lambda children: st.tuples(DELAYS, st.lists(children, max_size=3).map(tuple)),
    max_leaves=24,
)
SCHEDULE = st.lists(EVENT, min_size=1, max_size=6)


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
