"""Unit tests for the StatsRegistry / Event core."""

import pytest

from repro.obs import Event, StatsRegistry


class TestCounters:
    def test_inc_accumulates(self):
        reg = StatsRegistry()
        assert reg.inc("a") == 1
        assert reg.inc("a", 4) == 5
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0
        assert reg.counter("missing", -1) == -1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StatsRegistry().inc("a", -1)

    def test_float_increments(self):
        reg = StatsRegistry()
        reg.inc("bytes", 1.5)
        reg.inc("bytes", 2.5)
        assert reg.counter("bytes") == 4.0


class TestGaugesSeriesTimers:
    def test_gauge_last_write_wins_locally(self):
        reg = StatsRegistry()
        reg.gauge("depth", 3)
        reg.gauge("depth", 1)
        assert reg.gauges["depth"] == 1.0

    def test_series_appends_rows_in_order(self):
        reg = StatsRegistry()
        reg.observe("it", n=1)
        reg.observe("it", n=2)
        assert [row["n"] for row in reg.series_rows("it")] == [1, 2]
        assert reg.series_rows("none") == []

    def test_timer_accumulates(self):
        reg = StatsRegistry()
        reg.add_time("t", 0.5)
        reg.add_time("t", 0.25)
        assert reg.timers["t"] == pytest.approx(0.75)
        with pytest.raises(ValueError, match="non-negative"):
            reg.add_time("t", -0.1)

    def test_timed_context_uses_given_clock(self):
        reg = StatsRegistry()
        fake_now = [10.0]
        with reg.timed("block", clock=lambda: fake_now[0]):
            fake_now[0] = 12.5
        assert reg.timers["block"] == pytest.approx(2.5)


class TestEvents:
    def test_event_recorded_and_filtered(self):
        reg = StatsRegistry()
        reg.event("lb.episode", time=1.0, rank=3, migrations=7)
        reg.event("other")
        events = reg.events_of("lb.episode")
        assert len(events) == 1
        assert events[0].fields["migrations"] == 7
        assert events[0].rank == 3

    def test_event_requires_scalar_fields(self):
        with pytest.raises(TypeError, match="scalar"):
            Event("bad", fields={"x": [1, 2]})
        with pytest.raises(ValueError, match="non-empty"):
            Event("")

    def test_event_roundtrip(self):
        event = Event("k", fields={"a": 1, "b": "s"}, time=2.0, rank=1)
        assert Event.from_dict(event.to_dict()) == event


class TestMergeAndSerialization:
    def test_merge_semantics(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.gauge("g", 1)
        b.gauge("g", 5)
        a.add_time("t", 1.0)
        b.add_time("t", 0.5)
        a.observe("s", x=1)
        b.observe("s", x=2)
        b.event("e")
        a.merge(b)
        assert a.counter("c") == 5
        assert a.gauges["g"] == 5.0  # high-water mark
        assert a.timers["t"] == pytest.approx(1.5)
        assert len(a.series_rows("s")) == 2
        assert len(a.events) == 1

    def test_to_from_dict_roundtrip(self):
        reg = StatsRegistry()
        reg.inc("c", 2)
        reg.gauge("g", 7)
        reg.add_time("t", 0.1)
        reg.observe("s", x=1, y=2.5)
        reg.event("e", time=3.0, value=1)
        clone = StatsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()

    def test_summary_mentions_everything(self):
        reg = StatsRegistry()
        reg.inc("gossip.messages", 10)
        reg.gauge("queue", 2)
        reg.add_time("t_lb", 0.5)
        reg.observe("lb.iteration", accepted=3)
        reg.event("lb.episode")
        text = reg.summary()
        for token in ("gossip.messages", "queue", "t_lb", "lb.iteration", "lb.episode"):
            assert token in text
        assert StatsRegistry().summary() == "(empty registry)"

