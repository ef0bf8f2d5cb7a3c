"""Unit tests for repro.sim.trace."""

import numpy as np
import pytest

from repro.sim.process import System
from repro.sim.trace import Tracer


class TestSendTracing:
    def test_records_application_sends(self):
        sys_ = System(4)
        tracer = Tracer(sys_)
        sys_.processes[1].register("work", lambda p, m: None)
        sys_.processes[0].send(1, "work", size=128)
        sys_.run()
        assert len(tracer.sends) == 1
        record = tracer.sends[0]
        assert (record.src, record.dst, record.tag, record.size) == (0, 1, "work", 128)

    def test_control_traffic_hidden_by_default(self):
        from repro.sim.termination import SafraDetector

        sys_ = System(4)
        tracer = Tracer(sys_)
        det = SafraDetector(sys_, on_terminate=lambda t: None)
        det.start()
        sys_.run()
        assert tracer.sends == []

    def test_control_traffic_optionally_visible(self):
        from repro.sim.termination import SafraDetector

        sys_ = System(4)
        tracer = Tracer(sys_, trace_control=True)
        det = SafraDetector(sys_, on_terminate=lambda t: None)
        det.start()
        sys_.run()
        assert len(tracer.sends) > 0

    def test_messages_and_bytes_by_tag(self):
        sys_ = System(3)
        tracer = Tracer(sys_)
        sys_.processes[2].register("a", lambda p, m: None)
        sys_.processes[2].register("b", lambda p, m: None)
        sys_.processes[0].send(2, "a", size=10)
        sys_.processes[0].send(2, "a", size=20)
        sys_.processes[1].send(2, "b", size=5)
        sys_.run()
        assert tracer.messages_by_tag() == {"a": 2, "b": 1}
        assert [(r.tag, r.size) for r in tracer.sends] == [("a", 10), ("a", 20), ("b", 5)]


class TestBusyTracking:
    def test_busy_time_matches_compute(self):
        sys_ = System(2)
        tracer = Tracer(sys_)
        sys_.processes[0].compute(2.0)
        sys_.processes[0].compute(1.0)
        sys_.processes[1].compute(0.5)
        assert tracer.busy == [[(0.0, 3.0)], [(0.0, 0.5)]]

    def test_back_to_back_intervals_coalesced(self):
        sys_ = System(1)
        tracer = Tracer(sys_)
        sys_.processes[0].compute(1.0)
        sys_.processes[0].compute(1.0)
        assert len(tracer.busy[0]) == 1
        assert tracer.busy[0][0] == (0.0, 2.0)

    def test_utilization(self):
        sys_ = System(2)
        tracer = Tracer(sys_)
        sys_.processes[0].compute(1.0)
        util = tracer.utilization(until=2.0)
        np.testing.assert_allclose(util, [0.5, 0.0])

    def test_utilization_zero_horizon(self):
        sys_ = System(2)
        tracer = Tracer(sys_)
        assert (tracer.utilization() == 0).all()


class TestGantt:
    @pytest.mark.parametrize("until", [0.0, 2.0])
    def test_shape(self, until):
        sys_ = System(3)
        tracer = Tracer(sys_)
        sys_.processes[1].compute(1.0)
        out = tracer.gantt(width=20, until=until)
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(l.endswith("|") for l in lines)
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_busy_rank_shows_hashes(self):
        sys_ = System(2)
        tracer = Tracer(sys_)
        sys_.processes[0].compute(1.0)
        out = tracer.gantt(width=10, until=1.0)
        lines = out.splitlines()
        assert "#" * 10 in lines[0]
        assert "#" not in lines[1]

    def test_empty_trace(self):
        sys_ = System(2)
        tracer = Tracer(sys_)
        out = tracer.gantt(width=5)
        assert "#" not in out

    @pytest.mark.parametrize("until", [0.0, 1.0], ids=["zero-horizon", "positive-horizon"])
    @pytest.mark.parametrize("width", [0, -3])
    def test_non_positive_width_rejected(self, width, until):
        sys_ = System(2)
        tracer = Tracer(sys_)
        sys_.processes[0].compute(1.0)
        with pytest.raises(ValueError, match="width"):
            tracer.gantt(width=width, until=until)
