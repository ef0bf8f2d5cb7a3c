"""Property-based tests for the fault-injection link stack.

The abstractions promise textbook guarantees (Cachin–Guerraoui–
Rodrigues layering): arrivals farther apart than the reorder window
keep their order, and the heartbeat detector is complete (crashed
ranks get suspected) and eventually accurate (live ranks do not stay
suspected). The event-level link refuses the phase-level
retransmission knobs instead of running without them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import (
    ChurnEvent,
    FaultConfig,
    FaultyLink,
    HeartbeatFailureDetector,
    parse_churn,
)
from repro.sim.process import System


def test_parse_churn_roundtrip():
    events = parse_churn("crash:3@2e-3, restart:3@4e-3")
    assert events == (
        ChurnEvent(2e-3, "crash", 3),
        ChurnEvent(4e-3, "restart", 3),
    )
    assert events[0].down and not events[1].down
    with pytest.raises(ValueError):
        parse_churn("explode:1@0.5")
    with pytest.raises(ValueError):
        parse_churn("crash-1")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_messages=st.integers(min_value=1, max_value=20),
)
def test_duplicate_rate_one_delivers_every_message_twice(seed, n_messages):
    config = FaultConfig(duplicate_rate=1.0, seed=seed)
    sys_ = System(3)
    link = FaultyLink(sys_, config)
    delivered = []
    for rank in (1, 2):
        sys_.processes[rank].register("data", lambda proc, msg: delivered.append(msg.payload))
    for i in range(n_messages):
        sys_.processes[0].send(1 + i % 2, "data", payload=i, size=8)
    sys_.run()
    assert sorted(delivered) == sorted(2 * list(range(n_messages)))
    assert link.duplicates == n_messages


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    window=st.floats(min_value=1e-7, max_value=1e-5),
)
def test_fifo_outside_reorder_window(seed, window):
    """Messages whose nominal arrivals are farther apart than the
    reorder window cannot swap: the extra latency is < window."""
    config = FaultConfig(reorder_window=window, seed=seed)
    sys_ = System(2)
    FaultyLink(sys_, config)
    order = []
    sys_.processes[1].register("data", lambda proc, msg: order.append(msg.payload))
    spacing = window * 1.5 + 1e-6

    def send(i):
        sys_.processes[0].send(1, "data", payload=i, size=8)
        if i + 1 < 5:
            sys_.engine.schedule(spacing, send, i + 1)

    send(0)
    sys_.run()
    assert order == sorted(order)


def test_reorder_window_can_swap_adjacent():
    """Back-to-back messages inside the window do swap for some seed —
    the fault path is not secretly FIFO."""
    for seed in range(50):
        config = FaultConfig(reorder_window=5e-5, seed=seed)
        sys_ = System(2)
        FaultyLink(sys_, config)
        order = []
        sys_.processes[1].register(
            "data", lambda proc, msg: order.append(msg.payload)
        )
        sys_.processes[0].send(1, "data", payload=0, size=8)
        sys_.processes[0].send(1, "data", payload=1, size=8)
        sys_.run()
        if order == [1, 0]:
            return
    pytest.fail("no seed produced a reorder inside the window")


def test_detector_completeness_crash_then_quiet():
    """A crashed rank is eventually suspected and stays suspected."""
    config = FaultConfig(
        churn=(ChurnEvent(5e-4, "crash", 2),),
        heartbeat_period=1e-4,
        suspect_timeout=4e-4,
    )
    sys_ = System(4)
    link = FaultyLink(sys_, config)
    detector = HeartbeatFailureDetector(sys_, config)
    detector.start()
    sys_.run(until=5e-3)
    detector.stop()
    assert not link.is_alive(2)
    assert detector.suspected == {2}


def test_detector_eventual_accuracy_no_crash():
    """With everyone alive and heartbeating, nobody stays suspected."""
    config = FaultConfig(
        loss_rate=1e-6,  # keep the layer active without real loss
        heartbeat_period=1e-4,
        suspect_timeout=5e-4,
    )
    sys_ = System(4)
    FaultyLink(sys_, config)
    detector = HeartbeatFailureDetector(sys_, config)
    detector.start()
    sys_.run(until=5e-3)
    detector.stop()
    assert not detector.suspected


def test_detector_unsuspects_after_restart():
    """A restarted rank's first heartbeat clears the suspicion and
    backs its timeout off (eventual accuracy under churn)."""
    config = FaultConfig(
        churn=(ChurnEvent(5e-4, "crash", 1), ChurnEvent(3e-3, "restart", 1)),
        heartbeat_period=1e-4,
        suspect_timeout=4e-4,
    )
    sys_ = System(3)
    FaultyLink(sys_, config)
    detector = HeartbeatFailureDetector(sys_, config)
    detector.start()
    sys_.run(until=2.5e-3)
    assert 1 in detector.suspected
    timeout_before = float(detector.timeouts[1])
    sys_.run(until=6e-3)
    detector.stop()
    assert 1 not in detector.suspected
    assert float(detector.timeouts[1]) > timeout_before


@pytest.mark.parametrize(
    "knob", [{"retransmit": True}, {"max_retries": None}, {"retry_rounds": 2}],
    ids=lambda k: next(iter(k)),
)
def test_faulty_link_refuses_phase_only_knobs(knob):
    with pytest.raises(ValueError, match=f"FaultyLink cannot honour {next(iter(knob))}"):
        FaultyLink(System(2), FaultConfig(loss_rate=0.1, **knob))
