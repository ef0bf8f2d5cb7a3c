"""Stage-timeout envelope of the event-level inform stage.

The faulty branch of :func:`repro.runtime.lbmanager.event_inform_stage`
bounds the stage by
``start + stage_timeout`` with a peek/step loop, then advances the
clock with ``Engine.run(until=deadline)``. Both treat an event landing
exactly on the deadline as inside the budget, so the seam between them
cannot double-dispatch or skip an event. These tests pin the envelope
— including the degenerate budget that expires before the first
delivery matures — so a future driver change that drifts either side
of the seam fails a seeded regression, not a debugging session.
"""

import numpy as np
import pytest

from repro.runtime.lbmanager import event_inform_stage
from repro.sim.faults import FaultConfig, FaultyLink, parse_churn
from repro.sim.process import System

N_RANKS = 16
SEED = 3


def _loads():
    return np.random.default_rng(SEED).gamma(2.0, 1.0, size=N_RANKS)


def _system(stage_timeout):
    """A system whose only active fault source is a far-future crash —
    it flips the driver onto the timeout-bounded branch without ever
    perturbing a message inside the stage."""
    system = System(N_RANKS)
    FaultyLink(
        system,
        FaultConfig(churn=parse_churn("crash:3@5.0"), stage_timeout=stage_timeout),
    )
    return system


def _run(stage_timeout):
    system = _system(stage_timeout)
    start = system.engine.now
    outcome, elapsed = event_inform_stage(system, _loads())
    return system, start, outcome, elapsed


class TestStageTimeout:
    def test_zero_remaining_budget_yields_seeds_only(self):
        """A budget that expires before the first delivery matures:
        the stage returns seed self-knowledge, charges exactly the
        budget, and does not crash or hang."""
        system, start, outcome, elapsed = _run(1e-12)
        assert elapsed == pytest.approx(1e-12)
        assert system.engine.now == pytest.approx(start + 1e-12)
        # Round-1 sends happened (they are charged at send time) but
        # nothing was delivered, so coverage is the seeds' own bits.
        assert outcome.n_messages > 0
        # Each seed knows exactly itself out of U underloaded ranks and
        # everyone else knows nothing: mean coverage is U*(1/U)/P = 1/P.
        assert outcome.underloaded.sum() > 0
        assert outcome.coverage() == pytest.approx(
            1.0 / N_RANKS
        )

    def test_timeout_charges_exactly_the_budget(self):
        """When quiescence beats the deadline, elapsed is the detection
        time; the clock never overshoots the deadline either way."""
        timeout = 2e-3
        system, start, _, elapsed = _run(timeout)
        assert 0.0 < elapsed <= timeout
        assert system.engine.now - start <= timeout

    def test_envelope_is_seed_deterministic(self):
        """Same seed, same budget -> bit-identical stage outcome."""
        for timeout in (1e-12, 2e-3):
            _, _, a, a_elapsed = _run(timeout)
            _, _, b, b_elapsed = _run(timeout)
            assert a.n_messages == b.n_messages
            assert a.bytes_sent == b.bytes_sent
            assert a_elapsed == b_elapsed
            for rank in range(N_RANKS):
                np.testing.assert_array_equal(
                    a.knowledge.known(rank), b.knowledge.known(rank)
                )

    def test_expired_stage_does_not_poison_the_next(self):
        """Deliveries stranded past the deadline must be inert: a
        second stage on the same system runs to normal quiescence with
        its own accounting, never consuming the stale messages."""
        system, _, first, _ = _run(1e-12)
        stranded = system.engine.pending
        assert stranded > 1  # the undelivered round-1 sends + the churn event
        # Restore a workable budget for the follow-up stage; the first
        # stage's closed-flag must keep its stranded deliveries inert.
        system.faults.config = FaultConfig(
            churn=parse_churn("crash:3@5.0"), stage_timeout=2e-3
        )
        second, _ = event_inform_stage(system, _loads())
        assert second.n_messages > first.n_messages
        assert second.coverage() > 0.9
