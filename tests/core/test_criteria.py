"""Unit tests for repro.core.criteria (Algorithm 2 EVALUATECRITERION)."""

import pytest

from repro.core.criteria import (
    CRITERIA,
    CRITERION_ORIGINAL,
    CRITERION_RELAXED,
    original_criterion,
    relaxed_criterion,
)
from repro.core.transfer import TransferConfig


class TestOriginal:
    def test_accepts_when_recipient_stays_under_average(self):
        assert original_criterion(l_x=0.5, task_load=0.4, l_ave=1.0, l_p=5.0)

    def test_rejects_at_exactly_average(self):
        assert not original_criterion(l_x=0.5, task_load=0.5, l_ave=1.0, l_p=5.0)

    def test_rejects_task_heavier_than_average(self):
        # Any task with load >= l_ave can never move under the original
        # criterion, even to an empty rank — the fragmentation trap.
        assert not original_criterion(l_x=0.0, task_load=1.0, l_ave=1.0, l_p=100.0)

    def test_ignores_sender_load(self):
        assert original_criterion(0.0, 0.5, 1.0, l_p=0.6) == original_criterion(
            0.0, 0.5, 1.0, l_p=1e9
        )


class TestRelaxed:
    def test_accepts_heavy_task_to_empty_rank(self):
        # The case the original rejects: task heavier than the average.
        assert relaxed_criterion(l_x=0.0, task_load=1.0, l_ave=1.0, l_p=100.0)

    def test_rejects_when_recipient_would_match_sender(self):
        # l_x + load == l_p exactly: not a strict improvement.
        assert not relaxed_criterion(l_x=1.0, task_load=4.0, l_ave=1.0, l_p=5.0)

    def test_rejects_when_recipient_would_exceed_sender(self):
        assert not relaxed_criterion(l_x=3.0, task_load=4.0, l_ave=1.0, l_p=5.0)

    def test_equivalent_formulation(self):
        # LOAD(o) < l_p - l_x  <=>  l_x + LOAD(o) < l_p
        for l_x, load, l_p in [(0.2, 0.3, 1.0), (1.0, 1.0, 1.5), (0.0, 2.0, 2.0)]:
            assert relaxed_criterion(l_x, load, 1.0, l_p) == (l_x + load < l_p)

    def test_less_strict_than_original(self):
        # Whenever the original accepts and the sender is overloaded
        # (l_p > l_ave), the relaxed criterion accepts too.
        cases = [(0.0, 0.5, 1.0, 2.0), (0.3, 0.3, 1.0, 1.5), (0.1, 0.05, 1.0, 9.0)]
        for l_x, load, l_ave, l_p in cases:
            if original_criterion(l_x, load, l_ave, l_p):
                assert relaxed_criterion(l_x, load, l_ave, l_p)


class TestDispatch:
    def test_named_dispatch(self):
        assert CRITERIA[CRITERION_ORIGINAL] is original_criterion
        assert CRITERIA[CRITERION_RELAXED] is relaxed_criterion
        assert CRITERIA[CRITERION_ORIGINAL](0.0, 0.5, 1.0, 2.0)
        assert CRITERIA[CRITERION_RELAXED](0.0, 1.5, 1.0, 2.0)

    def test_unknown_name(self):
        # Transfer dispatches through CRITERIA; the config refuses any
        # other name before a stage runs.
        with pytest.raises(ValueError, match="criterion"):
            TransferConfig(criterion="strict")
