"""Tie-breaking determinism of the best-trial selection (Alg. 3 l.13).

When two trials reach an equal best imbalance, the strict ``<`` in
``_select_best`` must keep the *lowest trial index* — under every
backend and worker count, because outcomes always merge in
trial order. A completion-order merge (the classic as-completed bug)
would make the winner depend on scheduling.
"""

import numpy as np
import pytest

from repro.core.refinement import (
    RefinementResult,
    _select_best,
    _TrialOutcome,
    iterative_refinement,
)
from repro.workloads.synthetic import paper_analysis_scenario
from tests.core.test_trial_executor import BACKENDS, force_backend


def fresh_result(initial=5.0):
    return RefinementResult(
        best_assignment=np.array([0, 0, 0]),
        best_imbalance=initial,
        initial_imbalance=initial,
    )


class TestSelectBestTieBreaking:
    def test_equal_best_imbalance_keeps_lowest_trial(self):
        first = _TrialOutcome(best_imbalance=1.0, best_assignment=np.array([1, 0, 0]))
        second = _TrialOutcome(best_imbalance=1.0, best_assignment=np.array([0, 1, 0]))
        result = fresh_result()
        _select_best(result, [first, second])
        assert result.best_imbalance == 1.0
        assert result.best_assignment is first.best_assignment

    def test_three_way_tie_keeps_first(self):
        outcomes = [
            _TrialOutcome(best_imbalance=2.0, best_assignment=np.array([t, 0, 0]))
            for t in range(3)
        ]
        result = fresh_result()
        _select_best(result, outcomes)
        assert result.best_assignment is outcomes[0].best_assignment

    def test_tie_with_initial_keeps_original_assignment(self):
        # A proposal merely equal to the initial imbalance is not an
        # improvement; the original (zero-migration) assignment wins.
        outcome = _TrialOutcome(best_imbalance=5.0, best_assignment=np.array([1, 1, 1]))
        result = fresh_result(initial=5.0)
        original = result.best_assignment
        _select_best(result, [outcome])
        assert result.best_assignment is original

    def test_strictly_better_later_trial_still_wins(self):
        first = _TrialOutcome(best_imbalance=1.0, best_assignment=np.array([1, 0, 0]))
        second = _TrialOutcome(best_imbalance=0.5, best_assignment=np.array([0, 1, 0]))
        result = fresh_result()
        _select_best(result, [first, second])
        assert result.best_imbalance == 0.5
        assert result.best_assignment is second.best_assignment

    def test_empty_trial_outcome_never_selected(self):
        result = fresh_result()
        _select_best(result, [_TrialOutcome()])  # no iterations recorded
        assert result.best_imbalance == result.initial_imbalance


class TestSeededBackendSelection:
    """End to end: the winner is identical under every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_selection_matches_serial_reference(self, backend, workers, monkeypatch):
        dist = paper_analysis_scenario(
            n_tasks=400, n_loaded_ranks=4, n_ranks=32, seed=1
        )
        kwargs = dict(n_trials=4, n_iters=3)
        reference = iterative_refinement(
            dist, rng=np.random.default_rng(13), n_workers=1, **kwargs
        )
        force_backend(monkeypatch, backend)
        result = iterative_refinement(
            dist, rng=np.random.default_rng(13), n_workers=workers, **kwargs
        )
        assert np.array_equal(result.best_assignment, reference.best_assignment)
        assert result.best_imbalance == reference.best_imbalance
        # The winner is the lowest-indexed trial achieving the global
        # minimum over all recorded iterations.
        best = min(r.imbalance for r in result.records)
        winners = sorted(r.trial for r in result.records if r.imbalance == best)
        ref_best = min(r.imbalance for r in reference.records)
        ref_winners = sorted(r.trial for r in reference.records if r.imbalance == ref_best)
        assert best == ref_best
        assert winners[0] == ref_winners[0]
