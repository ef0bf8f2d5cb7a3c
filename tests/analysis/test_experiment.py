"""Unit tests for repro.analysis.experiment."""

import pytest

from repro.analysis import criterion_comparison, criterion_study
from repro.workloads import paper_analysis_scenario


def scenario():
    return paper_analysis_scenario(n_tasks=400, n_loaded_ranks=4, n_ranks=64, seed=0)


class TestCriterionStudy:
    def test_records_one_per_iteration(self):
        s = criterion_study(scenario(), "relaxed", n_iters=4, rng=0)
        assert len(s.records) == 4
        assert [r.iteration for r in s.records] == [1, 2, 3, 4]

    def test_imbalances_include_iteration_zero(self):
        s = criterion_study(scenario(), "relaxed", n_iters=3, rng=0)
        vals = s.imbalances()
        assert len(vals) == 4
        assert vals[0] == pytest.approx(s.initial_imbalance)

    def test_relaxed_outperforms_original(self):
        d = scenario()
        orig = criterion_study(d, "original", n_iters=6, rng=1)
        relax = criterion_study(d, "relaxed", n_iters=6, rng=1)
        assert relax.final_imbalance < orig.final_imbalance

    def test_original_high_rejection_after_first_iteration(self):
        # The § V-B signature: near-total rejection from iteration 2 on.
        s = criterion_study(scenario(), "original", n_iters=5, rng=2)
        later = [r.rejection_rate for r in s.records[1:]]
        assert min(later) > 80.0

    def test_relaxed_rejection_starts_low_then_climbs(self):
        s = criterion_study(scenario(), "relaxed", n_iters=6, rng=2)
        assert s.records[0].rejection_rate < s.records[-1].rejection_rate

    def test_invalid_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            criterion_study(scenario(), "bogus")

    def test_final_imbalance_without_records(self):
        from repro.analysis.experiment import CriterionStudy

        s = CriterionStudy(criterion="relaxed", initial_imbalance=5.0)
        assert s.final_imbalance == 5.0


class TestCriterionComparison:
    def test_both_criteria_present(self):
        out = criterion_comparison(scenario(), n_iters=3, seed=0)
        assert set(out) == {"original", "relaxed"}

    def test_same_initial_state(self):
        out = criterion_comparison(scenario(), n_iters=2, seed=0)
        assert out["original"].initial_imbalance == pytest.approx(
            out["relaxed"].initial_imbalance
        )
