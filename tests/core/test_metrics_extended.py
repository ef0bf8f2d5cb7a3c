"""Unit tests for the extended metrics (sigma, gini, quartiles, volume)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    gini,
    imbalance,
    sigma_imbalance,
)

loads_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=50
)


class TestSigma:
    def test_uniform_is_zero(self):
        assert sigma_imbalance(np.full(8, 3.0)) == pytest.approx(0.0)

    def test_known_value(self):
        # loads [0, 2]: mean 1, std 1 -> sigma = 1
        assert sigma_imbalance(np.array([0.0, 2.0])) == pytest.approx(1.0)

    def test_empty_and_zero(self):
        assert sigma_imbalance(np.array([])) == 0.0
        assert sigma_imbalance(np.zeros(4)) == 0.0


class TestGini:
    def test_even_is_zero(self):
        assert gini(np.full(10, 2.0)) == pytest.approx(0.0)

    def test_all_on_one(self):
        g = gini(np.array([10.0, 0.0, 0.0, 0.0, 0.0]))
        assert g == pytest.approx(0.8)  # (n-1)/n

    def test_scale_invariant(self):
        loads = np.array([1.0, 2.0, 5.0, 0.5])
        assert gini(loads) == pytest.approx(gini(loads * 37.0))

    @given(loads=loads_strategy)
    @settings(max_examples=50)
    def test_bounds(self, loads):
        g = gini(np.asarray(loads))
        assert -1e-9 <= g < 1.0

    def test_empty(self):
        assert gini(np.array([])) == 0.0


class TestCrossMetricConsistency:
    @given(loads=loads_strategy)
    @settings(max_examples=50)
    def test_more_concentrated_implies_higher_everything(self, loads):
        """Concentrating all load on one rank maximizes all three metrics
        relative to the original distribution."""
        arr = np.asarray(loads)
        concentrated = np.zeros_like(arr)
        concentrated[0] = arr.sum()
        assert imbalance(concentrated) >= imbalance(arr) - 1e-9
        assert gini(concentrated) >= gini(arr) - 1e-9
        assert sigma_imbalance(concentrated) >= sigma_imbalance(arr) - 1e-9
