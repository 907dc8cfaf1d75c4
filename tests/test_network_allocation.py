"""Tests for the per-server water-filling oracle."""

import numpy as np
import pytest

from repro.network.allocation import proportional_share


class TestProportionalShare:
    def test_under_capacity_everyone_satisfied(self):
        demands = np.array([1.0, 2.0, 3.0])
        alloc = proportional_share(demands, 100.0)
        assert np.allclose(alloc, demands)

    def test_over_capacity_conserves_capacity(self):
        demands = np.array([10.0, 10.0, 10.0, 10.0])
        alloc = proportional_share(demands, 20.0)
        assert alloc.sum() == pytest.approx(20.0)
        assert np.allclose(alloc, 5.0)

    def test_never_exceeds_demand(self):
        demands = np.array([1.0, 100.0])
        alloc = proportional_share(demands, 50.0)
        assert alloc[0] <= 1.0 + 1e-9
        assert alloc.sum() == pytest.approx(50.0)

    def test_weights_bias_allocation(self):
        demands = np.array([100.0, 100.0])
        alloc = proportional_share(demands, 50.0, weights=np.array([3.0, 1.0]))
        assert alloc[0] > alloc[1]
        assert alloc.sum() == pytest.approx(50.0)

    def test_zero_capacity(self):
        assert proportional_share(np.array([5.0]), 0.0).sum() == 0.0

    def test_empty(self):
        assert proportional_share(np.array([]), 10.0).size == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            proportional_share(np.array([[1.0]]), 1.0)
        with pytest.raises(ValueError):
            proportional_share(np.array([1.0]), 1.0, weights=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            proportional_share(np.array([1.0]), 1.0, weights=np.array([0.0]))
