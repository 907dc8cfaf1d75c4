"""Tests for the TimeSeries container."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.sim.timeseries import TimeSeries


def make_series():
    ts = TimeSeries(name="load", unit="B/s")
    for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (4.0, 5.0)]:
        ts.append(t, v)
    return ts


class TestConstruction:
    def test_append_and_len(self):
        ts = make_series()
        assert len(ts) == 4
        assert ts.times.tolist() == [0.0, 1.0, 2.0, 4.0]
        assert ts.values.tolist() == [1.0, 3.0, 2.0, 5.0]

    def test_out_of_order_rejected(self):
        ts = make_series()
        with pytest.raises(AnalysisError):
            ts.append(3.0, 1.0)

    def test_growth_beyond_initial_capacity(self):
        ts = TimeSeries()
        for i in range(1000):
            ts.append(float(i), float(i * 2))
        assert len(ts) == 1000
        assert ts.values[-1] == 1998.0

    def test_growth_keeps_every_sample(self):
        """Appends across several doublings of the initial capacity, and a
        bulk extend past the current one, keep every sample in order."""
        from repro.sim.timeseries import _INITIAL_CAPACITY

        n = _INITIAL_CAPACITY * 8 + 1
        ts = TimeSeries()
        for i in range(n):
            ts.append(float(i), float(-i))
            assert ts.times.tolist() == [float(k) for k in range(i + 1)]
        ts.extend(np.arange(n, 3 * n, dtype=np.float64), np.zeros(2 * n))
        assert ts.times.tolist() == [float(k) for k in range(3 * n)]
        assert ts.values.tolist() == [float(-k) for k in range(n)] + [0.0] * (2 * n)

    def test_from_arrays_roundtrip(self):
        ts = make_series()
        clone = TimeSeries.from_arrays(ts.times, ts.values, name="clone")
        assert np.allclose(clone.times, ts.times)
        assert np.allclose(clone.values, ts.values)

    def test_from_arrays_validation(self):
        with pytest.raises(AnalysisError):
            TimeSeries.from_arrays(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(AnalysisError):
            TimeSeries.from_arrays(np.array([1.0, 0.0]), np.array([1.0, 2.0]))

    def test_extend(self):
        ts = TimeSeries()
        ts.extend([0.0, 1.0], [5.0, 6.0])
        assert len(ts) == 2

    def test_extend_bulk_matches_repeated_append(self):
        times = np.sort(np.random.default_rng(7).uniform(0.0, 10.0, size=1000))
        values = np.arange(1000, dtype=np.float64)
        bulk = TimeSeries()
        bulk.extend(times, values)
        one_by_one = TimeSeries()
        for t, v in zip(times, values):
            one_by_one.append(float(t), float(v))
        assert np.array_equal(bulk.times, one_by_one.times)
        assert np.array_equal(bulk.values, one_by_one.values)

    def test_extend_grows_once_past_capacity(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        ts.extend(np.arange(1.0, 1001.0), np.zeros(1000))
        assert len(ts) == 1001
        assert ts.times[-1] == 1000.0

    def test_extend_validates_order(self):
        ts = TimeSeries()
        with pytest.raises(AnalysisError):
            ts.extend([1.0, 0.5], [0.0, 0.0])  # internally out of order
        ts.append(5.0, 0.0)
        with pytest.raises(AnalysisError):
            ts.extend([4.0, 6.0], [0.0, 0.0])  # precedes the last sample
        with pytest.raises(AnalysisError):
            ts.extend([6.0, 7.0], [0.0])  # shape mismatch
        assert len(ts) == 1

    def test_extend_empty_is_a_no_op(self):
        ts = TimeSeries()
        ts.extend([], [])
        assert ts.is_empty()

    def test_extend_accepts_generators(self):
        ts = TimeSeries()
        ts.extend((float(t) for t in range(5)), (float(v) for v in range(5)))
        assert len(ts) == 5
        assert ts.times[-1] == 4.0

    def test_dict_roundtrip(self):
        ts = make_series()
        clone = TimeSeries.from_dict(ts.to_dict())
        assert np.allclose(clone.times, ts.times)
        assert clone.name == "load"
        assert clone.unit == "B/s"


class TestQueries:
    def test_last(self):
        assert make_series().last() == (4.0, 5.0)

    def test_empty_queries_raise(self):
        ts = TimeSeries()
        assert ts.is_empty()
        with pytest.raises(AnalysisError):
            ts.last()
        with pytest.raises(AnalysisError):
            ts.mean()
        with pytest.raises(AnalysisError):
            ts.value_at(1.0)

    def test_value_at_sample_and_hold(self):
        ts = make_series()
        assert ts.value_at(0.5) == 1.0
        assert ts.value_at(1.0) == 3.0
        assert ts.value_at(3.9) == 2.0
        assert ts.value_at(100.0) == 5.0
        assert ts.value_at(-1.0) == 1.0

    def test_statistics(self):
        ts = make_series()
        assert ts.max() == 5.0
        assert ts.min() == 1.0
        assert ts.duration() == 4.0
        # time-weighted mean of piecewise constant: (1*1 + 3*1 + 2*2)/4
        assert ts.mean() == pytest.approx(2.0)
        assert ts.integral() == pytest.approx(8.0)

    def test_resample(self):
        ts = make_series()
        values = ts.resample(np.array([0.0, 1.5, 3.0, 10.0]))
        assert values.tolist() == [1.0, 3.0, 2.0, 5.0]

    def test_window(self):
        ts = make_series()
        win = ts.window(1.0, 2.5)
        assert win.times.tolist() == [1.0, 2.0]
        with pytest.raises(AnalysisError):
            ts.window(3.0, 1.0)

    def test_diff(self):
        ts = make_series()
        diff = ts.diff()
        assert diff.times.tolist() == [1.0, 2.0, 4.0]
        assert diff.values.tolist() == [2.0, -1.0, 3.0]
        assert len(TimeSeries().diff()) == 0
