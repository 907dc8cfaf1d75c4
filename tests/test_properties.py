"""Property-based tests (hypothesis) on the core data structures and laws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core import metrics
from repro.network.allocation import proportional_share
from repro.pfs.striping import extent_to_server_bytes, servers_touched
from repro.sim.timeseries import TimeSeries
from repro.storage.hdd import hdd_7200rpm

# --------------------------------------------------------------------------- #
# Allocation invariants
# --------------------------------------------------------------------------- #

demands_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(demands=demands_strategy, capacity=st.floats(min_value=0.0, max_value=1e9))
@settings(max_examples=60, deadline=None)
def test_proportional_share_conserves_and_caps(demands, capacity):
    demands = np.asarray(demands)
    alloc = proportional_share(demands, capacity)
    assert np.all(alloc >= -1e-9)
    assert np.all(alloc <= demands + 1e-6)
    assert alloc.sum() <= min(capacity, demands.sum()) * (1 + 1e-6) + 1e-6
    if demands.sum() <= capacity:
        assert np.allclose(alloc, demands)


# --------------------------------------------------------------------------- #
# Striping invariants
# --------------------------------------------------------------------------- #


@given(
    offset=st.floats(min_value=0, max_value=1e12),
    length=st.floats(min_value=0, max_value=1e9),
    stripe_kib=st.sampled_from([16, 64, 128, 256, 1024]),
    n_servers=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=100, deadline=None)
def test_striping_conserves_bytes(offset, length, stripe_kib, n_servers):
    servers = tuple(range(n_servers))
    out = extent_to_server_bytes(offset, length, stripe_kib * units.KiB, servers, n_servers)
    assert out.sum() == np.float64(length) or abs(out.sum() - length) < 1e-3
    assert np.all(out >= 0)


@given(
    length=st.floats(min_value=1.0, max_value=64 * units.MiB),
    stripe_kib=st.sampled_from([64, 128, 256]),
    n_servers=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=60, deadline=None)
def test_servers_touched_bounded(length, stripe_kib, n_servers):
    servers = tuple(range(n_servers))
    stripe = stripe_kib * units.KiB
    touched = servers_touched(0.0, length, stripe, servers)
    assert 1 <= len(touched) <= n_servers
    assert len(touched) <= int(np.ceil(length / stripe))
    assert len(set(touched)) == len(touched)


# --------------------------------------------------------------------------- #
# Device-law invariants
# --------------------------------------------------------------------------- #


@given(
    n_streams=st.integers(min_value=1, max_value=512),
    granule_kib=st.floats(min_value=4, max_value=16384),
)
@settings(max_examples=80, deadline=None)
def test_device_bandwidth_bounded_and_monotone(n_streams, granule_kib):
    hdd = hdd_7200rpm()
    granule = granule_kib * units.KiB
    bw = hdd.effective_write_bw(n_streams, granule)
    assert 0 < bw <= hdd.write_bw
    # More streams never increase bandwidth.
    assert bw <= hdd.effective_write_bw(max(n_streams - 1, 1), granule) + 1e-6
    # Larger granularity never decreases bandwidth.
    assert hdd.effective_write_bw(n_streams, granule * 2) >= bw - 1e-6


# --------------------------------------------------------------------------- #
# Time-series invariants
# --------------------------------------------------------------------------- #


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
@settings(max_examples=60, deadline=None)
def test_timeseries_statistics_within_bounds(values):
    ts = TimeSeries()
    for i, v in enumerate(values):
        ts.append(float(i), float(v))
    assert ts.min() <= ts.mean() <= ts.max()
    assert len(ts) == len(values)
    resampled = ts.resample(np.array([0.5, len(values) + 5.0]))
    assert resampled[0] == values[0]
    assert resampled[-1] == values[-1]


# --------------------------------------------------------------------------- #
# Metric invariants
# --------------------------------------------------------------------------- #


@given(
    alone=st.floats(min_value=0.1, max_value=1e4),
    factor=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_interference_factor_roundtrip(alone, factor):
    contended = alone * factor
    assert metrics.interference_factor(contended, alone) == np.float64(factor) or abs(
        metrics.interference_factor(contended, alone) - factor
    ) < 1e-9


@given(
    times=st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=20),
    alone=st.floats(min_value=0.1, max_value=1e3),
)
@settings(max_examples=60, deadline=None)
def test_flatness_consistent_with_is_flat(times, alone):
    flatness = metrics.flatness_index(times, alone)
    assert metrics.is_flat(times, alone, tolerance=flatness + 1e-9)
    if flatness > 0.15:
        assert not metrics.is_flat(times, alone)
