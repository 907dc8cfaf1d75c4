"""Tests for the round-robin striping arithmetic."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.pfs.striping import (
    extent_to_server_bytes,
    extents_to_server_matrix,
    servers_touched,
    stripe_span,
)

KIB = units.KiB


class TestStripeMath:
    def test_stripe_span(self):
        assert stripe_span(0, 64 * KIB, 64 * KIB) == (0, 0)
        assert stripe_span(0, 64 * KIB + 1, 64 * KIB) == (0, 1)
        assert stripe_span(130 * KIB, 10 * KIB, 64 * KIB) == (2, 2)
        assert stripe_span(10, 0, 64 * KIB) == (0, -1)

    def test_stripe_span_validation(self):
        with pytest.raises(ConfigurationError):
            stripe_span(-1, 10, 64)
        with pytest.raises(ConfigurationError):
            stripe_span(0, 10, 0)


class TestExtentToServerBytes:
    def test_conservation(self):
        out = extent_to_server_bytes(0, 1 * units.MiB, 64 * KIB, (0, 1, 2, 3), 4)
        assert out.sum() == pytest.approx(1 * units.MiB)

    def test_aligned_extent_spreads_evenly(self):
        out = extent_to_server_bytes(0, 4 * 64 * KIB, 64 * KIB, (0, 1, 2, 3), 4)
        assert np.allclose(out, 64 * KIB)

    def test_one_stripe_hits_one_server(self):
        out = extent_to_server_bytes(64 * KIB, 64 * KIB, 64 * KIB, (0, 1, 2, 3), 4)
        assert out[1] == 64 * KIB
        assert out[[0, 2, 3]].sum() == 0

    def test_partial_stripes(self):
        out = extent_to_server_bytes(32 * KIB, 64 * KIB, 64 * KIB, (0, 1), 2)
        assert out[0] == pytest.approx(32 * KIB)
        assert out[1] == pytest.approx(32 * KIB)

    def test_subset_of_servers(self):
        out = extent_to_server_bytes(0, 256 * KIB, 64 * KIB, (2, 5), 8)
        assert out[2] == pytest.approx(128 * KIB)
        assert out[5] == pytest.approx(128 * KIB)
        assert out.sum() == pytest.approx(256 * KIB)

    def test_zero_length(self):
        out = extent_to_server_bytes(0, 0, 64 * KIB, (0, 1), 2)
        assert out.sum() == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            extent_to_server_bytes(0, 10, 64 * KIB, (0, 9), 4)
        with pytest.raises(ConfigurationError):
            extent_to_server_bytes(0, 10, 64 * KIB, (), 4)
        with pytest.raises(ConfigurationError):
            extent_to_server_bytes(0, 10, 64 * KIB, (0,), 0)


class TestMatrixAndTouched:
    def test_matrix_shape_and_conservation(self):
        offsets = np.array([0.0, 1.0 * units.MiB])
        lengths = np.array([256.0 * KIB, 256.0 * KIB])
        matrix = extents_to_server_matrix(offsets, lengths, 64 * KIB, (0, 1, 2, 3), 4)
        assert matrix.shape == (2, 4)
        assert np.allclose(matrix.sum(axis=1), lengths)

    def test_matrix_validation(self):
        with pytest.raises(ConfigurationError):
            extents_to_server_matrix(np.array([0.0]), np.array([1.0, 2.0]), 64, (0,), 1)

    def test_servers_touched_counts(self):
        servers = tuple(range(12))
        # 256 KiB request with 64 KiB stripes -> 4 servers.
        assert len(servers_touched(0, 256 * KIB, 64 * KIB, servers)) == 4
        # Same request with a 256 KiB stripe -> 1 server.
        assert len(servers_touched(0, 256 * KIB, 256 * KIB, servers)) == 1
        # A huge request touches every server exactly once in the result.
        touched = servers_touched(0, 100 * units.MiB, 64 * KIB, servers)
        assert sorted(touched) == list(servers)

    def test_servers_touched_empty_extent(self):
        assert servers_touched(0, 0, 64 * KIB, (0, 1)) == ()
