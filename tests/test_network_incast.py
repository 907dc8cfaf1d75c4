"""Tests for the server receive buffers (admission and drain)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.network.incast import ServerBuffers


def make_buffers(n_servers=2, capacity=1000.0, conns_per_server=3):
    conn_server = np.repeat(np.arange(n_servers), conns_per_server)
    return ServerBuffers(n_servers=n_servers, capacity_bytes=capacity, conn_server=conn_server)


class TestConstruction:
    def test_basic_properties(self):
        buffers = make_buffers()
        assert buffers.n_connections == 6
        assert np.allclose(buffers.free_space(), 1000.0)
        assert np.allclose(buffers.occupancy_fraction(), 0.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            ServerBuffers(0, 100.0, np.array([0]))
        with pytest.raises(SimulationError):
            ServerBuffers(2, 0.0, np.array([0]))
        with pytest.raises(SimulationError):
            ServerBuffers(2, 100.0, np.array([5]))


class TestAdmission:
    def test_all_admitted_when_room(self):
        buffers = make_buffers()
        offered = np.full(6, 100.0)
        admitted, oversub = buffers.admit(offered, np.ones(6))
        assert np.allclose(admitted, offered)
        assert not oversub.any()
        assert np.allclose(buffers.fill, 300.0)

    def test_admission_limited_by_capacity(self):
        buffers = make_buffers(capacity=300.0)
        offered = np.full(6, 200.0)
        admitted, oversub = buffers.admit(offered, np.ones(6))
        assert admitted[:3].sum() == pytest.approx(300.0)
        assert oversub.all()
        assert np.all(buffers.fill <= 300.0 + 1e-9)

    def test_max_admission_cap(self):
        buffers = make_buffers(capacity=1e9)
        offered = np.full(6, 500.0)
        admitted, _ = buffers.admit(offered, np.ones(6), max_admission=np.array([600.0, 600.0]))
        assert admitted[:3].sum() == pytest.approx(600.0)
        assert admitted[3:].sum() == pytest.approx(600.0)

    def test_extra_capacity_allows_pipelining(self):
        buffers = make_buffers(capacity=100.0)
        offered = np.full(6, 100.0)
        admitted, _ = buffers.admit(
            offered, np.ones(6), extra_capacity=np.array([200.0, 200.0])
        )
        assert admitted[:3].sum() == pytest.approx(300.0)

    def test_wrong_length_rejected(self):
        buffers = make_buffers()
        with pytest.raises(SimulationError):
            buffers.admit(np.ones(3), np.ones(3))


class TestDrain:
    def test_drain_attribution_proportional(self):
        buffers = make_buffers()
        offered = np.array([300.0, 100.0, 0.0, 0.0, 0.0, 0.0])
        buffers.admit(offered, np.ones(6))
        drained_server, drained_conn = buffers.drain(np.array([200.0, 200.0]))
        assert drained_server[0] == pytest.approx(200.0)
        assert drained_conn[0] == pytest.approx(150.0)
        assert drained_conn[1] == pytest.approx(50.0)
        assert buffers.fill[0] == pytest.approx(200.0)

    def test_drain_cannot_exceed_fill(self):
        buffers = make_buffers()
        buffers.admit(np.full(6, 10.0), np.ones(6))
        drained_server, _ = buffers.drain(np.array([1e9, 1e9]))
        assert np.allclose(drained_server, 30.0)
        assert np.allclose(buffers.fill, 0.0)

    def test_small_residues_are_snapped(self):
        buffers = make_buffers()
        buffers.admit(np.full(6, 10.0), np.ones(6))
        buffers.drain(np.array([30.0 - 1e-8, 30.0 - 1e-8]))
        assert np.allclose(buffers.conn_bytes, 0.0)

    def test_wrong_length_rejected(self):
        buffers = make_buffers()
        with pytest.raises(SimulationError):
            buffers.drain(np.array([1.0]))


class TestStatistics:
    def test_pressure_fraction(self):
        buffers = make_buffers(capacity=100.0)
        buffers.note_step()
        buffers.admit(np.full(6, 100.0), np.ones(6))
        buffers.note_step()
        pressure = buffers.pressure_fraction()
        assert pressure[0] == pytest.approx(0.5)

    def test_per_server_step_weights(self):
        """Each server weighs a step by its own ``dt / base``: server 0 took
        one base step, server 1 a step worth three, with its buffer full."""
        buffers = make_buffers(capacity=100.0)
        buffers.admit(np.array([0.0, 0.0, 0.0, 100.0, 0.0, 0.0]), np.ones(6))
        buffers.note_step(weight=np.array([1.0, 3.0]))
        assert buffers.observed_steps.tolist() == [1.0, 3.0]
        assert buffers.full_steps.tolist() == [0.0, 3.0]
        buffers.note_step(weight=np.array([1.0, 1.0]))
        assert buffers.pressure_fraction().tolist() == [0.0, 1.0]


class TestProportionalAdmissionPaths:
    """The width-classed stacked admission (uniform and ragged groups alike)
    must agree bit-for-bit with the reference proportional_share per server."""

    def reference_admit(self, conn_server, n_servers, offered, weights, capacity):
        from repro.network.allocation import proportional_share

        admitted = np.zeros_like(offered)
        offered_per_server = np.bincount(conn_server, weights=offered, minlength=n_servers)
        for s in np.flatnonzero(offered_per_server > 0):
            mask = conn_server == s
            admitted[mask] = proportional_share(
                offered[mask], float(capacity[s]), weights=weights[mask]
            )
        return admitted

    def check(self, conn_server, n_servers, capacity_bytes, offered, weights):
        conn_server = np.asarray(conn_server, dtype=np.int64)
        buffers = ServerBuffers(
            n_servers=n_servers, capacity_bytes=capacity_bytes, conn_server=conn_server
        )
        admitted, _ = buffers.admit(offered, weights)
        capacity = np.full(n_servers, capacity_bytes)
        expected = self.reference_admit(conn_server, n_servers, offered, weights, capacity)
        assert np.array_equal(admitted, expected)
        return buffers

    def test_ragged_groups_pad_into_width_classes(self):
        conn_server = [0, 0, 0, 1, 1, 2]
        offered = np.array([50.0, 30.0, 40.0, 10.0, 200.0, 5.0])
        weights = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 3.0])
        buffers = self.check(conn_server, 3, 100.0, offered, weights)
        # Each server's row keeps its true width: 3, 2 and 1 connections.
        assert buffers._row_width.tolist() == [3, 2, 1]
        assert buffers._row_start.tolist() == [0, 3, 5]
        # Widths 3/2/1 padded to K=3: 0 + 1 + 2 wasted slots.
        assert buffers.padded_slots == 3
        assert buffers.group_slots == 9

    def test_equal_groups_use_the_stacked_path(self):
        conn_server = [0, 1, 2, 0, 1, 2]
        offered = np.array([80.0, 30.0, 40.0, 90.0, 200.0, 5.0])
        weights = np.ones(6)
        buffers = self.check(conn_server, 3, 100.0, offered, weights)
        # Every server's row is two wide, its connections in index order.
        assert buffers._row_width.tolist() == [2, 2, 2]
        assert buffers._order.tolist() == [0, 3, 1, 4, 2, 5]
        assert buffers.padded_slots == 0

    def test_server_without_connections_pads_harmlessly(self):
        conn_server = [0, 0, 2, 2]
        offered = np.array([90.0, 60.0, 10.0, 20.0])
        weights = np.ones(4)
        buffers = self.check(conn_server, 3, 100.0, offered, weights)
        # Server 1 hosts no connections: its row is empty, and a padded
        # layout would waste K slots on it.
        assert buffers._row_width.tolist() == [2, 0, 2]
        assert buffers.padded_slots == 2

    def test_stacked_path_with_nonuniform_weights(self):
        conn_server = [0, 1, 0, 1]
        offered = np.array([90.0, 120.0, 70.0, 60.0])
        weights = np.array([1.0, 4.0, 2.0, 1.0])
        self.check(conn_server, 2, 100.0, offered, weights)

    def test_stacked_partial_oversubscription(self):
        """Some servers fit, some water-fill, one has no offer at all."""
        conn_server = [0, 1, 2, 0, 1, 2]
        offered = np.array([10.0, 300.0, 0.0, 20.0, 150.0, 0.0])
        weights = np.ones(6)
        self.check(conn_server, 3, 100.0, offered, weights)

    def test_rejects_nonpositive_weights(self):
        buffers = make_buffers()
        with pytest.raises(ValueError):
            buffers.admit(np.full(6, 10.0), np.zeros(6))

    def test_mutating_a_writeable_weights_array_is_picked_up(self):
        """Identity-caching of weights validation only applies to frozen
        arrays; mutating a reused writeable array must change the result."""
        conn_server = np.array([0, 0, 0, 0], dtype=np.int64)
        offered = np.array([100.0, 100.0, 100.0, 100.0])
        weights = np.ones(4)
        buffers = ServerBuffers(1, 100.0, conn_server)
        uniform, _ = buffers.admit(offered, weights)
        buffers.drain(np.array([1e9]))
        weights[0] = 3.0
        biased, _ = buffers.admit(offered, weights)
        assert biased[0] > uniform[0]
        weights[0] = -1.0
        with pytest.raises(ValueError):
            buffers.admit(offered, weights)

    def test_frozen_unit_weights_hit_the_identity_cache(self):
        conn_server = np.array([0, 1, 0, 1], dtype=np.int64)
        offered = np.array([90.0, 120.0, 70.0, 60.0])
        weights = np.ones(4)
        weights.flags.writeable = False
        buffers = ServerBuffers(2, 100.0, conn_server)
        buffers.admit(offered, weights)
        assert buffers._validated_weights is weights
        assert buffers._weights_all_ones
