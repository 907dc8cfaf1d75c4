"""Tests for the star topology's per-link capacities and accounting."""

import numpy as np
import pytest

from repro import units
from repro.config.network import NetworkConfig
from repro.errors import ConfigurationError
from repro.network.topology import StarTopology


class TestStarTopology:
    def make(self):
        return StarTopology(n_client_nodes=3, n_servers=2, network=NetworkConfig())

    def test_capacities(self):
        topo = self.make()
        assert topo.node_capacities().shape == (3,)
        assert topo.server_capacities().shape == (2,)
        assert np.all(topo.node_capacities() > 0)

    def test_node_capacity_is_min_of_nic_and_injection(self):
        fast_nic = NetworkConfig(client_nic_bw=1.25e9, node_injection_bw=220 * units.MiB)
        slow_nic = NetworkConfig(client_nic_bw=125e6, node_injection_bw=220 * units.MiB)
        assert StarTopology(2, 1, fast_nic).node_capacities().tolist() == [220 * units.MiB] * 2
        assert StarTopology(2, 1, slow_nic).node_capacities().tolist() == [125e6] * 2
        assert StarTopology(2, 3, slow_nic).server_capacities().tolist() == [
            slow_nic.server_nic_bw
        ] * 3

    def test_int_rates_give_float_capacities(self):
        network = NetworkConfig(client_nic_bw=10**9, server_nic_bw=10**9,
                                node_injection_bw=220 * units.MiB)
        topo = StarTopology(2, 2, network)
        assert topo.node_capacities().dtype == np.float64
        assert topo.server_capacities().dtype == np.float64

    def test_record_step_flat_and_max_utilization(self):
        network = NetworkConfig(client_nic_bw=100.0, node_injection_bw=100.0,
                                server_nic_bw=200.0)
        topo = StarTopology(n_client_nodes=3, n_servers=2, network=network)
        assert topo.max_client_utilization() == 0.0
        # Node 0 sends half its step capacity, node 1 more than all of it
        # (clamped to 1); per-link steps may differ.
        node_dt = np.array([0.1, 0.2, 0.1])
        topo.record_step_flat(
            np.array([5.0, 30.0, 0.0]), np.array([20.0, 0.0]), node_dt, 0.1,
            topo.node_capacities() * node_dt, topo.server_capacities() * 0.1,
        )
        topo.observed_time = 0.2
        assert topo.max_client_utilization() == pytest.approx(1.0)
        assert topo.max_server_utilization() == pytest.approx(0.5)

    def test_stacked_keeps_each_topology_capacities(self):
        ten_g = StarTopology(2, 3, NetworkConfig())
        one_g = StarTopology(
            1, 2, NetworkConfig(client_nic_bw=125e6, server_nic_bw=125e6)
        )
        flat = StarTopology.stacked([ten_g, one_g])
        assert flat.n_client_nodes == 3 and flat.n_servers == 5
        assert flat.node_capacities().tolist() == (
            ten_g.node_capacities().tolist() + one_g.node_capacities().tolist()
        )
        assert flat.server_capacities().tolist() == (
            ten_g.server_capacities().tolist() + one_g.server_capacities().tolist()
        )
        assert flat.observed_time == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StarTopology(0, 2, NetworkConfig())
