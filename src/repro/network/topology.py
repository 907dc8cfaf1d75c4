"""Storage-network topology.

The paper's testbed connects all compute nodes and storage servers through a
single 10 Gbps Ethernet switch, so the topology is a star: every node has an
uplink to the fabric and every server a downlink from it.  The fabric itself
is assumed non-blocking (the paper's server-partitioning experiment shows the
switch core is not the point of contention), but the class keeps per-link
accounting so that assumption can be checked a posteriori.
"""

from __future__ import annotations

from typing import Dict, List, Union

import numpy as np

from repro.config.network import NetworkConfig
from repro.errors import ConfigurationError, SimulationError
from repro.network.link import Link
from repro.network.nic import NIC

__all__ = ["StarTopology"]


class StarTopology:
    """A single-switch topology with per-endpoint links.

    Parameters
    ----------
    n_client_nodes:
        Number of compute nodes.
    n_servers:
        Number of storage servers.
    network:
        Link-rate configuration.
    """

    def __init__(self, n_client_nodes: int, n_servers: int, network: NetworkConfig) -> None:
        if n_client_nodes <= 0 or n_servers <= 0:
            raise ConfigurationError("topology needs at least one node and one server")
        self.network = network
        self.client_nics: List[NIC] = [
            NIC(node_id=i, line_rate=network.client_nic_bw, injection_bw=network.node_injection_bw)
            for i in range(n_client_nodes)
        ]
        self.server_downlinks: List[Link] = [
            Link(name=f"fabric->server{s}", capacity=network.server_nic_bw)
            for s in range(n_servers)
        ]
        # Per-link accounting lives in flat arrays so the per-step hot path
        # (record_step) is a handful of vectorized ops instead of a Python
        # loop over NIC/Link objects.  The objects above only carry names and
        # capacities (construction-time validation, report labels): their own
        # per-object counters are NOT fed by record_step — read utilization
        # through this class's report methods, never through the objects.
        self._node_capacity = np.array(
            [nic.effective_bw for nic in self.client_nics], dtype=np.float64
        )
        self._server_capacity = np.array(
            [link.capacity for link in self.server_downlinks], dtype=np.float64
        )
        self._node_busy = np.zeros(n_client_nodes, dtype=np.float64)
        self._node_transferred = np.zeros(n_client_nodes, dtype=np.float64)
        self._server_busy = np.zeros(n_servers, dtype=np.float64)
        self._server_transferred = np.zeros(n_servers, dtype=np.float64)
        self._observed_time = 0.0
        self._scratch_node = np.empty(n_client_nodes, dtype=np.float64)
        self._scratch_node2 = np.empty(n_client_nodes, dtype=np.float64)
        self._scratch_server = np.empty(n_servers, dtype=np.float64)
        self._scratch_server2 = np.empty(n_servers, dtype=np.float64)

    # ------------------------------------------------------------------ #

    @property
    def n_client_nodes(self) -> int:
        """Number of compute nodes in the topology."""
        return len(self.client_nics)

    @property
    def n_servers(self) -> int:
        """Number of storage servers in the topology."""
        return len(self.server_downlinks)

    def node_capacities(self) -> np.ndarray:
        """Per-node usable injection bandwidth (bytes/s)."""
        return np.array([nic.effective_bw for nic in self.client_nics], dtype=np.float64)

    def server_capacities(self) -> np.ndarray:
        """Per-server downlink bandwidth (bytes/s)."""
        return np.array([link.capacity for link in self.server_downlinks], dtype=np.float64)

    def record_step(
        self,
        per_node_bytes: np.ndarray,
        per_server_bytes: np.ndarray,
        dt: float,
    ) -> None:
        """Account for one step of traffic on every link.

        Bytes beyond a link's step capacity are clamped (the model's group
        caps already keep traffic within capacity; the clamp guards float
        round-off).  Negative byte counts are rejected.
        """
        per_node_bytes = np.asarray(per_node_bytes, dtype=np.float64)
        per_server_bytes = np.asarray(per_server_bytes, dtype=np.float64)
        if per_node_bytes.shape[0] != self.n_client_nodes:
            raise ConfigurationError("per_node_bytes has the wrong length")
        if per_server_bytes.shape[0] != self.n_servers:
            raise ConfigurationError("per_server_bytes has the wrong length")
        if dt <= 0:
            raise SimulationError("dt must be positive")
        if np.any(per_node_bytes < 0) or np.any(per_server_bytes < 0):
            raise SimulationError("cannot record a negative number of bytes")
        self._observed_time += dt
        self.record_step_flat(per_node_bytes, per_server_bytes, dt, dt)

    def record_step_flat(
        self,
        per_node_bytes: np.ndarray,
        per_server_bytes: np.ndarray,
        node_dt: Union[float, np.ndarray],
        server_dt: Union[float, np.ndarray],
    ) -> None:
        """:meth:`record_step` for the model stepper: no input validation
        (its per-step bincounts are well-formed by construction), steps that
        may differ per link (a batch's members step on their own clocks, and
        every link lane carries its member's step), and no observed-time
        advance (the stepper keeps each member's observed time itself)."""
        self._record_group(
            per_node_bytes, self._node_capacity, self._node_transferred,
            self._node_busy, self._scratch_node, self._scratch_node2, node_dt,
        )
        self._record_group(
            per_server_bytes, self._server_capacity, self._server_transferred,
            self._server_busy, self._scratch_server, self._scratch_server2, server_dt,
        )

    @staticmethod
    def _record_group(
        nbytes: np.ndarray,
        capacity: np.ndarray,
        transferred: np.ndarray,
        busy: np.ndarray,
        limit: np.ndarray,
        clipped: np.ndarray,
        dt: Union[float, np.ndarray],
    ) -> None:
        np.multiply(capacity, dt, out=limit)
        np.minimum(nbytes, limit, out=clipped)
        transferred += clipped
        np.divide(clipped, limit, out=clipped)
        np.minimum(clipped, 1.0, out=clipped)
        clipped *= dt
        busy += clipped

    def _utilizations(self, busy: np.ndarray) -> np.ndarray:
        if self._observed_time == 0:
            return np.zeros_like(busy)
        return np.minimum(busy / self._observed_time, 1.0)

    def utilization_report(self) -> Dict[str, float]:
        """Utilization of every link, keyed by link name."""
        report: Dict[str, float] = {}
        node_util = self._utilizations(self._node_busy)
        for nic, value in zip(self.client_nics, node_util):
            report[nic.uplink.name] = float(value)
        server_util = self._utilizations(self._server_busy)
        for link, value in zip(self.server_downlinks, server_util):
            report[link.name] = float(value)
        return report

    def max_client_utilization(self) -> float:
        """Highest client-uplink utilization (root-cause indicator)."""
        if not self.client_nics:
            return 0.0
        return float(self._utilizations(self._node_busy).max())

    def max_server_utilization(self) -> float:
        """Highest server-downlink utilization (root-cause indicator)."""
        if not self.server_downlinks:
            return 0.0
        return float(self._utilizations(self._server_busy).max())
