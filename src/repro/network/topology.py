"""Storage-network topology.

The paper's testbed connects all compute nodes and storage servers through a
single 10 Gbps Ethernet switch, so the topology is a star: every node has an
uplink to the fabric and every server a downlink from it.  The fabric itself
is assumed non-blocking (the paper's server-partitioning experiment shows the
switch core is not the point of contention), but the class accounts for the
traffic on every endpoint link so that assumption can be checked a
posteriori: :class:`StarTopology` holds one capacity and one busy-time and
byte counter per link, in flat per-link arrays that the stepping kernel
updates once per step (in the native kernel, :mod:`repro.native`).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro import native
from repro.config.network import NetworkConfig
from repro.errors import ConfigurationError

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
        Link-rate configuration: each node's uplink carries
        :attr:`~repro.config.network.NetworkConfig.effective_node_bw`, each
        server's downlink ``server_nic_bw``.
    """

    def __init__(self, n_client_nodes: int, n_servers: int, network: NetworkConfig) -> None:
        if n_client_nodes <= 0 or n_servers <= 0:
            raise ConfigurationError("topology needs at least one node and one server")
        # An int rate (a preset's 220 * MiB) must still give float links.
        self._init_links(
            np.full(n_client_nodes, network.effective_node_bw, dtype=np.float64),
            np.full(n_servers, network.server_nic_bw, dtype=np.float64),
        )

    @classmethod
    def stacked(cls, topologies: Sequence["StarTopology"]) -> "StarTopology":
        """The links of ``topologies`` back to back, as one flat topology for
        the stepping kernel, each link keeping its own topology's capacity."""
        flat = cls.__new__(cls)
        flat._init_links(
            np.concatenate([t._node_capacity for t in topologies]),
            np.concatenate([t._server_capacity for t in topologies]),
        )
        return flat

    def _init_links(self, node_capacity: np.ndarray, server_capacity: np.ndarray) -> None:
        n_client_nodes, n_servers = node_capacity.shape[0], server_capacity.shape[0]
        self._node_capacity = node_capacity
        self._server_capacity = server_capacity
        self._node_busy = np.zeros(n_client_nodes, dtype=np.float64)
        self._node_transferred = np.zeros(n_client_nodes, dtype=np.float64)
        self._server_busy = np.zeros(n_servers, dtype=np.float64)
        self._server_transferred = np.zeros(n_servers, dtype=np.float64)
        #: Time every link has observed (the stepping kernel stamps it per
        #: member).
        self.observed_time = 0.0

    # ------------------------------------------------------------------ #

    @property
    def n_client_nodes(self) -> int:
        """Number of compute nodes in the topology."""
        return self._node_capacity.shape[0]

    @property
    def n_servers(self) -> int:
        """Number of storage servers in the topology."""
        return self._server_capacity.shape[0]

    def node_capacities(self) -> np.ndarray:
        """Per-node usable injection bandwidth (bytes/s)."""
        return self._node_capacity.copy()

    def server_capacities(self) -> np.ndarray:
        """Per-server downlink bandwidth (bytes/s)."""
        return self._server_capacity.copy()

    def record_step_flat(
        self,
        per_node_bytes: np.ndarray,
        per_server_bytes: np.ndarray,
        node_dt: Union[float, np.ndarray],
        server_dt: Union[float, np.ndarray],
        node_limit: np.ndarray,
        server_limit: np.ndarray,
    ) -> None:
        """Account for one step of traffic on every link.

        ``node_limit`` and ``server_limit`` are each link's capacity for the
        step (capacity times its ``dt``), which the stepping kernel holds
        from one change of steps to the next.  Bytes beyond a link's limit
        are clamped (the model's group caps already keep traffic within
        capacity; the clamp guards float round-off), so the busy share
        ``clipped / limit`` needs no further clamp.  Steps may differ per
        link (a batch's members step on their own clocks, and every link
        lane carries its member's step), and :attr:`observed_time` does not
        advance (the kernel keeps each member's observed time itself)."""
        nodes, servers = self.n_client_nodes, self.n_servers
        arrays = [
            np.ascontiguousarray(np.broadcast_to(np.asarray(values, dtype=np.float64), (n,)))
            for values, n in ((per_node_bytes, nodes), (per_server_bytes, servers),
                              (node_dt, nodes), (server_dt, servers),
                              (node_limit, nodes), (server_limit, servers))
        ]
        native.library().nk_record_step(self.table().address,
                                        *[a.ctypes.data for a in arrays])

    def table(self) -> native.Table:
        """The address table of these links' current arrays."""
        return native.Table(
            "topology", {"node": self.n_client_nodes, "srv": self.n_servers},
            n_node=self.n_client_nodes, n_srv=self.n_servers,
            node_transferred=self._node_transferred, node_busy=self._node_busy,
            server_transferred=self._server_transferred, server_busy=self._server_busy,
        )

    def _utilizations(self, busy: np.ndarray) -> np.ndarray:
        if self.observed_time == 0:
            return np.zeros_like(busy)
        return np.minimum(busy / self.observed_time, 1.0)

    def max_client_utilization(self) -> float:
        """Highest client-uplink utilization (root-cause indicator)."""
        return float(self._utilizations(self._node_busy).max())

    def max_server_utilization(self) -> float:
        """Highest server-downlink utilization (root-cause indicator)."""
        return float(self._utilizations(self._server_busy).max())
