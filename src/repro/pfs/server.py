"""The PVFS server model.

A server's write path has two halves:

* the **ingest** half (network stack + request processing + Trove): limited
  by a byte rate (:attr:`~repro.config.server.ServerConfig.ingest_bw`) and a
  per-fragment CPU cost, and — crucially — with *no flow control of its own*:
  it accepts whatever the receive buffer holds and relies on TCP to throttle
  the clients, which is the design weakness the paper identifies;
* the **backend** half: with sync ON every byte must reach the device before
  it is acknowledged, so the device's effective bandwidth (which degrades
  under interleaving and small granularity) is on the critical path; with
  sync OFF bytes only have to reach the write-back cache; with null-aio they
  are discarded.

:class:`PVFSServer` computes the resulting drain capacity per simulation step
and keeps per-server accounting used by root-cause analysis.  It is the
scalar reference of the laws: the simulation runs the same laws elementwise
over every server at once (:class:`~repro.pfs.filesystem.PVFSDeployment`),
bit for bit equal to one :class:`PVFSServer` per server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import units
from repro.config.filesystem import SyncMode
from repro.config.server import ServerConfig
from repro.errors import SimulationError
from repro.storage.device import DeviceSpec
from repro.storage.queueing import DeviceQueue
from repro.storage.writeback import WritebackCache

__all__ = ["PVFSServer"]

#: Size of the flow buffers PVFS uses to move data between the network and
#: Trove; request processing happens at (multiples of) this granularity.
FLOW_BUFFER_BYTES = 256 * units.KiB


@dataclass
class PVFSServer:
    """One storage server of the deployment.

    Attributes
    ----------
    server_id:
        Index of the server.
    config:
        Static resource description.
    device:
        Backend device specification.
    sync_mode:
        Synchronization policy.
    stripe_size:
        Striping unit of the deployment (sets the processing granularity).
    server_nic_bw:
        Downlink bandwidth of the server (bytes/s).
    """

    server_id: int
    config: ServerConfig
    device: DeviceSpec
    sync_mode: SyncMode
    stripe_size: float
    server_nic_bw: float
    cache: WritebackCache = field(init=False)
    device_queue: DeviceQueue = field(init=False)
    drained_bytes: float = field(default=0.0, init=False)
    busy_time: float = field(default=0.0, init=False)
    observed_time: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise SimulationError("stripe_size must be positive")
        if self.server_nic_bw <= 0:
            raise SimulationError("server_nic_bw must be positive")
        self.cache = WritebackCache(
            capacity_bytes=self.config.page_cache_bytes,
            memory_bw=self.config.memory_bw,
            device=self.device,
            flush_bw_fraction=self.config.flush_bw_fraction,
        )
        self.device_queue = DeviceQueue(device=self.device)

    # ------------------------------------------------------------------ #
    # Capacity laws
    # ------------------------------------------------------------------ #

    def processing_unit(self, avg_fragment_size: float) -> float:
        """Granularity (bytes) at which the server processes incoming data.

        Requests are handled in flow-buffer-sized pieces, but never larger
        than the fragments actually arriving (small strided fragments are
        processed one by one).
        """
        unit = max(self.stripe_size, FLOW_BUFFER_BYTES)
        if avg_fragment_size > 0:
            unit = min(unit, avg_fragment_size)
        return max(unit, 1.0)

    def backend_rate(self, n_streams: int, granularity: float) -> float:
        """Byte rate of the backend half of the write path.

        * sync ON  — the device's effective bandwidth for the current
          interleaving and granularity;
        * sync OFF — the write-back cache absorb rate (memory speed until the
          cache fills, then the flush rate);
        * null-aio — unbounded.
        """
        granularity = max(granularity, 1.0)
        if self.sync_mode is SyncMode.NULL_AIO:
            return float("inf")
        if self.sync_mode is SyncMode.SYNC_OFF:
            return self.cache.absorb_rate(n_streams, granularity)
        return self.device.effective_write_bw(n_streams, granularity)

    def ingest_rate(self) -> float:
        """Byte rate of the ingest half (request processing ceiling).

        The null-aio method bypasses the data-copy path (data is thrown away
        before it would be staged for Trove), so only the NIC limits it.
        """
        if self.sync_mode is SyncMode.NULL_AIO:
            return self.server_nic_bw
        return min(self.config.ingest_bw, self.server_nic_bw)

    def drain_rate(self, n_streams: int, avg_fragment_size: float) -> float:
        """Sustainable drain bandwidth (bytes/s) for the current workload mix.

        Combines the byte-rate ceiling (ingest and backend in series: the
        slower of the two) with the per-fragment CPU cost, charged once per
        processing unit:

            rate = 1 / (1 / byte_rate + op_cost / unit)
        """
        byte_rate = min(self.ingest_rate(), self.backend_rate(n_streams, avg_fragment_size))
        if byte_rate == float("inf"):
            byte_rate = self.server_nic_bw
        unit = self.processing_unit(avg_fragment_size)
        op_cost = self.config.fragment_op_cost
        if op_cost <= 0:
            return byte_rate
        return 1.0 / (1.0 / byte_rate + op_cost / unit)

    # ------------------------------------------------------------------ #
    # Per-step state updates
    # ------------------------------------------------------------------ #

    def commit(self, nbytes: float, dt: float, n_streams: int, granularity: float) -> None:
        """Account for ``nbytes`` drained from the receive buffer this step.

        With sync ON the bytes go straight to the device; with sync OFF they
        enter the write-back cache (and the background flusher runs); with
        null-aio they vanish.
        """
        if nbytes < 0:
            raise SimulationError("cannot commit a negative number of bytes")
        if dt <= 0:
            raise SimulationError("dt must be positive")
        granularity = max(granularity, 1.0)
        self.observed_time += dt
        self.drained_bytes += nbytes
        if self.sync_mode is SyncMode.NULL_AIO:
            return
        if self.sync_mode is SyncMode.SYNC_OFF:
            self.cache.flush(dt, n_streams, granularity)
            if nbytes > 0:
                self.cache.absorb(nbytes, dt, n_streams, granularity)
        else:
            self.device_queue.commit_step(nbytes, dt, n_streams, granularity)
        if nbytes > 0:
            capacity = self.drain_rate(n_streams, granularity) * dt
            if capacity > 0:
                self.busy_time += dt * min(nbytes / capacity, 1.0)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def utilization(self) -> float:
        """Fraction of observed time the server's drain path was busy."""
        if self.observed_time == 0:
            return 0.0
        return min(self.busy_time / self.observed_time, 1.0)

    def device_utilization(self) -> float:
        """Utilization of the backend device (sync ON path)."""
        return self.device_queue.utilization()

    def dirty_cache_bytes(self) -> float:
        """Bytes sitting in the write-back cache (sync OFF path)."""
        return self.cache.dirty_bytes

    def reset(self) -> None:
        """Clear all accounting and cached state."""
        self.cache.reset()
        self.device_queue.reset()
        self.drained_bytes = 0.0
        self.busy_time = 0.0
        self.observed_time = 0.0

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"server {self.server_id}: {self.device.name}, {self.sync_mode.label}, "
            f"ingest {units.bandwidth_to_human(self.config.ingest_bw)}, "
            f"buffer {units.bytes_to_human(self.config.buffer_bytes)}"
        )


def _optional_float(value: Optional[float], default: float) -> float:
    """Small helper for optional numeric parameters."""
    return default if value is None else float(value)
