"""A PVFS deployment: the servers of one file system, as flat per-server lanes.

:class:`PVFSDeployment` holds the state of every server of one deployment in
flat per-server arrays and runs the server laws (drain capacity, backend
commit, write-back cache, device queue) elementwise over all of them at once:
one pass of the native kernel (:mod:`repro.native`) per law instead of one
Python call per server.  The scalar :class:`~repro.pfs.server.PVFSServer`
is the oracle of these laws: every operation is the IEEE operation it
performs, in the same order, so each lane is bit for bit what a
:class:`PVFSServer` would hold after the same sequence of steps
(``tests/test_pfs_flat.py`` pins this).  The law's constants, the sync mode
among them, are per lane too, so the stepping kernel stacks the servers of
deployments that differ in device, sync mode, stripe size, server count and
NIC rate into one (:meth:`PVFSDeployment.stacked`) in any order.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro import native
from repro.config.filesystem import FileSystemConfig, SyncMode
from repro.errors import ConfigurationError
from repro.pfs.server import FLOW_BUFFER_BYTES

__all__ = ["DrainLaw", "PVFSDeployment"]

#: Each sync mode's code in a deployment's per-lane mode array (the
#: ``MODE_*`` codes of ``repro/native/kernel.c``).
_MODE_CODES = {SyncMode.SYNC_ON: 0, SyncMode.SYNC_OFF: 1, SyncMode.NULL_AIO: 2}


class DrainLaw(NamedTuple):
    """The drain law evaluated for one workload mix: each lane's drain
    bandwidth (``rates``) and device bandwidth, with the fragment sizes it
    was evaluated at (the backend commit charges busy time at them)."""

    rates: np.ndarray
    device_bw: np.ndarray
    fragments: np.ndarray


class PVFSDeployment:
    """All servers of one file-system deployment, or of several stacked.

    The law's terms are per server lane: ingest rate (the server NIC for
    null-aio, else the lesser of ingest and NIC), processing-unit cap
    (``max(stripe size, flow buffer)``), the device's write bandwidth,
    positioning cost and granule cap, and the sync mode, which picks the
    lane's backend path: the write-back cache (Sync OFF), the device queue
    (Sync ON) or nothing beyond the drained bytes (null-aio).  So a
    deployment alone and a stacked one share the one law, evaluated per
    lane; the remaining terms (per-fragment cost, page cache, memory and
    flush bandwidth) come from the server configuration, which stacked
    deployments share.

    Parameters
    ----------
    config:
        The file-system configuration.
    server_nic_bw:
        Downlink bandwidth of each server (bytes/s), taken from the network
        configuration of the scenario.
    """

    def __init__(self, config: FileSystemConfig, server_nic_bw: float) -> None:
        if server_nic_bw <= 0:
            raise ConfigurationError("server_nic_bw must be positive")
        n = config.n_servers
        server, device = config.server, config.device
        # Static terms of the laws (PVFSServer.ingest_rate/processing_unit).
        # The scalar law's "byte_rate == inf -> NIC rate" fallback is a no-op
        # here: byte_rate <= ingest rate <= NIC rate, so inf implies NIC inf.
        ingest_rate = (
            server_nic_bw
            if config.sync_mode is SyncMode.NULL_AIO
            else min(server.ingest_bw, server_nic_bw)
        )
        self._init_lanes(
            server,
            mode=np.full(n, _MODE_CODES[config.sync_mode], dtype=np.int8),
            ingest_rate=np.full(n, ingest_rate, dtype=np.float64),
            unit_cap=np.full(n, max(config.stripe_size, FLOW_BUFFER_BYTES), dtype=np.float64),
            write_bw=np.full(n, device.write_bw, dtype=np.float64),
            positioning_cost=np.full(n, device.positioning_cost, dtype=np.float64),
            granule_cap=np.full(n, device.interleave_granule_cap, dtype=np.float64),
        )

    #: The per-lane law constants.
    _CONSTANTS = ("mode", "ingest_rate", "unit_cap", "write_bw", "positioning_cost",
                  "granule_cap")

    @classmethod
    def stacked(cls, deployments: Sequence["PVFSDeployment"]) -> "PVFSDeployment":
        """The server lanes of ``deployments`` back to back, with their law
        constants, as one deployment for the stepping kernel.

        Deployments must share the server configuration; everything else,
        the sync mode included, is per lane, so any order of deployments
        stacks.  The accounting state starts at zero (the kernel fills it
        with its members' arrays).
        """
        flat = cls.__new__(cls)
        flat._init_lanes(
            deployments[0]._server,
            **{name: np.concatenate([getattr(d, f"_{name}") for d in deployments])
               for name in cls._CONSTANTS},
        )
        return flat

    def _init_lanes(self, server, **constants: np.ndarray) -> None:
        self._server = server
        for name, values in constants.items():
            setattr(self, f"_{name}", values)
        n = self.n_servers = self._ingest_rate.shape[0]
        #: Bytes drained from the receive buffer, per server.
        self.drained_bytes = np.zeros(n, dtype=np.float64)
        #: Time each server's drain path was busy.
        self.busy_time = np.zeros(n, dtype=np.float64)
        #: Time every server has observed (the stepping kernel stamps it per
        #: member).
        self.observed_time = 0.0
        #: Write-back cache state (Sync OFF path).
        self.dirty_bytes = np.zeros(n, dtype=np.float64)
        self.absorbed_bytes = np.zeros(n, dtype=np.float64)
        self.flushed_bytes = np.zeros(n, dtype=np.float64)
        #: Device queue state (Sync ON path).
        self.pending_bytes = np.zeros(n, dtype=np.float64)
        self.written_bytes = np.zeros(n, dtype=np.float64)
        self.device_busy_time = np.zeros(n, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # The server laws, per lane in the native kernel
    # ------------------------------------------------------------------ #

    def table(self) -> native.Table:
        """The address table of this deployment's current arrays."""
        server = self._server
        return native.Table(
            "deployment", {"srv": self.n_servers},
            n_srv=self.n_servers, op_cost=server.fragment_op_cost,
            cache_capacity=server.page_cache_bytes, memory_bw=server.memory_bw,
            flush_fraction=server.flush_bw_fraction,
            **{name: getattr(self, f"_{name}") for name in self._CONSTANTS},
            drained_bytes=self.drained_bytes, busy_time=self.busy_time,
            dirty_bytes=self.dirty_bytes, absorbed_bytes=self.absorbed_bytes,
            flushed_bytes=self.flushed_bytes, pending_bytes=self.pending_bytes,
            written_bytes=self.written_bytes, device_busy_time=self.device_busy_time,
        )

    def _per_server(self, values, dtype) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=dtype)
        if values.shape != (self.n_servers,):
            raise ConfigurationError("per-server arrays have the wrong length")
        return values

    def law(self, n_streams: np.ndarray, avg_fragment_sizes: np.ndarray) -> DrainLaw:
        """The drain law for a workload mix (each server's active writers,
        truncated to ints, and mean fragment size): every lane's
        ``PVFSServer.drain_rate`` as ``rates``, at the current cache
        state."""
        n_streams = self._per_server(np.asarray(n_streams).astype(np.int64), np.int64)
        fragments = self._per_server(avg_fragment_sizes, np.float64).copy()
        rates = np.empty(self.n_servers, dtype=np.float64)
        device_bw = np.empty(self.n_servers, dtype=np.float64)
        native.library().nk_law(self.table().address, n_streams.ctypes.data,
                                fragments.ctypes.data, rates.ctypes.data,
                                device_bw.ctypes.data)
        return DrainLaw(rates, device_bw, fragments)

    def commit_flat(self, drained: np.ndarray, dt: np.ndarray, law: DrainLaw) -> None:
        """Account for one step of drained bytes on every server, under the
        step's drain ``law`` (:meth:`law`; nothing between the drain phase
        and the commit changes the cache state it depends on).

        Each lane's backend path takes its bytes (``WritebackCache.flush``
        then ``absorb`` for Sync OFF, ``DeviceQueue.commit_step`` for Sync
        ON), then charges busy time at the post-commit cache state, as
        ``PVFSServer.commit`` does.  :attr:`observed_time` does not advance:
        ``dt`` is one step per server lane (a batch's members step on their
        own clocks), and the stepping kernel keeps each member's observed
        time itself."""
        drained = self._per_server(drained, np.float64)
        dt = self._per_server(dt, np.float64)
        native.library().nk_commit(self.table().address, drained.ctypes.data,
                                   dt.ctypes.data, law.fragments.ctypes.data,
                                   law.device_bw.ctypes.data)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def utilizations(self) -> np.ndarray:
        """Per-server drain-path utilization."""
        if self.observed_time == 0:
            return np.zeros(self.n_servers, dtype=np.float64)
        return np.minimum(self.busy_time / self.observed_time, 1.0)

    def device_utilizations(self) -> np.ndarray:
        """Per-server backend-device utilization (only Sync ON feeds the
        device queue; the other paths never observe it)."""
        utilization = np.zeros(self.n_servers, dtype=np.float64)
        if self.observed_time != 0:
            lanes = self._mode == _MODE_CODES[SyncMode.SYNC_ON]
            utilization[lanes] = np.minimum(
                self.device_busy_time[lanes] / self.observed_time, 1.0
            )
        return utilization
