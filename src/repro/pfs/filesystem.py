"""A PVFS deployment: the set of servers plus striping configuration.

:class:`PVFSDeployment` holds the state of every server of one deployment in
flat per-server arrays and runs the server laws of
:class:`~repro.pfs.server.PVFSServer` (drain capacity, backend commit,
write-back cache, device queue) elementwise over all of them at once: one
NumPy expression per law instead of one Python call per server.  Every
elementwise operation is the IEEE operation the scalar law performs, in the
same order, so each lane is bit for bit what a :class:`PVFSServer` would hold
after the same sequence of steps (``tests/test_pfs_flat.py`` pins this).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.filesystem import FileSystemConfig, SyncMode
from repro.errors import ConfigurationError, SimulationError
from repro.pfs.client import PVFSClient
from repro.pfs.server import FLOW_BUFFER_BYTES, PVFSServer

__all__ = ["PVFSDeployment"]

#: Distinct workload mixes remembered per deployment before the memo resets.
#: On the tiny fleet matrix and the tiny paper campaign about 98% of law
#: lookups hit this memo (a single last-mix slot would catch about 94%).
_LAW_MEMO_SIZE = 64


class _Law:
    """The drain law evaluated for one workload mix (arrays are read-only).

    ``rates`` is the law at the raw fragment sizes (what the drain phase
    asks for); ``commit_rates`` is the law at ``granularity = max(fragment,
    1)``, against which a commit charges busy time.  ``device_positive`` and
    ``commit_positive`` say whether every lane's rate is positive, hence
    (``dt > 0``) every lane's capacity for a step.
    """

    __slots__ = ("mix_key", "n_streams", "fragments", "device_bw", "rates",
                 "commit_rates", "device_positive", "commit_positive")

    def __init__(self, mix_key, n_streams, fragments, device_bw, rates,
                 commit_rates) -> None:
        self.mix_key = mix_key
        self.n_streams = n_streams
        self.fragments = fragments
        self.device_bw = device_bw
        self.rates = rates
        self.commit_rates = commit_rates
        for array in (n_streams, fragments, device_bw, rates, commit_rates):
            array.flags.writeable = False
        self.device_positive = bool((device_bw > 0).all())
        self.commit_positive = bool((commit_rates > 0).all())


class PVFSDeployment:
    """All servers of one file-system deployment.

    Parameters
    ----------
    config:
        The file-system configuration.
    server_nic_bw:
        Downlink bandwidth of each server (bytes/s), taken from the network
        configuration of the scenario.
    n_servers:
        Number of server lanes; defaults to ``config.n_servers``.  The
        batched kernel stacks the servers of several same-configuration
        deployments into one wider deployment.
    """

    def __init__(
        self,
        config: FileSystemConfig,
        server_nic_bw: float,
        n_servers: Optional[int] = None,
    ) -> None:
        if server_nic_bw <= 0:
            raise ConfigurationError("server_nic_bw must be positive")
        self.config = config
        self.n_servers = config.n_servers if n_servers is None else int(n_servers)
        server = config.server
        self._sync_mode = config.sync_mode
        self._device = config.device
        self._server_nic_bw = server_nic_bw
        # Static terms of the laws (PVFSServer.ingest_rate/processing_unit).
        # The scalar law's "byte_rate == inf -> NIC rate" fallback is a no-op
        # here: byte_rate <= ingest rate <= NIC rate, so inf implies NIC inf.
        self._ingest_rate = (
            server_nic_bw
            if config.sync_mode is SyncMode.NULL_AIO
            else min(server.ingest_bw, server_nic_bw)
        )
        self._unit_cap = max(config.stripe_size, FLOW_BUFFER_BYTES)
        self._op_cost = server.fragment_op_cost
        self._cache_capacity = server.page_cache_bytes
        self._memory_bw = server.memory_bw
        self._flush_fraction = server.flush_bw_fraction

        n = self.n_servers
        #: Bytes drained from the receive buffer, per server.
        self.drained_bytes = np.zeros(n, dtype=np.float64)
        #: Time each server's drain path was busy.
        self.busy_time = np.zeros(n, dtype=np.float64)
        #: Time every server has observed (each :meth:`commit` advances all
        #: by dt; the stepping kernel stamps it per member).
        self.observed_time = 0.0
        #: Write-back cache state (Sync OFF path).
        self.dirty_bytes = np.zeros(n, dtype=np.float64)
        self.absorbed_bytes = np.zeros(n, dtype=np.float64)
        self.flushed_bytes = np.zeros(n, dtype=np.float64)
        #: Device queue state (Sync ON path).
        self.pending_bytes = np.zeros(n, dtype=np.float64)
        self.written_bytes = np.zeros(n, dtype=np.float64)
        self.device_busy_time = np.zeros(n, dtype=np.float64)
        self._laws: Dict[bytes, _Law] = {}
        self._scratch = np.zeros(n, dtype=np.float64)

    # ------------------------------------------------------------------ #

    def make_client(self, app: str, rank: int, servers: Sequence[int] | None = None) -> PVFSClient:
        """Create a client handle for one application process."""
        targets = tuple(servers) if servers is not None else self.config.all_servers
        return PVFSClient(
            app=app,
            rank=rank,
            stripe_size=self.config.stripe_size,
            servers=targets,
            n_servers_total=self.n_servers,
        )

    # ------------------------------------------------------------------ #
    # The server laws, elementwise
    # ------------------------------------------------------------------ #

    def _device_bw(self, n_streams: np.ndarray, granularity: np.ndarray) -> np.ndarray:
        """``DeviceSpec.effective_write_bw`` per lane (``granularity >= 1``).

        A single stream has switch fraction ``1 - 1/1 = 0``, which zeroes the
        penalty exactly as the scalar law's special case does.
        """
        device = self._device
        if device.is_unlimited:
            return np.full(granularity.shape, np.inf)
        switch = 1.0 - 1.0 / np.maximum(n_streams, 1)
        granule = np.minimum(granularity, device.interleave_granule_cap)
        penalty = switch * device.positioning_cost * device.write_bw / granule
        return device.write_bw / (1.0 + penalty)

    def _flush_rate(self, device_bw: np.ndarray) -> Union[float, np.ndarray]:
        """``WritebackCache.flush_rate`` per lane."""
        if self._device.is_unlimited:
            return self._memory_bw
        return device_bw * self._flush_fraction

    def _drain_rate(
        self,
        byte_rate: np.ndarray,
        granularity: np.ndarray,
        nonpositive: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``PVFSServer.drain_rate`` per lane from its byte-rate ceiling.

        Lanes flagged ``nonpositive`` (a non-positive fragment size) process
        at the flow-buffer unit, like the scalar ``processing_unit``.
        """
        if self._op_cost <= 0:
            return byte_rate
        unit = np.minimum(self._unit_cap, granularity)
        if nonpositive is not None:
            np.copyto(unit, self._unit_cap, where=nonpositive)
        return 1.0 / (1.0 / byte_rate + self._op_cost / unit)

    def _law(self, mix_key: bytes, n_streams: np.ndarray, fragments: np.ndarray) -> "_Law":
        """The drain law evaluated for one workload mix, memoized.

        The law is a pure function of each lane's stream count and fragment
        size — plus, on the Sync OFF path, whether its cache is full — and a
        workload mix typically holds for many consecutive steps, so one
        evaluation serves them all.
        """
        key = mix_key
        full = None
        if self._sync_mode is SyncMode.SYNC_OFF:
            full = self.dirty_bytes >= self._cache_capacity
            key = mix_key + full.tobytes()
        law = self._laws.get(key)
        if law is None:
            law = self._evaluate(mix_key, n_streams, fragments, full)
            if len(self._laws) >= _LAW_MEMO_SIZE:
                self._laws.clear()
            self._laws[key] = law
        return law

    def _evaluate(
        self,
        mix_key: bytes,
        n_streams: np.ndarray,
        fragments: np.ndarray,
        full: Optional[np.ndarray],
    ) -> "_Law":
        granularity = np.maximum(fragments, 1.0)
        device_bw = self._device_bw(n_streams, granularity)
        mode = self._sync_mode
        if mode is SyncMode.NULL_AIO:
            byte_rate = np.full(granularity.shape, self._ingest_rate)
        elif mode is SyncMode.SYNC_OFF:
            backend = np.where(full, self._flush_rate(device_bw), self._memory_bw)
            byte_rate = np.minimum(self._ingest_rate, backend)
        else:
            byte_rate = np.minimum(self._ingest_rate, device_bw)
        # A commit charges busy time at max(fragment, 1); for positive
        # fragments that is the same unit as the raw fragment size.
        commit_rates = self._drain_rate(byte_rate, granularity)
        nonpositive = fragments <= 0
        rates = (
            self._drain_rate(byte_rate, granularity, nonpositive)
            if nonpositive.any() else commit_rates
        )
        return _Law(mix_key, n_streams.copy(), fragments.copy(), device_bw,
                    rates, commit_rates)

    def _workload(
        self, n_streams: np.ndarray, avg_fragment_sizes: np.ndarray
    ) -> Tuple[bytes, np.ndarray, np.ndarray]:
        # int64 stream counts (int() truncation) and float64 sizes, so equal
        # mixes always produce equal memo keys.
        n_streams = np.asarray(n_streams).astype(np.int64, copy=False)
        fragments = np.asarray(avg_fragment_sizes, dtype=np.float64)
        if n_streams.shape[0] != self.n_servers or fragments.shape[0] != self.n_servers:
            raise ConfigurationError("per-server arrays have the wrong length")
        return n_streams.tobytes() + fragments.tobytes(), n_streams, fragments

    # ------------------------------------------------------------------ #
    # Vectorized queries and updates used by the model stepper
    # ------------------------------------------------------------------ #

    def drain_rates(
        self,
        n_streams: np.ndarray,
        avg_fragment_sizes: np.ndarray,
    ) -> np.ndarray:
        """Per-server drain bandwidth for the current workload mix (a
        read-only array)."""
        return self._law(*self._workload(n_streams, avg_fragment_sizes)).rates

    def commit(
        self,
        drained: np.ndarray,
        dt: float,
        n_streams: np.ndarray,
        avg_fragment_sizes: np.ndarray,
    ) -> None:
        """Account for one step of drained bytes on every server.

        The law evaluation for the step's workload mix comes from the memo
        the drain phase's :meth:`drain_rates` call filled.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        self.observed_time += dt
        self.commit_flat(
            np.asarray(drained, dtype=np.float64), dt, n_streams, avg_fragment_sizes
        )

    def commit_flat(
        self,
        drained: np.ndarray,
        dt: Union[float, np.ndarray],
        n_streams: np.ndarray,
        avg_fragment_sizes: np.ndarray,
    ) -> None:
        """:meth:`commit` for the stepping kernel, without input checks and
        without advancing :attr:`observed_time`: ``dt`` may be one step per
        server lane (a batch's members step on their own clocks), and the
        kernel keeps each member's observed time itself.  Every use of
        ``dt`` is elementwise, so a lane commits what its member alone
        would."""
        law = self._law(*self._workload(n_streams, avg_fragment_sizes))
        self.drained_bytes += drained
        mode = self._sync_mode
        if mode is SyncMode.NULL_AIO:
            return
        if mode is SyncMode.SYNC_OFF:
            self._commit_cache(drained, dt, law.device_bw)
            # Busy time is charged at the post-commit cache state.
            law = self._law(law.mix_key, law.n_streams, law.fragments)
        else:
            self._commit_device(drained, dt, law.device_bw * dt, law.device_positive)
        capacity = law.commit_rates * dt
        # busy += dt * min(drained / capacity, 1) on non-empty steps; an empty
        # step's share is an exact 0.0, so only non-positive capacities (which
        # the scalar law skips) need masking.
        share = self._scratch
        if law.commit_positive:
            np.divide(drained, capacity, out=share)
            busy = True
        else:
            busy = (drained > 0) & (capacity > 0)
            share.fill(0.0)
            np.divide(drained, capacity, out=share, where=busy)
        np.minimum(share, 1.0, out=share)
        share *= dt
        np.add(self.busy_time, share, out=self.busy_time, where=busy)

    def _commit_cache(self, drained: np.ndarray, dt, device_bw: np.ndarray) -> None:
        """``WritebackCache.flush`` then ``absorb`` (non-empty steps) per lane."""
        dirty = self.dirty_bytes
        flush = self._flush_rate(device_bw)
        flushed = np.minimum(dirty, flush * dt)
        dirty -= flushed
        self.flushed_bytes += flushed
        absorbing = drained > 0
        if not np.count_nonzero(absorbing):
            return
        capacity = self._cache_capacity
        full = dirty >= capacity
        rate_limit = np.where(full, flush, self._memory_bw) * dt
        room = np.maximum(capacity - dirty, 0.0)
        accepted = np.minimum(drained, rate_limit)
        np.minimum(accepted, room + flush * dt, out=accepted, where=room > 0)
        np.minimum(dirty + accepted, capacity, out=dirty, where=absorbing)
        np.add(self.absorbed_bytes, accepted, out=self.absorbed_bytes, where=absorbing)

    def _commit_device(
        self,
        drained: np.ndarray,
        dt,
        capacity: np.ndarray,
        positive: bool,
    ) -> None:
        """``DeviceQueue.commit_step`` per lane.

        A lane with nothing pending writes an exact 0.0 and adds exact zeros,
        which is the scalar early return; only non-positive capacities need
        masking.
        """
        pending = self.pending_bytes
        pending += drained
        if self._device.is_unlimited:
            self.written_bytes += pending
            pending.fill(0.0)
            return
        written = np.minimum(pending, capacity)
        pending -= written
        self.written_bytes += written
        share = self._scratch
        if positive:
            np.divide(written, capacity, out=share)
            busy = True
        else:
            busy = capacity > 0
            share.fill(0.0)
            np.divide(written, capacity, out=share, where=busy)
        share *= dt
        np.add(self.device_busy_time, share, out=self.device_busy_time, where=busy)

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
        if self._sync_mode is not SyncMode.SYNC_ON or self.observed_time == 0:
            return np.zeros(self.n_servers, dtype=np.float64)
        return np.minimum(self.device_busy_time / self.observed_time, 1.0)

    def dirty_cache_bytes(self) -> np.ndarray:
        """Per-server dirty bytes in the write-back cache."""
        return self.dirty_bytes.copy()

    def total_drained(self) -> float:
        """Total bytes drained by all servers."""
        return float(sum(self.drained_bytes.tolist()))

    def utilization_report(self) -> Dict[str, float]:
        """Utilization keyed by server name."""
        return {
            f"server{s}": value for s, value in enumerate(self.utilizations().tolist())
        }

    def reset(self) -> None:
        """Reset every server's accounting state."""
        for array in (
            self.drained_bytes, self.busy_time, self.dirty_bytes,
            self.absorbed_bytes, self.flushed_bytes, self.pending_bytes,
            self.written_bytes, self.device_busy_time,
        ):
            array[:] = 0.0
        self.observed_time = 0.0
        self._laws.clear()

    def describe(self) -> Tuple[str, ...]:
        """Per-server one-line descriptions."""
        config = self.config
        return tuple(
            PVFSServer(
                server_id=s,
                config=config.server,
                device=config.device,
                sync_mode=config.sync_mode,
                stripe_size=config.stripe_size,
                server_nic_bw=self._server_nic_bw,
            ).describe()
            for s in range(self.n_servers)
        )
