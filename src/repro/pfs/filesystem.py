"""A PVFS deployment: the set of servers plus striping configuration.

:class:`PVFSDeployment` holds the state of every server of one deployment in
flat per-server arrays and runs the server laws of
:class:`~repro.pfs.server.PVFSServer` (drain capacity, backend commit,
write-back cache, device queue) elementwise over all of them at once: one
NumPy expression per law instead of one Python call per server.  Every
elementwise operation is the IEEE operation the scalar law performs, in the
same order, so each lane is bit for bit what a :class:`PVFSServer` would hold
after the same sequence of steps (``tests/test_pfs_flat.py`` pins this).
The law's constants are per lane too, so the stepping kernel stacks the
servers of deployments that differ in device, sync mode, stripe size, server
count and NIC rate into one (:meth:`PVFSDeployment.stacked`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.config.filesystem import FileSystemConfig, SyncMode
from repro.errors import ConfigurationError, SimulationError
from repro.pfs.client import PVFSClient
from repro.pfs.server import FLOW_BUFFER_BYTES, PVFSServer

__all__ = ["PVFSDeployment"]

#: Distinct workload mixes remembered per deployment before the memo resets.
#: Measured share of law lookups this memo serves: 87.1% on the tiny fleet
#: matrix and 78.8% on the tiny paper campaign, whose buckets stack servers
#: of every device and sync mode of a round (90.5% and 94.6% when a bucket
#: held one platform/filesystem configuration).
_LAW_MEMO_SIZE = 64

#: A sync mode's backend path, as one run of server lanes.
_Runs = Tuple[Tuple[SyncMode, slice], ...]


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
    """All servers of one file-system deployment, or of several stacked.

    The law's static terms are per server lane: ingest rate (the server NIC
    for null-aio, else the lesser of ingest and NIC), processing-unit cap
    (``max(stripe size, flow buffer)``), and the device's write bandwidth,
    positioning cost and granule cap.  Lanes also fall into runs of one sync
    mode, each taking its own backend path: the write-back cache (Sync OFF),
    the device queue (Sync ON) or nothing beyond the drained bytes
    (null-aio).  One configuration fills every lane with its constants and
    is one run, so a deployment alone and a stacked one share the one law
    path; the remaining terms (per-fragment cost, page cache, memory and
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
        self.config = config
        self._server_nic_bw = server_nic_bw
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
            ((config.sync_mode, slice(0, n)),),
            ingest_rate=np.full(n, ingest_rate),
            unit_cap=np.full(n, max(config.stripe_size, FLOW_BUFFER_BYTES)),
            write_bw=np.full(n, device.write_bw),
            positioning_cost=np.full(n, device.positioning_cost),
            granule_cap=np.full(n, device.interleave_granule_cap),
        )

    @classmethod
    def stacked(cls, deployments: Sequence["PVFSDeployment"]) -> "PVFSDeployment":
        """The server lanes of ``deployments`` back to back, with their law
        constants, as one deployment for the stepping kernel.

        Deployments must share the server configuration.  Adjacent runs of
        one sync mode merge, so deployments ordered by sync mode make at
        most one run per mode.  The accounting state starts at zero (the
        kernel fills it with its members' arrays).
        """
        runs = []
        offset = 0
        for deployment in deployments:
            for mode, lanes in deployment._runs:
                start, stop = lanes.start + offset, lanes.stop + offset
                if runs and runs[-1][0] is mode:
                    start = runs.pop()[1].start
                runs.append((mode, slice(start, stop)))
            offset += deployment.n_servers
        flat = cls.__new__(cls)
        flat.config = None
        flat._init_lanes(
            deployments[0]._server,
            tuple(runs),
            **{name: np.concatenate([getattr(d, f"_{name}") for d in deployments])
               for name in ("ingest_rate", "unit_cap", "write_bw",
                            "positioning_cost", "granule_cap")},
        )
        return flat

    def _init_lanes(self, server, runs: _Runs, **constants: np.ndarray) -> None:
        self._server = server
        self._runs = runs
        for name, values in constants.items():
            setattr(self, f"_{name}", values)
        n = self.n_servers = self._ingest_rate.shape[0]
        self._op_cost = server.fragment_op_cost
        self._cache_capacity = server.page_cache_bytes
        self._memory_bw = server.memory_bw
        self._flush_fraction = server.flush_bw_fraction
        #: The null-aio pseudo device's lanes (infinite write bandwidth).
        self._unlimited = self._write_bw == np.inf
        self._any_unlimited = bool(self._unlimited.any())
        #: The write bandwidth in the positioning penalty, zero on unlimited
        #: lanes: their penalty is an exact 0.0, not ``0 * inf`` (NaN).
        self._penalty_bw = np.where(self._unlimited, 0.0, self._write_bw)
        self._has_cache = any(mode is SyncMode.SYNC_OFF for mode, _ in runs)
        #: Lanes that charge busy time: all (``True``), none (``None``) or a
        #: mask; null-aio lanes do not, as the scalar law returns early.
        null = np.zeros(n, dtype=bool)
        for mode, lanes in runs:
            null[lanes] = mode is SyncMode.NULL_AIO
        self._charged = None if null.all() else True if not null.any() else ~null

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
        penalty exactly as the scalar law's special case does.  An unlimited
        device's lanes take no penalty, so they read ``inf / 1.0``, the scalar
        law's early return.
        """
        switch = 1.0 - 1.0 / np.maximum(n_streams, 1)
        granule = np.minimum(granularity, self._granule_cap)
        penalty = switch * self._positioning_cost * self._penalty_bw / granule
        return self._write_bw / (1.0 + penalty)

    def _flush_rate(self, device_bw: np.ndarray, lanes: slice) -> np.ndarray:
        """``WritebackCache.flush_rate`` per lane of ``lanes``."""
        flush = device_bw * self._flush_fraction
        if self._any_unlimited:
            np.copyto(flush, self._memory_bw, where=self._unlimited[lanes])
        return flush

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
        if self._has_cache:
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
        byte_rate = np.empty_like(granularity)
        for mode, lanes in self._runs:
            ingest = self._ingest_rate[lanes]
            if mode is SyncMode.NULL_AIO:
                byte_rate[lanes] = ingest
            elif mode is SyncMode.SYNC_OFF:
                backend = np.where(
                    full[lanes], self._flush_rate(device_bw[lanes], lanes), self._memory_bw
                )
                np.minimum(ingest, backend, out=byte_rate[lanes])
            else:
                np.minimum(ingest, device_bw[lanes], out=byte_rate[lanes])
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
            np.asarray(drained, dtype=np.float64), np.full(self.n_servers, dt),
            n_streams, avg_fragment_sizes,
        )

    def commit_flat(
        self,
        drained: np.ndarray,
        dt: np.ndarray,
        n_streams: np.ndarray,
        avg_fragment_sizes: np.ndarray,
    ) -> None:
        """:meth:`commit` for the stepping kernel, without input checks and
        without advancing :attr:`observed_time`: ``dt`` is one step per
        server lane (a batch's members step on their own clocks), and the
        kernel keeps each member's observed time itself.  Every use of
        ``dt`` is elementwise, so a lane commits what its member alone
        would."""
        law = self._law(*self._workload(n_streams, avg_fragment_sizes))
        self.drained_bytes += drained
        for mode, lanes in self._runs:
            if mode is SyncMode.SYNC_OFF:
                self._commit_cache(lanes, drained[lanes], dt[lanes], law.device_bw[lanes])
            elif mode is SyncMode.SYNC_ON:
                step = dt[lanes]
                self._commit_device(lanes, drained[lanes], step,
                                    law.device_bw[lanes] * step, law.device_positive)
        charged = self._charged
        if charged is None:
            return
        if self._has_cache:
            # Busy time is charged at the post-commit cache state.
            law = self._law(law.mix_key, law.n_streams, law.fragments)
        capacity = law.commit_rates * dt
        # busy += dt * min(drained / capacity, 1) on non-empty steps; an empty
        # step's share is an exact 0.0, so only non-positive capacities (which
        # the scalar law skips) and null-aio lanes need masking.
        share = self._scratch
        if law.commit_positive:
            np.divide(drained, capacity, out=share)
            busy = charged
        else:
            busy = (drained > 0) & (capacity > 0) & charged
            share.fill(0.0)
            np.divide(drained, capacity, out=share, where=busy)
        np.minimum(share, 1.0, out=share)
        share *= dt
        np.add(self.busy_time, share, out=self.busy_time, where=busy)

    def _commit_cache(self, lanes: slice, drained: np.ndarray, dt: np.ndarray,
                      device_bw: np.ndarray) -> None:
        """``WritebackCache.flush`` then ``absorb`` (non-empty steps) per lane
        of ``lanes``."""
        dirty = self.dirty_bytes[lanes]
        flush = self._flush_rate(device_bw, lanes)
        flushed = np.minimum(dirty, flush * dt)
        dirty -= flushed
        total = self.flushed_bytes[lanes]
        total += flushed
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
        absorbed = self.absorbed_bytes[lanes]
        np.add(absorbed, accepted, out=absorbed, where=absorbing)

    def _commit_device(
        self,
        lanes: slice,
        drained: np.ndarray,
        dt: np.ndarray,
        capacity: np.ndarray,
        positive: bool,
    ) -> None:
        """``DeviceQueue.commit_step`` per lane of ``lanes``.

        A lane with nothing pending writes an exact 0.0 and adds exact zeros,
        which is the scalar early return, and an unlimited device's lane
        (infinite capacity) writes everything pending and charges an exact
        0.0, which is the scalar null-aio shortcut; only non-positive
        capacities need masking.
        """
        pending = self.pending_bytes[lanes]
        pending += drained
        written = np.minimum(pending, capacity)
        pending -= written
        total = self.written_bytes[lanes]
        total += written
        share = self._scratch[lanes]
        if positive:
            np.divide(written, capacity, out=share)
            busy = True
        else:
            busy = capacity > 0
            share.fill(0.0)
            np.divide(written, capacity, out=share, where=busy)
        share *= dt
        device_busy = self.device_busy_time[lanes]
        np.add(device_busy, share, out=device_busy, where=busy)

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
            for mode, lanes in self._runs:
                if mode is SyncMode.SYNC_ON:
                    utilization[lanes] = np.minimum(
                        self.device_busy_time[lanes] / self.observed_time, 1.0
                    )
        return utilization

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
