"""Server receive buffers and the admission model (the Incast locus).

Each storage server has a bounded staging buffer between the network and the
backend.  Clients push data into it (admission) and the backend drains it.
When the backend is slow the buffer is persistently full; admission becomes a
race for the little space freed each instant, which established connections
tend to win — the flow-control breakdown the paper identifies as the root of
unfair interference.

:class:`ServerBuffers` owns the per-server occupancy and the per-connection
"bytes currently in the buffer" accounting, and implements:

* :meth:`admit` — weighted, possibly starving admission of offered bytes,
* :meth:`drain` — removal of drained bytes with per-connection attribution,
* occupancy/pressure queries used for effective-RTT and root-cause analysis.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.network.allocation import admission_order_keys, allocate_greedy_in_order

__all__ = ["ServerBuffers"]


class ServerBuffers:
    """Receive/staging buffers of every server in the deployment.

    Parameters
    ----------
    n_servers:
        Number of servers.
    capacity_bytes:
        Buffer capacity per server (same for every server).
    conn_server:
        Array mapping each connection index to its server index.
    """

    def __init__(
        self,
        n_servers: int,
        capacity_bytes: float,
        conn_server: np.ndarray,
    ) -> None:
        if n_servers <= 0:
            raise SimulationError("n_servers must be positive")
        if capacity_bytes <= 0:
            raise SimulationError("capacity_bytes must be positive")
        self.n_servers = int(n_servers)
        self.capacity = float(capacity_bytes)
        self.conn_server = np.asarray(conn_server, dtype=np.int64)
        if self.conn_server.size and (
            self.conn_server.min() < 0 or self.conn_server.max() >= n_servers
        ):
            raise SimulationError("conn_server contains out-of-range server indices")
        n_conns = self.conn_server.shape[0]
        #: Step-invariant per-server connection groups (ascending connection
        #: indices, exactly the order a boolean ``conn_server == s`` mask
        #: yields), computed once so the admission path never rescans the
        #: mapping array.
        self._server_conn_ids = [
            np.flatnonzero(self.conn_server == s) for s in range(self.n_servers)
        ]
        # The groups stack into one padded (n_servers, K) index matrix, K
        # being the widest group: short rows are padded by repeating their
        # last real connection index (the pad slots are gathered but never
        # read — every reduction slices the row to its true width) and the
        # admission water-filling runs as row-wise 2D ops per *width class*
        # instead of a per-server loop.  Slicing each class to its width
        # preserves NumPy's pairwise-summation tree, so a ragged or batched
        # deployment admits bit-for-bit what each group would admit alone.
        widths = np.array(
            [ids.shape[0] for ids in self._server_conn_ids], dtype=np.int64
        )
        self._group_widths = widths
        max_width = int(widths.max()) if n_conns else 0
        if max_width > 0:
            matrix = np.zeros((self.n_servers, max_width), dtype=np.int64)
            for s, ids in enumerate(self._server_conn_ids):
                w = ids.shape[0]
                if w:
                    matrix[s, :w] = ids
                    matrix[s, w:] = ids[-1]
            self._group_matrix: Optional[np.ndarray] = matrix
            self._group_flat = matrix.reshape(-1)
            self._demands_2d = np.empty(matrix.shape, dtype=np.float64)
            self._demands_flat = self._demands_2d.reshape(-1)
            #: (width, row indices, (m, width) connection matrix) per distinct
            #: nonzero group width, ascending — the units the water-filling
            #: vectorizes over.
            self._width_classes = [
                (w, rows, matrix[rows, :w])
                for w in sorted({int(x) for x in widths} - {0})
                for rows in (np.flatnonzero(widths == w),)
            ]
            self._uniform_groups = (
                len(self._width_classes) == 1
                and self._width_classes[0][0] == max_width
                and self._width_classes[0][1].shape[0] == self.n_servers
            )
        else:
            self._group_matrix = None
            self._width_classes = []
            self._uniform_groups = False
        #: Gathered-but-ignored slots of the padded group matrix — the
        #: padding waste masked batching pays per admission call.
        self.padded_slots = (
            int((max_width - widths).sum()) if max_width > 0 else 0
        )
        #: Total slots of the padded group matrix (real + padding).
        self.group_slots = int(self.n_servers * max_width)
        self._weights_all_ones = False
        # Scratch buffers reused by admit()/drain(); holding them here keeps
        # the per-step allocation count flat without changing any result.
        self._scratch_capacity = np.zeros(self.n_servers, dtype=np.float64)
        self._scratch_fraction = np.zeros(self.n_servers, dtype=np.float64)
        self._scratch_full = np.zeros(self.n_servers, dtype=bool)
        self._scratch_conn = np.zeros(n_conns, dtype=np.float64)
        self._validated_weights: Optional[np.ndarray] = None
        #: Bytes currently buffered per server.
        self.fill = np.zeros(self.n_servers, dtype=np.float64)
        #: Bytes currently buffered per connection.
        self.conn_bytes = np.zeros(n_conns, dtype=np.float64)
        #: Cumulative bytes admitted per server.
        self.total_admitted = np.zeros(self.n_servers, dtype=np.float64)
        #: Cumulative bytes drained per server.
        self.total_drained = np.zeros(self.n_servers, dtype=np.float64)
        #: Step weight each server observed, and the part of it spent with a
        #: (nearly) full buffer.  Under the fixed stepping policy every step
        #: weighs 1 and these are plain step counts; the adaptive policy
        #: weighs a collapsed quiescent jump as the number of base steps it
        #: replaced, keeping the pressure fraction time-weighted and
        #: therefore comparable across policies.
        self.full_steps = np.zeros(self.n_servers, dtype=np.float64)
        self.observed_steps = np.zeros(self.n_servers, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n_connections(self) -> int:
        """Number of connections known to the buffers."""
        return self.conn_bytes.shape[0]

    def free_space(self) -> np.ndarray:
        """Free bytes per server."""
        return np.maximum(self.capacity - self.fill, 0.0)

    def occupancy_fraction(self) -> np.ndarray:
        """Buffer occupancy per server in [0, 1]."""
        return np.clip(self.fill / self.capacity, 0.0, 1.0)

    def queueing_delay(self, drain_rate: np.ndarray) -> np.ndarray:
        """Expected time for a newly admitted byte to reach the backend.

        ``drain_rate`` is the per-server drain bandwidth (bytes/s); servers
        with an (almost) idle backend report zero delay.
        """
        drain_rate = np.maximum(np.asarray(drain_rate, dtype=np.float64), 1e-9)
        return self.fill / drain_rate

    def pressure_fraction(self) -> np.ndarray:
        """Fraction of observed steps each server spent with a full buffer
        (0 for a server that observed none)."""
        fraction = np.zeros(self.n_servers, dtype=np.float64)
        observed = self.observed_steps
        np.divide(self.full_steps, observed, out=fraction, where=observed != 0)
        return fraction

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def admit(
        self,
        offered: np.ndarray,
        weights: np.ndarray,
        extra_capacity: Optional[np.ndarray] = None,
        max_admission: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Admit offered bytes into the buffers.

        Parameters
        ----------
        offered:
            Bytes each connection offers this step.
        weights:
            Admission weights (established connections > newcomers).
        extra_capacity:
            Optional additional per-server capacity admitted this step beyond
            the currently free space (bytes drained during the same step may
            be re-used); defaults to zero.
        max_admission:
            Optional per-server cap on the bytes admitted this step (e.g. the
            server NIC capacity for the step).
        rng:
            Random generator for the weighted admission order.  If ``None``,
            admission falls back to purely proportional sharing (used by
            deterministic unit tests).

        Returns
        -------
        (admitted, oversubscribed):
            ``admitted`` — bytes accepted per connection;
            ``oversubscribed`` — boolean per connection, True when its server
            could not accept everything offered to it.
        """
        offered = np.asarray(offered, dtype=np.float64)
        if offered.shape[0] != self.n_connections:
            raise SimulationError("offered has the wrong number of connections")
        capacity = self._scratch_capacity
        np.subtract(self.capacity, self.fill, out=capacity)
        np.maximum(capacity, 0.0, out=capacity)
        scratch = self._scratch_fraction
        if extra_capacity is not None:
            np.maximum(np.asarray(extra_capacity, dtype=np.float64), 0.0, out=scratch)
            np.add(capacity, scratch, out=capacity)
        if max_admission is not None:
            np.maximum(np.asarray(max_admission, dtype=np.float64), 0.0, out=scratch)
            np.minimum(capacity, scratch, out=capacity)

        offered_per_server = np.bincount(
            self.conn_server, weights=offered, minlength=self.n_servers
        )
        oversub_server = offered_per_server > capacity + 1e-9

        if rng is None:
            admitted = self._admit_proportional(offered, weights, capacity, offered_per_server)
        else:
            keys = admission_order_keys(np.asarray(weights, dtype=np.float64), rng)
            admitted = allocate_greedy_in_order(offered, keys, self.conn_server, capacity)

        self.conn_bytes += admitted
        admitted_per_server = np.bincount(
            self.conn_server, weights=admitted, minlength=self.n_servers
        )
        self.fill += admitted_per_server
        self.total_admitted += admitted_per_server
        oversubscribed = oversub_server[self.conn_server]
        return admitted, oversubscribed

    def _admit_proportional(
        self,
        offered: np.ndarray,
        weights: np.ndarray,
        capacity: np.ndarray,
        offered_per_server: np.ndarray,
    ) -> np.ndarray:
        """Deterministic proportional admission, one water-filling per server.

        The water-filling runs vectorized across servers per group-width
        class (:meth:`_admit_proportional_stacked`), bit-for-bit equivalent
        to the canonical :func:`~repro.network.allocation.proportional_share`
        applied per server on the cached index groups — including ragged
        deployments, where each width class stacks its own rows.
        """
        weights = np.asarray(weights, dtype=np.float64)
        # The stepper passes the same frozen (non-writeable) unit-weight
        # array every step; identity-caching the validation and the all-ones
        # flag is only sound for arrays that cannot be mutated in place, so
        # writeable arrays are re-examined on every call.
        if weights is self._validated_weights:
            all_ones = self._weights_all_ones
        else:
            if np.any(weights <= 0):
                raise ValueError("weights must be positive")
            all_ones = bool((weights == 1.0).all())
            if not weights.flags.writeable:
                self._validated_weights = weights
                self._weights_all_ones = all_ones
        if self._group_matrix is not None:
            return self._admit_proportional_stacked(offered, weights, capacity, all_ones)
        return np.zeros_like(offered)  # no connections at all

    def _admit_proportional_stacked(
        self,
        offered: np.ndarray,
        weights: np.ndarray,
        capacity: np.ndarray,
        all_ones: bool,
    ) -> np.ndarray:
        """Row-per-server vectorization of the proportional water-filling.

        Works on the ``(n_servers, K)`` gathered demand matrix, one pass per
        group-width class over that class's ``[:, :w]`` slice.  Row-wise
        reductions (``sum(axis=1)``) use the same pairwise summation over the
        same contiguous element order as the per-group ``demands.sum()`` of
        the scalar path (slicing to the true width is what keeps the
        summation tree identical — padded slots never enter a reduction),
        and dead rows (capacity exhausted / all satisfied — the scalar
        path's early ``break``) are frozen by zeroing their takes, so the
        result is bit-for-bit the same.
        """
        offered.take(self._group_flat, out=self._demands_flat)
        if self._uniform_groups:
            # Single full-width class: operate on the reused buffer directly,
            # no row gather — the common every-app-stripes-everywhere path.
            alloc = self._water_fill_rows(
                self._demands_2d, capacity, self._group_matrix, weights, all_ones
            )
            admitted = np.zeros_like(offered)
            admitted[self._group_flat] = alloc.reshape(-1)
            return admitted
        admitted = np.zeros_like(offered)
        for w, rows, class_matrix in self._width_classes:
            demands = self._demands_2d[rows, :w]        # (m, w), rows contiguous
            alloc = self._water_fill_rows(
                demands, capacity[rows], class_matrix, weights, all_ones
            )
            admitted[class_matrix.reshape(-1)] = alloc.reshape(-1)
        return admitted

    @staticmethod
    def _water_fill_rows(
        demands: np.ndarray,
        capacity: np.ndarray,
        matrix: np.ndarray,
        weights: np.ndarray,
        all_ones: bool,
    ) -> np.ndarray:
        """The stacked water-filling kernel for one ``(m, w)`` row block."""
        total = demands.sum(axis=1)
        has_room = capacity > 0
        fits = has_room & (total <= capacity)
        over = has_room & (total > capacity)
        all_over = bool(over.all())
        if all_over:
            alloc = None                                # every row water-fills
        else:
            alloc = np.zeros_like(demands)
            alloc[fits] = demands[fits]
        if all_over or over.any():
            rows = demands if all_over else demands[over]   # (m, k)
            if all_ones:
                # where(unsat, 1.0, 0.0) with a scalar produces the same
                # values as with an explicit unit-weight row; skip the gather.
                row_weights: object = 1.0
            else:
                row_weights = weights[matrix if all_over else matrix[over]]
            row_alloc = np.zeros_like(rows)
            remaining = capacity.copy() if all_over else capacity[over].copy()
            unsatisfied = rows > 0
            for _ in range(4):
                w = np.where(unsatisfied, row_weights, 0.0)
                w_sum = w.sum(axis=1)
                live = (remaining > 1e-12) & (w_sum > 0)
                if not live.any():
                    break
                w_sum_safe = np.where(live, w_sum, 1.0)
                offer = remaining[:, None] * w / w_sum_safe[:, None]
                take = np.minimum(offer, rows - row_alloc)
                take[~live] = 0.0
                row_alloc += take
                remaining -= take.sum(axis=1)
                unsatisfied = (rows - row_alloc) > 1e-9
            if all_over:
                alloc = row_alloc
            else:
                alloc[over] = row_alloc
        return alloc

    # ------------------------------------------------------------------ #
    # Drain
    # ------------------------------------------------------------------ #

    def drain(self, drain_capacity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Drain up to ``drain_capacity`` bytes per server toward the backend.

        Drained bytes are attributed to connections proportionally to their
        buffered bytes (a fluid approximation of FIFO service).

        Returns
        -------
        (drained_per_server, drained_per_conn)
        """
        drain_capacity = np.asarray(drain_capacity, dtype=np.float64)
        if drain_capacity.shape[0] != self.n_servers:
            raise SimulationError("drain_capacity has the wrong number of servers")
        np.maximum(drain_capacity, 0.0, out=self._scratch_capacity)
        drained_per_server = np.minimum(self.fill, self._scratch_capacity)
        # An empty buffer drains exactly 0.0 bytes, so 0 / max(0, tiny) is the
        # same +0.0 a guarded where() would select — no special case needed.
        fraction = self._scratch_fraction
        np.maximum(self.fill, 1e-300, out=fraction)
        np.divide(drained_per_server, fraction, out=fraction)
        np.take(fraction, self.conn_server, out=self._scratch_conn)
        drained_per_conn = self.conn_bytes * self._scratch_conn
        self.conn_bytes -= drained_per_conn
        # Snap tiny residues to zero so fragments complete crisply.
        self.conn_bytes[self.conn_bytes < 1e-6] = 0.0
        # In-place so views of fill (the batched kernel re-points members at
        # slices of one flat array) stay live across steps.
        self.fill[:] = np.bincount(
            self.conn_server, weights=self.conn_bytes, minlength=self.n_servers
        )
        self.total_drained += drained_per_server
        return drained_per_server, drained_per_conn

    def note_step(self, full_threshold: float = 0.95, weight=1.0) -> None:
        """Record occupancy statistics for one step (for root-cause analysis).

        A server counts as full when its occupancy reaches ``full_threshold``
        (a fraction in (0, 1]).  ``weight`` is the step's worth in base-step
        units, a scalar or one per server: ``dt / base_dt``, which is exactly
        1 for a fixed step (the kernel's servers each weigh their own
        member's step).
        """
        self.observed_steps += weight
        occupancy = self._scratch_fraction
        np.divide(self.fill, self.capacity, out=occupancy)
        full = self._scratch_full
        np.greater_equal(occupancy, full_threshold, out=full)
        np.add(self.full_steps, weight, out=self.full_steps, where=full)

    def reset(self) -> None:
        """Clear all state (buffers and statistics)."""
        self.fill[:] = 0.0
        self.conn_bytes[:] = 0.0
        self.total_admitted[:] = 0.0
        self.total_drained[:] = 0.0
        self.full_steps[:] = 0.0
        self.observed_steps[:] = 0.0
