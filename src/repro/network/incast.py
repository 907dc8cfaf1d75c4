"""Server receive buffers and the admission model (the Incast locus).

Each storage server has a bounded staging buffer between the network and the
backend.  Clients push data into it (admission) and the backend drains it.
When the backend is slow the buffer is persistently full; admission then
shares out the little space freed each instant in proportion to what each
connection offers, so established connections with wide windows keep most of
it — the flow-control breakdown the paper identifies as the root of unfair
interference.

:class:`ServerBuffers` owns the per-server occupancy and the per-connection
"bytes currently in the buffer" accounting, and implements:

* :meth:`admit` — proportional admission of offered bytes, one water-filling
  per server over the free space plus the bytes drained in the step,
* :meth:`drain` — removal of drained bytes with per-connection attribution,
* occupancy/pressure queries used for effective-RTT and root-cause analysis.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError

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
        # Step-invariant per-server connection groups, computed once so the
        # admission path never rescans the mapping array: one stable sort
        # lists each server's connections in ascending index order (exactly
        # the order a boolean ``conn_server == s`` mask yields).  Servers of
        # equal group width form a *width class*, whose groups stack into one
        # (m, width) connection matrix; the admission water-filling runs as
        # row-wise 2D ops per class instead of a per-server loop.  Each row
        # keeps its true width and element order, which preserves NumPy's
        # pairwise-summation tree (a zero-padded row would not: the sum
        # unrolls by 8), so a ragged or batched deployment admits bit-for-bit
        # what each group would admit alone.
        order = np.argsort(self.conn_server, kind="stable")
        widths = np.bincount(self.conn_server, minlength=self.n_servers)
        starts = np.cumsum(widths) - widths
        max_width = int(widths.max()) if n_conns else 0
        #: (width, row indices or ``slice(None)`` for every server, (m, width)
        #: connection matrix) per distinct nonzero group width, ascending.
        self._width_classes = []
        for w in sorted({int(x) for x in widths} - {0}):
            rows = np.flatnonzero(widths == w)
            cols = order[starts[rows][:, None] + np.arange(w)]
            if rows.shape[0] == self.n_servers:
                rows = slice(None)
            self._width_classes.append((w, rows, cols))
        #: Slots a padded (n_servers, widest group) layout would leave empty:
        #: how ragged the groups are (the classes gather no padding).
        self.padded_slots = int((max_width - widths).sum()) if max_width > 0 else 0
        #: Total slots of that padded layout (real + padding).
        self.group_slots = int(self.n_servers * max_width)
        self._weights_all_ones = False
        # Scratch buffers reused by admit()/drain(); holding them here keeps
        # the per-step allocation count flat without changing any result.
        self._scratch_capacity = np.zeros(self.n_servers, dtype=np.float64)
        self._scratch_fraction = np.zeros(self.n_servers, dtype=np.float64)
        self._scratch_full = np.zeros(self.n_servers, dtype=bool)
        self._scratch_conn = np.zeros(n_conns, dtype=np.float64)
        self._scratch_residue = np.zeros(n_conns, dtype=bool)
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
        admitted = self._admit_proportional(offered, weights, capacity)
        self.conn_bytes += admitted
        admitted_per_server = np.bincount(
            self.conn_server, weights=admitted, minlength=self.n_servers
        )
        self.fill += admitted_per_server
        self.total_admitted += admitted_per_server
        #: Bytes admitted per server by the last call (the kernel's link
        #: accounting reads them).
        self.admitted_per_server = admitted_per_server
        return admitted, oversub_server[self.conn_server]

    def _admit_proportional(
        self,
        offered: np.ndarray,
        weights: np.ndarray,
        capacity: np.ndarray,
    ) -> np.ndarray:
        """Deterministic proportional admission, one water-filling per server.

        Bit-for-bit the canonical
        :func:`~repro.network.allocation.proportional_share` applied per
        server on the cached index groups, vectorized across the servers of
        each width class.  A server whose offers fit its capacity admits
        them as offered, so the result starts as a copy of ``offered``, with
        the connections of servers without room zeroed; each class sums its
        rows (``sum(axis=1)`` over the row's own connections at their true
        width, the summation tree of the per-server ``demands.sum()``) and
        water-fills only its over-subscribed rows, whose connections it
        overwrites (a row without room that is offered anything is one, and
        takes nothing).
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
        admitted = offered.copy()
        no_room = capacity <= 0
        if np.count_nonzero(no_room):
            np.copyto(admitted, 0.0, where=no_room[self.conn_server])
        if not np.count_nonzero(offered):
            return admitted                 # nothing offered: every row fits
        for _w, rows, cols in self._width_classes:
            demands = offered[cols]
            room = capacity[rows]
            over = np.add.reduce(demands, axis=1) > room    # demands.sum(axis=1)
            n_over = np.count_nonzero(over)
            if not n_over:
                continue
            if n_over < over.shape[0]:
                over = over.nonzero()[0]
                demands, room, cols = demands[over], room[over], cols[over]
            elif isinstance(rows, slice):
                room = room.copy()                  # a view of ``capacity``
            self._water_fill_rows(demands, room, cols,
                                  1.0 if all_ones else weights[cols], admitted)
        return admitted

    @staticmethod
    def _water_fill_rows(
        demands: np.ndarray,
        remaining: np.ndarray,
        cols: np.ndarray,
        weights,
        out: np.ndarray,
    ) -> None:
        """Water-fill each row of ``demands`` (``(k, w)``) into its room in
        ``remaining`` (consumed) and write the allocation to ``out[cols]``.

        A row is *live* in a pass while it has room left (``> 1e-12``) and an
        unsatisfied cell.  A row that is not live takes nothing, so it stays
        dead in every later pass: the pass loop writes it out and drops it,
        and the live rows' reductions each combine one row's elements only,
        so the result equals the per-server loop with its early ``break``.
        Rows die by running out of room (on the tiny fleet matrix all of
        them did), so a pass tests the room before it builds the weights.

        ``weights`` is the float ``1.0`` for unit weights.  Then every cell's
        weight is 0 or 1, so a row's weight sum is an exact count whatever
        the summation order, and ``remaining * w / w_sum`` is
        ``remaining / w_sum`` or ``+0.0`` cell by cell: one division per row
        and one broadcast product give the same bits.
        """
        unit = isinstance(weights, float)
        alloc = np.zeros(demands.shape)
        unsatisfied = demands > 0
        for _ in range(4):
            live = remaining > 1e-12
            if not np.count_nonzero(live):
                break
            if unit:
                w = unsatisfied
                w_sum = np.add.reduce(w, axis=1, dtype=np.float64)
            else:
                w = np.where(unsatisfied, weights, 0.0)
                w_sum = np.add.reduce(w, axis=1)
            live &= w_sum > 0
            n_live = np.count_nonzero(live)
            if n_live < live.shape[0]:
                dead = ~live
                out[cols[dead]] = alloc[dead]
                if not n_live:
                    return
                live = live.nonzero()[0]
                demands, alloc, cols = demands[live], alloc[live], cols[live]
                remaining, w, w_sum = remaining[live], w[live], w_sum[live]
                if not unit:
                    weights = weights[live]
            if unit:
                offer = np.multiply(w, (remaining / w_sum)[:, None])
            else:
                offer = remaining[:, None] * w / w_sum[:, None]
            take = np.minimum(offer, demands - alloc)
            alloc += take
            remaining -= np.add.reduce(take, axis=1)
            unsatisfied = (demands - alloc) > 1e-9
        out[cols] = alloc

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
        fraction.take(self.conn_server, out=self._scratch_conn, mode="clip")
        drained_per_conn = self.conn_bytes * self._scratch_conn
        self.conn_bytes -= drained_per_conn
        # Snap tiny residues to zero so fragments complete crisply.
        np.less(self.conn_bytes, 1e-6, out=self._scratch_residue)
        np.copyto(self.conn_bytes, 0.0, where=self._scratch_residue)
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
