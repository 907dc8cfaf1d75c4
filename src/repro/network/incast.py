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

Admission, drain and the pressure statistics run in the native kernel
(:mod:`repro.native`), which the stepping kernel calls on the same arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import native
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
        # admission never rescans the mapping array: one stable sort lists
        # each server's connections in ascending index order (exactly the
        # order a boolean ``conn_server == s`` mask yields), and server ``s``
        # owns ``_order[_row_start[s]:][:_row_width[s]]``.  The water-filling
        # runs per server on that row at its true width and order, which
        # keeps NumPy's pairwise-summation tree of the per-server
        # ``demands.sum()``, so a ragged or batched deployment admits bit for
        # bit what each group would admit alone.
        self._order = np.argsort(self.conn_server, kind="stable")
        widths = np.bincount(self.conn_server, minlength=self.n_servers)
        self._row_width = widths.astype(np.int64)
        self._row_start = np.cumsum(widths) - widths
        max_width = int(widths.max()) if n_conns else 0
        #: Slots a padded (n_servers, widest group) layout would leave empty:
        #: how ragged the groups are (the rows hold no padding).
        self.padded_slots = int((max_width - widths).sum()) if max_width > 0 else 0
        #: Total slots of that padded layout (real + padding).
        self.group_slots = int(self.n_servers * max_width)
        self._weights_all_ones = False
        self._validated_weights: Optional[np.ndarray] = None
        # Scratch of the admission's water-filling.
        self._rows = np.zeros((4, n_conns), dtype=np.float64)
        self._row_mask = np.zeros(n_conns, dtype=bool)
        #: Bytes admitted per server by the last admission (the kernel's
        #: link accounting reads them), and drained by the last drain.
        self.admitted_per_server = np.zeros(self.n_servers, dtype=np.float64)
        self._drained_per_server = np.zeros(self.n_servers, dtype=np.float64)
        self._drained_per_conn = np.zeros(n_conns, dtype=np.float64)
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

        A server whose offers fit its room admits them as offered; an
        over-subscribed one runs the canonical
        :func:`~repro.network.allocation.proportional_share` water-filling
        on its connections, bit for bit.  With unit weights a row's weight
        sum is an exact count, so the routine takes no weights at all.
        """
        offered = self._lanes(offered, self.n_connections, "offered")
        weights = np.asarray(weights, dtype=np.float64)
        # A caller may pass the same frozen (non-writeable) weights every
        # step; identity-caching the validation and the all-ones flag is
        # only sound for arrays that cannot be mutated in place, so
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
        if not all_ones:
            weights = self._lanes(weights, self.n_connections, "weights")
        if extra_capacity is not None:
            extra_capacity = self._lanes(extra_capacity, self.n_servers, "extra_capacity")
        if max_admission is not None:
            max_admission = self._lanes(max_admission, self.n_servers, "max_admission")
        admitted = np.empty(self.n_connections, dtype=np.float64)
        oversubscribed = np.empty(self.n_connections, dtype=bool)
        native.library().nk_admit(
            self.table().address, offered.ctypes.data,
            None if all_ones else weights.ctypes.data,
            native.address(extra_capacity), native.address(max_admission),
            admitted.ctypes.data, oversubscribed.ctypes.data,
        )
        return admitted, oversubscribed

    # ------------------------------------------------------------------ #
    # Drain
    # ------------------------------------------------------------------ #

    def drain(self, drain_capacity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Drain up to ``drain_capacity`` bytes per server toward the backend.

        Drained bytes are attributed to connections proportionally to their
        buffered bytes (a fluid approximation of FIFO service); residues
        under a micro-byte snap to zero so fragments complete crisply.

        Returns
        -------
        (drained_per_server, drained_per_conn)
        """
        drain_capacity = self._lanes(drain_capacity, self.n_servers, "drain_capacity")
        native.library().nk_drain(self.table().address, drain_capacity.ctypes.data)
        return self._drained_per_server.copy(), self._drained_per_conn.copy()

    def note_step(self, full_threshold: float = 0.95, weight=1.0) -> None:
        """Record occupancy statistics for one step (for root-cause analysis).

        A server counts as full when its occupancy reaches ``full_threshold``
        (a fraction in (0, 1]).  ``weight`` is the step's worth in base-step
        units, a scalar or one per server: ``dt / base_dt``, which is exactly
        1 for a fixed step (the kernel's servers each weigh their own
        member's step).
        """
        weight = np.ascontiguousarray(
            np.broadcast_to(np.asarray(weight, dtype=np.float64), (self.n_servers,))
        )
        native.library().nk_note_step(self.table().address, weight.ctypes.data,
                                      float(full_threshold))

    # ------------------------------------------------------------------ #
    # The native routines' view
    # ------------------------------------------------------------------ #

    @staticmethod
    def _lanes(values, n: int, name: str) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (n,):
            raise SimulationError(f"{name} has the wrong number of lanes")
        return values

    def table(self) -> native.Table:
        """The address table of these buffers' current arrays."""
        rows = self._rows
        return native.Table(
            "buffers", {"conn": self.n_connections, "srv": self.n_servers},
            n_conn=self.n_connections, n_srv=self.n_servers, capacity=self.capacity,
            order=self._order,
            row_start=self._row_start, row_width=self._row_width,
            fill=self.fill, conn_bytes=self.conn_bytes,
            total_admitted=self.total_admitted, total_drained=self.total_drained,
            full_steps=self.full_steps, observed_steps=self.observed_steps,
            admitted_per_server=self.admitted_per_server,
            drained_per_server=self._drained_per_server,
            drained_per_conn=self._drained_per_conn,
            row_a=rows[0], row_b=rows[1], row_c=rows[2], row_d=rows[3],
            row_mask=self._row_mask,
        )
