"""TCP-like per-connection congestion/flow-control window model.

The paper traces the window size of PVFS client connections with tcpdump and
shows that under contention with a slow backend the window collapses to
nearly zero (Figure 10) — the Incast problem — and that the collapse hits
the application that starts second much harder (Figure 11).

:class:`WindowState` holds the per-connection state as NumPy arrays and
implements one update per simulation step:

* **additive increase** while a connection receives (nearly) the bandwidth
  it asks for,
* **multiplicative decrease** when the server buffer throttles it,
* **timeout collapse** (window := minimum, stall for an exponentially
  backed-off RTO) when a connection is starved for a full RTO,
* recovery of the "established" status used by the admission model once a
  connection delivers again.

The update up to the paced-timeout hazard runs in the native kernel
(:mod:`repro.native`), which the stepping kernel calls on the same arrays;
the hazard's and the collapses' draws stay Python calls on each site's own
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro import native
from repro.config.network import TransportConfig

__all__ = ["RngSites", "WindowState", "WindowUpdateResult"]


class RngSites(NamedTuple):
    """Random-draw ownership: site ``k`` owns the connections ``slices[k]``
    (back to back, starting at ``starts[k]``, the first at 0) and draws from
    ``rngs[k]``."""

    starts: np.ndarray
    slices: Sequence[slice]
    rngs: Sequence[np.random.Generator]


@dataclass
class WindowUpdateResult:
    """The timeout collapses of one window-update step: how many, and the
    ascending indices of the collapsed connections."""

    n_collapsed: int
    collapsed_indices: np.ndarray


class WindowState:
    """Vectorized per-connection transport state.

    Parameters
    ----------
    n_connections:
        Number of connections (client process / server pairs).
    transport:
        Transport parameters.
    rng:
        Random generator used to desynchronize timeout expirations slightly
        (avoids artificial lock-step retries that a fluid model would
        otherwise produce).
    """

    def __init__(
        self,
        n_connections: int,
        transport: TransportConfig,
        rng: np.random.Generator,
    ) -> None:
        if n_connections < 0:
            raise ValueError("n_connections must be non-negative")
        self.transport = transport
        self._rng = rng
        n = int(n_connections)
        self.n_connections = n
        #: Congestion window in bytes.
        self.cwnd = np.full(n, float(transport.window_init), dtype=np.float64)
        #: Simulated time until which the connection refrains from sending.
        #: Initialized to -inf so that runs starting at negative times
        #: (Δ-graph experiments with a negative delay) are not stalled.
        self.stall_until = np.full(n, -np.inf, dtype=np.float64)
        #: Consecutive timeouts (exponential backoff exponent).
        self.backoff = np.zeros(n, dtype=np.int64)
        #: Accumulated time (s) during which the connection was starved.
        self.starved_time = np.zeros(n, dtype=np.float64)
        #: Last simulated time the connection delivered bytes to its server.
        self.last_delivery = np.full(n, -np.inf, dtype=np.float64)
        #: Cumulative number of timeout collapses (for Incast detection).
        self.collapse_count = np.zeros(n, dtype=np.int64)
        #: Total bytes delivered per connection.
        self.delivered_bytes = np.zeros(n, dtype=np.float64)
        #: True for connections whose ACK clock is running (they delivered a
        #: full segment recently and have not timed out since).  Paced
        #: connections are largely immune to Incast losses; bursty ones are
        #: not.
        self.paced = np.zeros(n, dtype=bool)
        #: True for connections that have been paced at least once; they
        #: recover from a timeout much more easily than true newcomers.
        self.ever_paced = np.zeros(n, dtype=bool)
        #: Each connection's paced-timeout probability for its current step
        #: (:meth:`step_hazard` of its step).
        self.hazard = np.zeros(n, dtype=np.float64)
        # Scratch of update(), reused every step so the hot path allocates
        # nothing: loss-prone active connections, timeouts, hazard
        # candidates, their hazard draws and the collapses' jitter draws.
        self._draws = np.zeros(n, dtype=np.float64)
        #: The RngSites whose draw calls :attr:`_site_draws` holds: each
        #: site's ``random`` and its view of :attr:`_draws`.
        self._sites: Optional[RngSites] = None
        self._site_draws = []
        self._empty_indices = np.zeros(0, dtype=np.int64)
        self._keep = np.zeros(n, dtype=bool)
        self._timed_out = np.zeros(n, dtype=bool)
        self._candidates = np.zeros(n, dtype=bool)
        self._jitter = np.zeros(n, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Queries used by the admission model
    # ------------------------------------------------------------------ #

    def sending_allowed(self, now: float) -> np.ndarray:
        """Boolean mask of connections not currently stalled in an RTO."""
        return self.stall_until <= now

    def established_mask(self, now: float) -> np.ndarray:
        """Connections that delivered bytes within the established-memory window."""
        return (now - self.last_delivery) <= self.transport.established_memory

    def admission_weights(self, now: float) -> np.ndarray:
        """Admission weights: established connections count for more."""
        weights = np.ones(self.n_connections, dtype=np.float64)
        weights[self.established_mask(now)] = self.transport.established_weight
        return weights

    def force_timeout(self, indices: np.ndarray, now: float) -> int:
        """Collapse the given connections immediately (burst lost entirely).

        Used by the admission gate for bursty connections whose whole-window
        probe into a full buffer is dropped: each window drops to its
        minimum and the connection stalls for an exponentially backed-off
        RTO, randomized a little (one jitter draw per connection, in the
        ascending order ``indices`` must have: ``uniform(0.5, 1.5)``, which
        the native kernel forms from a ``random()`` draw as NumPy does).
        Returns how many connections were collapsed.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return 0
        if (np.diff(indices) <= 0).any():
            raise ValueError("indices must be ascending and distinct")
        flagged = np.zeros(self.n_connections, dtype=bool)
        flagged[indices] = True
        self._rng.random(out=self._jitter[:indices.size])
        native.library().nk_collapse(
            self.table().address, flagged.ctypes.data,
            np.full(self.n_connections, float(now)).ctypes.data, self._jitter.ctypes.data,
        )
        return int(indices.size)

    def desired_bytes(self, now: float, dt: float, rtt_eff: np.ndarray) -> np.ndarray:
        """Bytes each connection would like to send during this step.

        ``rtt_eff`` is the per-connection effective round-trip time (base RTT
        plus queueing delay at its server); the window-limited rate is
        ``cwnd / rtt_eff``.
        """
        rtt_eff = np.maximum(np.asarray(rtt_eff, dtype=np.float64), 1e-9)
        rate = self.cwnd / rtt_eff
        desired = rate * dt
        desired[~self.sending_allowed(now)] = 0.0
        return desired

    def stalled_fraction(self, now: float, active_mask: np.ndarray) -> float:
        """Fraction of active connections currently stalled in an RTO."""
        active = np.asarray(active_mask, dtype=bool)
        n_active = int(active.sum())
        if n_active == 0:
            return 0.0
        stalled = np.logical_and(active, ~self.sending_allowed(now))
        return float(stalled.sum()) / float(n_active)

    # ------------------------------------------------------------------ #
    # Update
    # ------------------------------------------------------------------ #

    def update(
        self,
        now: Union[float, np.ndarray],
        dt: Union[float, np.ndarray],
        requested: np.ndarray,
        admitted: np.ndarray,
        rtt_eff: np.ndarray,
        oversubscribed: np.ndarray,
        loss_prone: Optional[np.ndarray] = None,
    ) -> WindowUpdateResult:
        """Apply one step of window dynamics.

        Parameters
        ----------
        now, dt:
            Current simulated time and step length: floats, or one per
            connection.
        requested:
            Bytes each connection tried to send this step (0 for idle or
            stalled connections).
        admitted:
            Bytes actually admitted into the server buffer.
        rtt_eff:
            Per-connection effective RTT (seconds), used to pace the additive
            increase.
        oversubscribed:
            Boolean per-connection flag: True when the connection's server
            buffer could not accept all offered traffic this step (a
            congestion signal even for connections that individually got
            their share).
        loss_prone:
            Boolean per-connection flag: True when the connection is in a
            regime where a throttled step means *lost packets* (full-window
            burst into a full buffer with a window of only a few segments)
            rather than smooth backpressure.  Only loss-prone connections
            react to throttling with a multiplicative decrease and accumulate
            starvation toward a timeout collapse; connections that are merely
            backpressured (receiver window + queueing delay) keep their
            congestion window, as a self-clocked TCP sender would.  Defaults
            to "all active connections" (the most pessimistic assumption).

        Every draw comes from this state's own generator, as one site over
        all connections (:meth:`resolve`), and each connection's
        paced-timeout hazard from its ``dt``.
        """
        n = self.n_connections

        def lanes(values, dtype=np.float64):
            return np.ascontiguousarray(np.broadcast_to(np.asarray(values, dtype=dtype), (n,)))

        now_lanes = lanes(now)
        packed = native.library().nk_window_update(
            self.table().address, now_lanes.ctypes.data, lanes(dt).ctypes.data,
            lanes(requested).ctypes.data, lanes(admitted).ctypes.data,
            lanes(rtt_eff).ctypes.data, lanes(oversubscribed, bool).ctypes.data,
            None if loss_prone is None else lanes(loss_prone, bool).ctypes.data,
        )
        self.hazard[:] = self.step_hazard(dt)
        counts = self.resolve(packed, now_lanes,
                              RngSites(np.zeros(1, np.int64), (slice(None),), (self._rng,)))
        if counts is None:
            return WindowUpdateResult(0, self._empty_indices)
        return WindowUpdateResult(int(counts.sum()), self._timed_out.nonzero()[0])

    def step_hazard(self, dt: float) -> float:
        """The paced-timeout probability of one step of length ``dt``."""
        t = self.transport
        return 1.0 - (1.0 - t.paced_timeout_hazard) ** (dt / t.rto)

    def resolve(self, packed: int, now: np.ndarray, rng_sites: RngSites,
                table: Optional[native.Table] = None) -> Optional[np.ndarray]:
        """Finish an update the native kernel ran up to the hazard; returns
        each site's timeouts, or ``None`` when no connection timed out.

        ``packed`` is its result (``-1`` when nothing was requested or
        delivered, else its hazard candidates ``<< 32`` plus its starvation
        timeouts); ``now`` is per connection, and :attr:`hazard` holds each
        connection's probability for its step.  Every update collapses (and
        resets) a connection whose starved time reaches the RTO, so only a
        starving one can time out.  The residual whole-window losses of
        paced connections in the Incast regime (rare, but they keep even
        the incumbent application from being completely untouched: Figure
        2(a) shows it slowed as well) draw from each site holding a
        candidate, and every timed-out connection collapses with a jitter
        drawn from its own site.
        """
        t = self.transport
        if packed <= 0:
            return None
        n_candidates, n_collapsed = packed >> 32, packed & 0xFFFFFFFF
        lib = native.library()
        table = table or self.table()
        if t.paced_timeout_hazard > 0.0 and n_candidates:
            if rng_sites is not self._sites:
                self._sites = rng_sites
                self._site_draws = [(rng.random, self._draws[lanes])
                                    for rng, lanes in zip(rng_sites.rngs, rng_sites.slices)]
            site_draws = self._site_draws
            drawing = np.logical_or.reduceat(self._candidates, rng_sites.starts)
            for k in drawing.nonzero()[0].tolist():
                random, lanes = site_draws[k]
                random(out=lanes)
            # Sites without candidates keep stale draws; the kernel reads
            # only the candidates', so only drawn sites matter.
            n_collapsed = lib.nk_window_hazard(table.address)
        if not n_collapsed:
            return None
        # Randomize the retry instant a little to avoid artificial lock-step
        # retries among simultaneously collapsed connections: each site
        # draws the jitter of its own timeouts (as force_timeout does),
        # which the kernel consumes in lane order (a site's lanes are one
        # contiguous run).
        counts = np.add.reduceat(self._timed_out, rng_sites.starts, dtype=np.int64)
        offset = 0
        for k in counts.nonzero()[0].tolist():
            n = int(counts[k])
            rng_sites.rngs[k].random(out=self._jitter[offset:offset + n])
            offset += n
        lib.nk_collapse(table.address, self._timed_out.ctypes.data, now.ctypes.data,
                        self._jitter.ctypes.data)
        return counts

    def table(self) -> native.Table:
        """The address table of this state's current arrays."""
        t = self.transport
        return native.Table(
            "windows", {"conn": self.n_connections},
            n_conn=self.n_connections, mss=t.mss,
            increase=t.additive_increase_segments * t.mss, window_max=t.window_max,
            window_min=t.window_min, decrease=t.multiplicative_decrease,
            starvation_fraction=t.starvation_fraction, rto=t.rto,
            max_backoff=t.max_backoff_exponent,
            cwnd=self.cwnd, stall_until=self.stall_until, backoff=self.backoff,
            starved_time=self.starved_time, last_delivery=self.last_delivery,
            collapse_count=self.collapse_count, delivered_bytes=self.delivered_bytes,
            paced=self.paced, ever_paced=self.ever_paced, keep=self._keep,
            timed_out=self._timed_out, candidates=self._candidates, draws=self._draws,
            hazard=self.hazard, jitter=self._jitter,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def total_collapses(self) -> int:
        """Total number of timeout collapses across all connections."""
        return int(self.collapse_count.sum())
