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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.network import TransportConfig

__all__ = ["WindowState", "WindowUpdateResult"]


@dataclass
class WindowUpdateResult:
    """Summary of one window-update step (used for tracing and analysis).

    When :meth:`WindowState.update` runs with ``collect_stats=False`` (the
    stepper's hot path, which only consumes the collapse fields) the optional
    aggregates are not computed and report ``0``/``0.0``.
    """

    n_collapsed: int
    n_decreased: int
    n_increased: int
    stalled_fraction: float
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
        # Scratch buffers for update(); reused every step so the hot path
        # allocates nothing.  They never leave this class.
        self._fraction = np.empty(n, dtype=np.float64)
        self._rtt = np.empty(n, dtype=np.float64)
        self._cwnd_next = np.empty(n, dtype=np.float64)
        self._starved_next = np.empty(n, dtype=np.float64)
        self._draws = np.empty(n, dtype=np.float64)
        self._empty_indices = np.zeros(0, dtype=np.int64)
        self._mask_active = np.empty(n, dtype=bool)
        self._mask_a = np.empty(n, dtype=bool)
        self._mask_b = np.empty(n, dtype=bool)
        self._mask_c = np.empty(n, dtype=bool)
        self._mask_d = np.empty(n, dtype=bool)

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
        probe into a full buffer is dropped.  Returns how many connections
        were collapsed.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return 0
        t = self.transport
        self.cwnd[indices] = t.window_min
        backoff = np.minimum(self.backoff[indices], t.max_backoff_exponent)
        jitter = self._rng.uniform(0.5, 1.5, size=indices.shape[0])
        self.stall_until[indices] = now + t.rto * (2.0**backoff) * jitter
        self.backoff[indices] = backoff + 1
        self.starved_time[indices] = 0.0
        self.collapse_count[indices] += 1
        self.paced[indices] = False
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
        collect_stats: bool = True,
        rng_sites: Optional[Sequence[Tuple[slice, np.random.Generator, float]]] = None,
    ) -> WindowUpdateResult:
        """Apply one step of window dynamics.

        Parameters
        ----------
        now, dt:
            Current simulated time and step length: floats, or one per
            connection (the batched kernel's members each step on their own
            clock, and every lane carries its member's values).
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
        collect_stats:
            When False, skip the aggregate counters (``n_decreased``,
            ``n_increased``, ``stalled_fraction``) that only tracing and
            analysis consume; the window dynamics themselves are unchanged.
        rng_sites:
            Random-draw ownership as ``(slice, generator, dt)`` triples
            covering disjoint connection ranges.  The batched kernel passes
            one site per batch member so each member consumes draws from
            *its own* transport stream, and takes its paced-timeout hazard
            from *its own* step (a float), exactly as it would alone; the
            default single site over all connections, with the float ``dt``,
            reproduces the scalar behaviour bit-for-bit.  A site only draws
            when at least one of its connections is a hazard candidate
            (resp. collapses), mirroring the scalar short-circuit.
        """
        t = self.transport
        requested = np.asarray(requested, dtype=np.float64)
        admitted = np.asarray(admitted, dtype=np.float64)
        rtt = self._rtt
        np.maximum(np.asarray(rtt_eff, dtype=np.float64), 1e-9, out=rtt)
        oversubscribed = np.asarray(oversubscribed, dtype=bool)
        mask_a, mask_b, mask_c, mask_d = (
            self._mask_a, self._mask_b, self._mask_c, self._mask_d,
        )

        active = self._mask_active
        np.greater(requested, 1e-9, out=active)
        if loss_prone is None:
            loss_prone = active
        else:
            loss_prone = np.asarray(loss_prone, dtype=bool)
        fraction = self._fraction
        fraction.fill(1.0)
        np.divide(admitted, requested, out=fraction, where=active)

        np.greater(admitted, 1e-9, out=mask_a)  # delivered
        self.delivered_bytes += admitted
        np.copyto(self.last_delivery, now, where=mask_a)
        np.greater_equal(fraction, 0.5, out=mask_b)
        np.logical_and(mask_a, mask_b, out=mask_b)
        np.copyto(self.backoff, 0, where=mask_b)
        # A connection that pushed at least a segment through has a running
        # ACK clock again.
        np.greater_equal(admitted, t.mss, out=mask_a)  # newly paced
        self.paced |= mask_a
        self.ever_paced |= mask_a

        # Additive increase: one segment per effective RTT of good progress.
        np.greater_equal(fraction, 0.9, out=mask_b)
        np.logical_and(active, mask_b, out=mask_b)  # good progress
        n_increased = int(mask_b.sum()) if collect_stats else 0
        grown = self._cwnd_next
        np.divide(dt, rtt, out=grown)
        grown *= t.additive_increase_segments * t.mss
        np.add(self.cwnd, grown, out=grown)
        np.minimum(grown, t.window_max, out=grown)
        np.copyto(self.cwnd, grown, where=mask_b)

        # Multiplicative decrease: only loss-prone connections interpret a
        # throttled step as packet loss.  A paced connection that gets less
        # than it asked for is experiencing flow control (advertised window,
        # queueing delay), which real TCP absorbs without shrinking cwnd;
        # treating it as loss makes low-connection-count configurations
        # (e.g. one writer per node) underutilize the backend.
        np.logical_and(active, loss_prone, out=mask_a)  # kept for starvation
        np.less(fraction, 0.5, out=mask_b)
        np.logical_and(mask_a, mask_b, out=mask_b)
        np.logical_and(mask_b, oversubscribed, out=mask_b)  # throttled
        n_decreased = int(mask_b.sum()) if collect_stats else 0
        shrunk = self._cwnd_next
        np.multiply(self.cwnd, t.multiplicative_decrease, out=shrunk)
        np.maximum(shrunk, t.window_min, out=shrunk)
        np.copyto(self.cwnd, shrunk, where=mask_b)

        # Starvation accounting and timeout collapse.  Only loss-prone
        # connections accumulate starvation: a burst that hit a full buffer
        # was lost, while a source-paced trickle was merely delayed.
        np.less(fraction, t.starvation_fraction, out=mask_b)
        np.logical_and(mask_a, mask_b, out=mask_b)  # starving
        starved = self._starved_next
        np.add(self.starved_time, dt, out=starved)
        np.copyto(self.starved_time, starved, where=mask_b)
        np.logical_not(mask_b, out=mask_c)
        np.logical_and(active, mask_c, out=mask_c)
        np.copyto(self.starved_time, 0.0, where=mask_c)
        timed_out = mask_b
        np.greater_equal(self.starved_time, t.rto, out=timed_out)

        # Residual whole-window losses for paced connections in the Incast
        # regime: rare, but they keep even the incumbent application from
        # being completely untouched (Figure 2(a) shows it slowed as well).
        np.logical_not(timed_out, out=mask_c)
        np.logical_and(mask_a, self.paced, out=mask_d)
        np.logical_and(mask_d, mask_c, out=mask_d)  # hazard candidates
        if rng_sites is None:
            rng_sites = ((slice(None), self._rng, dt),)
        if t.paced_timeout_hazard > 0.0 and mask_d.any():
            for site, rng, site_dt in rng_sites:
                if mask_d[site].any():
                    rng.random(out=self._draws[site])
                    p_step = 1.0 - (1.0 - t.paced_timeout_hazard) ** (site_dt / t.rto)
                    np.less(self._draws[site], p_step, out=mask_c[site])
            # Sites without candidates keep a stale mask_c; the AND with
            # mask_d below discards it, so only drawn sites matter.
            np.logical_and(mask_d, mask_c, out=mask_c)
            np.logical_or(timed_out, mask_c, out=timed_out)

        n_collapsed = int(np.count_nonzero(timed_out))
        idx = np.flatnonzero(timed_out) if n_collapsed else self._empty_indices
        if n_collapsed:
            self.cwnd[idx] = t.window_min
            backoff = np.minimum(self.backoff[idx], t.max_backoff_exponent)
            # Randomize the retry instant a little to avoid artificial
            # lock-step retries among simultaneously collapsed connections.
            # Each site jitters its own collapsed connections (idx is
            # ascending, so a site's share is one contiguous run).
            jitter = np.empty(idx.shape[0], dtype=np.float64)
            for site, rng, _ in rng_sites:
                a = (
                    0 if site.start is None
                    else int(np.searchsorted(idx, site.start, side="left"))
                )
                b = (
                    idx.shape[0] if site.stop is None
                    else int(np.searchsorted(idx, site.stop, side="left"))
                )
                if b > a:
                    jitter[a:b] = rng.uniform(0.5, 1.5, size=b - a)
            start = now[idx] if isinstance(now, np.ndarray) else now
            self.stall_until[idx] = start + t.rto * (2.0**backoff) * jitter
            self.backoff[idx] = backoff + 1
            self.starved_time[idx] = 0.0
            self.collapse_count[idx] += 1
            self.paced[idx] = False

        stalled = (
            self.stalled_fraction(now, active_mask=active | (~self.sending_allowed(now)))
            if collect_stats
            else 0.0
        )
        result = WindowUpdateResult(
            n_collapsed=n_collapsed,
            n_decreased=n_decreased,
            n_increased=n_increased,
            stalled_fraction=stalled,
            collapsed_indices=idx,
        )
        return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def total_collapses(self) -> int:
        """Total number of timeout collapses across all connections."""
        return int(self.collapse_count.sum())

    def window_snapshot(self) -> np.ndarray:
        """Copy of the current window sizes (bytes)."""
        return self.cwnd.copy()
