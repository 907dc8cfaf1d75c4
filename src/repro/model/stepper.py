"""The per-step update of the I/O-path model: a phase-aware stepping kernel.

Each step of length ``dt`` runs seven vectorized sub-phases, in order:

1. **Workload mix** — count active writers and average fragment sizes per
   server (they set the device interleaving penalty and the processing
   granularity).
2. **Drain** — every server moves data from its receive buffer to its
   backend at the rate allowed by its ingest path and backend, reduced when a
   large fraction of its connections sit in RTO stalls (service "bubbles").
3. **Offer** — every connection offers up to a congestion-window-limited
   number of bytes, further capped by its node's injection bandwidth.
4. **Admission** — the server buffers accept offered bytes into the space
   available; a server whose offers fit admits them whole, an
   oversubscribed one shares its room out in proportion to what each
   connection offers (water-filling, unit weights).  The Incast race itself
   is the offer phase's burst-escape gate and the window dynamics.
5. **Window dynamics** — AIMD plus timeout collapse per connection.
6. **Accounting** — link utilization and buffer pressure.
7. **Completion** — collective operations complete when every fragment of
   every process has been drained; the next operation is issued after the
   collective overhead, and applications record their phase end time.

:class:`ModelStepper` holds the kernel's step invariants, its workspace and
the phases that are pure array code over the flat state every member
shares: workload mix, drain, offer, admission and accounting.  The one
concrete kernel is :class:`repro.model.batch.BatchedStepper`, which adds the
parts that touch a member's own RNG streams and bookkeeping (the
burst-escape gate inside the offer phase, window dynamics and completion)
and the step itself.  A run alone is a batch of one.

Phase contract
--------------
The phases communicate exclusively through a :class:`StepContext` (the
intermediate arrays of the step) and the flat state (the durable arrays).
Each phase method documents what it *reads* and what it *writes*; a phase
never mutates a context field owned by an earlier phase.  This makes the
data flow of the hot path explicit and keeps the step re-orderable only
where the contract allows it.

Workspace ownership
-------------------
The intermediate arrays live in a preallocated :class:`StepWorkspace` owned by
the stepper, so a steady-state step performs no per-connection or per-server
array allocations (NumPy reductions like ``bincount`` that have no ``out=``
form still allocate their small outputs).  The ownership rules extend the
phase contract to memory:

* every *named* slot (``StepWorkspace.PHASE_SLOTS``) is written only by its
  owning phase and is read-only for every later phase of the same step;
* ``tmp_*`` scratch slots carry intra-phase intermediates only: any phase may
  clobber them, and no phase may read a ``tmp_`` slot it did not write during
  the same phase;
* :class:`StepContext` fields alias the named slots (``ctx.desired`` *is*
  ``workspace.desired``), so the context contract and the workspace contract
  are one and the same.

``tests/test_stepper_workspace.py`` asserts the first rule mechanically by
snapshotting owned slots after their phase and diffing after every later
phase.  Gathers into a slot use ``take(..., out=slot, mode="clip")``: with
the default ``mode="raise"`` NumPy buffers the output of a ``take`` with
``out=``, and the kernel's index maps are in range by construction, so
``"clip"`` gathers the same values without the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SimulationError

__all__ = ["COMPLETION_EPSILON", "ModelStepper", "StepContext", "StepWorkspace"]

#: Outstanding bytes at or below which a connection, process or application
#: counts as drained.
COMPLETION_EPSILON = 1.0


@dataclass
class StepContext:
    """The explicit state contract between the sub-phases of one model step.

    Fields are owned by (i.e. written exactly once in) the phase noted below
    and read-only afterwards.  ``None`` marks "not produced yet".  The phase
    array fields alias :class:`StepWorkspace` slots (except the admission
    outputs, which the buffers return); they are valid until the next step
    begins.

    The step inputs are every member's own clock: a batch steps its members
    by tick index, and each member advances by its own ``dt`` from its own
    start anchor.  Python code (RNG hazards, marks, the control plane) reads
    the per-member arrays; array code reads the per-lane copies, in which
    every lane holds its member's value, so each elementwise use computes
    the bits the member computes alone.
    """

    #: Step inputs.  ``now`` is owned by the step method (the driver's
    #: member clocks at the end of this step), the steps by ``set_steps``.
    now: np.ndarray          #: per member: clock at the end of this step
    dt: np.ndarray           #: per member: step length
    now_conn: np.ndarray     #: per-conn: its member's ``now``
    dt_conn: np.ndarray      #: per-conn: its member's ``dt``
    dt_server: np.ndarray    #: per-server: its member's ``dt``
    dt_node: np.ndarray      #: per-node: its member's ``dt``

    #: Phase 1 — workload mix.
    busy: Optional[np.ndarray] = None          #: per-conn: has outstanding bytes
    n_streams: Optional[np.ndarray] = None     #: per-server active writers (>= 1)
    avg_frag: Optional[np.ndarray] = None      #: per-server mean fragment size

    #: Phase 2 — drain capacity.
    drain_rate: Optional[np.ndarray] = None    #: per-server drain bandwidth (B/s)
    law: Optional[object] = None               #: the step's server drain law

    #: Phase 3 — offered load.
    rtt_eff: Optional[np.ndarray] = None       #: per-conn effective RTT (s)
    desired: Optional[np.ndarray] = None       #: per-conn bytes offered this step
    loss_prone: Optional[np.ndarray] = None    #: per-conn: a throttle means loss

    #: Phase 4 — admission and drain.
    admitted: Optional[np.ndarray] = None      #: per-conn bytes admitted
    oversubscribed: Optional[np.ndarray] = None  #: per-conn: server oversubscribed


class StepWorkspace:
    """Preallocated per-connection/per-server scratch of the stepping kernel.

    One instance lives for the whole run; every step rewrites the slots in
    place, so the kernel allocates no per-connection or per-server arrays in
    steady state.  See the module docstring for the ownership rules; the
    mapping below is the machine-readable form the aliasing test consumes.
    """

    #: Named slots by owning phase.  The owner writes the slot; later phases
    #: only read it.
    PHASE_SLOTS = {
        "workload_mix": ("outstanding", "busy", "busy_f", "n_active",
                         "n_streams", "n_streams_f", "avg_frag"),
        "drain": ("sending", "n_ready", "drain_rate"),
        "offer": ("rtt_eff", "potential", "desired", "active", "loss_prone",
                  "draws"),
        "admission": (),
        "window_dynamics": (),
        "accounting": (),
    }

    #: Scratch slots: intra-phase intermediates, clobbered freely.
    SCRATCH_SLOTS = (
        "tmp_conn_a", "tmp_conn_b", "tmp_conn_c",
        "tmp_bool_a", "tmp_bool_b", "tmp_bool_c",
        "tmp_srv_a", "tmp_srv_b", "tmp_srv_bool",
        "tmp_node_a", "tmp_node_b", "tmp_node_mask",
    )

    def __init__(self, n_connections: int, n_servers: int, n_nodes: int) -> None:
        conn_f = lambda: np.zeros(n_connections, dtype=np.float64)  # noqa: E731
        conn_b = lambda: np.zeros(n_connections, dtype=bool)  # noqa: E731
        srv_f = lambda: np.zeros(n_servers, dtype=np.float64)  # noqa: E731
        node_f = lambda: np.zeros(n_nodes, dtype=np.float64)  # noqa: E731
        # Phase 1 — workload mix.
        self.outstanding = conn_f()
        self.busy = conn_b()
        self.busy_f = conn_f()
        self.n_active = srv_f()
        self.n_streams = np.ones(n_servers, dtype=np.int64)
        self.n_streams_f = srv_f()
        self.avg_frag = srv_f()
        # Phase 2 — drain capacity.
        self.sending = conn_b()
        self.n_ready = srv_f()
        self.drain_rate = srv_f()
        # Phase 3 — offered load.
        self.rtt_eff = conn_f()
        self.potential = conn_f()
        self.desired = conn_f()
        self.active = conn_b()
        self.loss_prone = conn_b()
        self.draws = conn_f()
        # Step-invariant constants.  Frozen so downstream identity-based
        # caches (the admission weights validation) stay sound.
        self.ones = np.ones(n_connections, dtype=np.float64)
        self.ones.flags.writeable = False
        # Scratch.
        self.tmp_conn_a = conn_f()
        self.tmp_conn_b = conn_f()
        self.tmp_conn_c = conn_f()
        self.tmp_bool_a = conn_b()
        self.tmp_bool_b = conn_b()
        self.tmp_bool_c = conn_b()
        self.tmp_srv_a = srv_f()
        self.tmp_srv_b = srv_f()
        self.tmp_srv_bool = np.zeros(n_servers, dtype=bool)
        self.tmp_node_a = node_f()
        self.tmp_node_b = node_f()
        self.tmp_node_mask = np.zeros(n_nodes, dtype=bool)

    def owned_slots(self, phase: str) -> dict:
        """Name -> array of the slots owned by ``phase``."""
        return {name: getattr(self, name) for name in self.PHASE_SLOTS[phase]}


class ModelStepper:
    """The kernel's step invariants, workspace and shared data-plane phases.

    Not a kernel on its own: :class:`repro.model.batch.BatchedStepper`
    supplies the per-member burst-escape gate, window dynamics, completion
    and the step.
    """

    #: Phase order of one step (used by the profiler and the aliasing test).
    PHASES = ("workload_mix", "drain", "offer", "admission",
              "window_dynamics", "accounting", "completion")

    def __init__(self, state) -> None:
        self.state = state
        self._transport = state.scenario.platform.network.transport
        # Per-lane constants: each lane holds its member's platform values.
        self._base_rtt = state.conn_rtt
        self._node_caps = state.topology.node_capacities()
        self._server_nic = state.topology.server_capacities()
        self._node_line_rate = state.node_line_rate
        #: Time each member has observed (its steps summed, in order);
        #: stamped on the member's servers and links when it finishes.
        self.observed_time = np.zeros(state.n_members, dtype=np.float64)
        #: Optional per-phase profiler (``repro.perf.counters.StepProfiler``
        #: or anything with a ``phase(name)`` context manager).  ``None``
        #: keeps the hot path branch-free apart from one identity check.
        self.profiler = None

        # ---------------- cached step invariants -------------------------
        # Everything below is constant for the lifetime of the run (or, for
        # the dt-scaled arrays, until the next set_steps); computing them
        # here keeps them out of the per-step path.
        self.workspace = StepWorkspace(
            state.n_connections, state.n_servers, state.topology.n_client_nodes
        )
        self._n_servers = state.n_servers
        self._n_nodes = state.topology.n_client_nodes
        self._stripe_size = state.server_stripe
        #: rwnd_overcommit * buffer capacity (numerator of the per-server
        #: receive-window budget).
        self._rwnd_budget = self._transport.rwnd_overcommit * state.buffers.capacity
        self._send_floor = COMPLETION_EPSILON * 1e-3
        self._wl_margin = 1.0 - 1e-6
        # dt-scaled capacities, per lane (set by set_steps).
        self._node_caps_dt = np.empty_like(self._node_caps)
        self._server_nic_dt = np.empty_like(self._server_nic)
        #: Per server: the weight of this step in the pressure statistics,
        #: its member's ``dt`` over its base step (set by the kernel's
        #: ``set_steps``).
        self._step_weight = np.ones(self._n_servers, dtype=np.float64)
        # Reused per-step objects: every context field is rewritten by its
        # owner each step, so recycling the container is safe.
        self._ctx = StepContext(
            now=np.zeros(state.n_members, dtype=np.float64),
            dt=np.zeros(state.n_members, dtype=np.float64),
            now_conn=np.zeros(state.n_connections, dtype=np.float64),
            dt_conn=np.zeros(state.n_connections, dtype=np.float64),
            dt_server=np.zeros(self._n_servers, dtype=np.float64),
            dt_node=np.zeros(self._n_nodes, dtype=np.float64),
        )

    def set_steps(self, dt) -> None:
        """Set every member's step length (one float per member) and the
        per-lane steps and dt-scaled capacities derived from it.

        The driver calls this once per generation of fixed-step members, and
        before every tick of a generation that holds an adaptive member,
        whose step changes from tick to tick.
        """
        state = self.state
        ctx = self._ctx
        ctx.dt[:] = dt
        if not (ctx.dt > 0).all():
            raise SimulationError("dt must be positive")
        ctx.dt.take(state.conn_member, out=ctx.dt_conn, mode="clip")
        ctx.dt.take(state.server_member, out=ctx.dt_server, mode="clip")
        ctx.dt.take(state.node_member, out=ctx.dt_node, mode="clip")
        np.multiply(self._node_caps, ctx.dt_node, out=self._node_caps_dt)
        np.multiply(self._server_nic, ctx.dt_server, out=self._server_nic_dt)

    # ------------------------------------------------------------------ #
    # Phase 1 — workload mix
    # ------------------------------------------------------------------ #

    def _phase_workload_mix(self, ctx: StepContext) -> None:
        """Classify the offered workload.

        Reads:  ``state.send_remaining``, ``state.buffers.conn_bytes``,
                ``state.frag_size``.
        Writes: ``ctx.busy``, ``ctx.n_streams``, ``ctx.avg_frag`` (workspace
                slots ``outstanding``, ``busy``, ``busy_f``, ``n_streams``,
                ``n_streams_f``, ``avg_frag``).
        """
        state = self.state
        ws = self.workspace
        np.add(state.send_remaining, state.buffers.conn_bytes, out=ws.outstanding)
        np.greater(ws.outstanding, COMPLETION_EPSILON, out=ws.busy)
        ws.busy_f[:] = ws.busy
        servers = state.conn_server
        # bincount with 0/1 float weights sums the same unit contributions a
        # boolean-mask bincount would (adding exact zeros is a no-op), so the
        # counts and fragment sums are bit-identical without the mask arrays.
        ws.n_active[:] = np.bincount(servers, weights=ws.busy_f, minlength=self._n_servers)
        np.multiply(state.frag_size, ws.busy_f, out=ws.tmp_conn_a)
        frag_sum = np.bincount(servers, weights=ws.tmp_conn_a, minlength=self._n_servers)
        np.maximum(ws.n_active, 1.0, out=ws.tmp_srv_a)
        np.divide(frag_sum, ws.tmp_srv_a, out=ws.avg_frag)
        # Idle servers: report a neutral granularity so the drain-rate law
        # does not divide by zero.
        np.less_equal(ws.avg_frag, 0.0, out=ws.tmp_srv_bool)
        np.copyto(ws.avg_frag, self._stripe_size, where=ws.tmp_srv_bool)
        ws.n_streams[:] = ws.tmp_srv_a
        ws.n_streams_f[:] = ws.n_streams
        ctx.busy = ws.busy
        ctx.n_streams = ws.n_streams
        ctx.avg_frag = ws.avg_frag

    # ------------------------------------------------------------------ #
    # Phase 2 — drain capacity
    # ------------------------------------------------------------------ #

    def _phase_drain(self, ctx: StepContext) -> None:
        """Compute every server's drain capacity for this step.

        Reads:  ``ctx.busy/n_streams/avg_frag``, ``state.windows`` stalls.
        Writes: ``ctx.drain_rate``, ``ctx.law``, ``state.last_drain_rate``
                (workspace slots ``sending``, ``n_ready``, ``drain_rate``).
        """
        state = self.state
        ws = self.workspace
        ctx.law = law = state.deployment.law(ctx.n_streams, ctx.avg_frag)
        # Stalled fraction per server: busy connections in an RTO over phase
        # 1's busy count floored at 1 (``n_streams_f``).  Counts of 0/1 weights
        # are exact, so the stalled count is the busy count less those able to
        # send (``n_ready``, among which the offer phase shares the window).
        # (in-place twin of WindowState.sending_allowed — keep in sync)
        np.less_equal(state.windows.stall_until, ctx.now_conn, out=ws.sending)
        np.multiply(ws.busy_f, ws.sending, out=ws.tmp_conn_a)
        ws.n_ready[:] = np.bincount(
            state.conn_server, weights=ws.tmp_conn_a, minlength=self._n_servers
        )
        np.subtract(ws.n_active, ws.n_ready, out=ws.tmp_srv_a)
        np.divide(ws.tmp_srv_a, ws.n_streams_f, out=ws.tmp_srv_a)
        # penalty = 1 - collapse_penalty * stalled_fraction: both factors lie
        # in [0, 1], so it does too and needs no clamp.
        np.multiply(ws.tmp_srv_a, self._transport.collapse_penalty, out=ws.tmp_srv_a)
        np.subtract(1.0, ws.tmp_srv_a, out=ws.tmp_srv_a)
        np.multiply(law.rates, ws.tmp_srv_a, out=ws.drain_rate)
        np.maximum(ws.drain_rate, 1.0, out=state.last_drain_rate)
        ctx.drain_rate = ws.drain_rate

    # ------------------------------------------------------------------ #
    # Phase 3 — offered load
    # ------------------------------------------------------------------ #

    def _phase_offer(self, ctx: StepContext) -> None:
        """Window- and source-capped offered bytes, plus the Incast burst gate.

        Reads:  ``ctx.busy/n_streams/drain_rate``, ``ws.n_ready``, window
                state, buffers.
        Writes: ``ctx.rtt_eff``, ``ctx.desired``, ``ctx.loss_prone``
                (workspace slots ``rtt_eff``, ``potential``, ``desired``,
                ``active``, ``loss_prone``, ``draws``); may collapse gated
                connections (``windows.force_timeout``) and consume RNG draws
                for the burst-escape gate.

        Shares that are per node or per server are computed there and
        gathered once: the same operations on the same doubles give each
        connection the bits a per-connection computation would.
        """
        state = self.state
        ws = self.workspace
        transport = self._transport
        conn_server = state.conn_server
        conn_node = state.conn_node

        # Effective RTT: base RTT plus queueing delay at the server (its
        # buffered bytes over its drain rate, floored at 1 byte/s).
        np.divide(state.buffers.fill, state.last_drain_rate, out=ws.tmp_srv_a)
        ws.tmp_srv_a.take(conn_server, out=ws.rtt_eff, mode="clip")
        np.add(ws.rtt_eff, self._base_rtt, out=ws.rtt_eff)
        # Receiver-advertised window: the clients collectively probe a bit
        # beyond the server buffer (rwnd_overcommit), shared by the
        # connections of each server that are currently able to send.
        # Connections sitting out an RTO stall do not consume receive-window
        # credit, so the surviving (typically first-application) connections
        # inherit their share — this is what lets the incumbent keep
        # streaming while the newcomer's windows stay collapsed (Figure 11).
        np.maximum(ws.n_ready, 1.0, out=ws.tmp_srv_a)
        np.divide(self._rwnd_budget, ws.tmp_srv_a, out=ws.tmp_srv_a)
        np.maximum(ws.tmp_srv_a, transport.window_min, out=ws.tmp_srv_a)
        ws.tmp_srv_a.take(conn_server, out=ws.tmp_conn_a, mode="clip")
        np.minimum(state.windows.cwnd, ws.tmp_conn_a, out=ws.tmp_conn_a)
        # potential = sending ? effective_window / max(rtt_eff, 1e-9) * dt : 0
        # (finite and non-negative, so times 0/1 is the select's +0.0 or x).
        np.maximum(ws.rtt_eff, 1e-9, out=ws.tmp_conn_b)
        np.divide(ws.tmp_conn_a, ws.tmp_conn_b, out=ws.potential)
        np.multiply(ws.potential, ctx.dt_conn, out=ws.potential)
        np.multiply(ws.potential, ws.sending, out=ws.potential)
        np.minimum(ws.potential, state.send_remaining, out=ws.desired)
        # Per-node injection cap: an over-capacity node scales each of its
        # connections' demands by the same factor, capacity / total < 1.
        totals = np.bincount(conn_node, weights=ws.desired, minlength=self._n_nodes)
        np.greater(totals, self._node_caps_dt, out=ws.tmp_node_mask)
        if np.count_nonzero(ws.tmp_node_mask):
            # Dividing only the over-capacity lanes sidesteps the overflow
            # that near-zero totals would produce (long adaptive steps make
            # capacity * dt huge); the untouched lanes keep their factor of 1.
            np.maximum(totals, 1e-300, out=ws.tmp_node_a)
            ws.tmp_node_b.fill(1.0)
            np.divide(self._node_caps_dt, ws.tmp_node_a, out=ws.tmp_node_b,
                      where=ws.tmp_node_mask)
            ws.tmp_node_b.take(conn_node, out=ws.tmp_conn_a, mode="clip")
            np.multiply(ws.desired, ws.tmp_conn_a, out=ws.desired)
        np.greater(ws.desired, 1e-9, out=ws.active)
        ctx.rtt_eff = ws.rtt_eff
        ctx.desired = ws.desired
        ctx.loss_prone = ws.loss_prone
        if transport.lossless or not np.count_nonzero(ws.active):
            # Credit-based flow control: bursts wait for credits instead of
            # being dropped, so no connection is ever loss-prone and the
            # Incast machinery below never engages.  Nor does it when
            # nothing is offered: no connection is then window-limited.
            ws.loss_prone.fill(False)
            return

        # A connection can suffer a timeout collapse ("Incast") only when
        # (a) it offered a full window as a burst, clearly below what its
        #     source NIC share would have allowed (window-limited),
        # (b) its server's buffer share per connection is down to a few MSS,
        # (c) its NIC can deliver the burst much faster than the connection's
        #     fair share of the server drain (an un-throttled source).
        # Node shares: the node's injection capacity and its line rate (a
        # node belongs to one member, whose client NIC rate every connection
        # of the node carries) over its busy connections.
        active_per_node = np.bincount(conn_node, weights=ws.busy_f, minlength=self._n_nodes)
        np.maximum(active_per_node, 1.0, out=active_per_node)  # shared denominator
        np.divide(self._node_caps_dt, active_per_node, out=ws.tmp_node_a)
        np.multiply(ws.tmp_node_a, transport.source_margin, out=ws.tmp_node_a)
        np.divide(self._node_line_rate, active_per_node, out=ws.tmp_node_b)
        np.multiply(ws.potential, self._wl_margin, out=ws.tmp_conn_c)
        np.greater_equal(state.send_remaining, ws.tmp_conn_c, out=ws.tmp_bool_a)
        ws.tmp_node_a.take(conn_node, out=ws.tmp_conn_b, mode="clip")  # node share
        np.less_equal(ws.potential, ws.tmp_conn_b, out=ws.tmp_bool_b)
        np.logical_and(ws.active, ws.tmp_bool_a, out=ws.tmp_bool_a)
        np.logical_and(ws.tmp_bool_a, ws.tmp_bool_b, out=ws.tmp_bool_a)  # window-limited
        # Server shares (``n_streams`` is at least 1 by construction): the
        # buffer per connection and the drain per connection.
        np.divide(state.buffers.capacity, ws.n_streams_f, out=ws.tmp_srv_a)
        np.less(ws.tmp_srv_a, transport.incast_window_threshold, out=ws.tmp_srv_bool)
        np.divide(state.last_drain_rate, ws.n_streams_f, out=ws.tmp_srv_b)
        np.multiply(ws.tmp_srv_b, transport.burst_loss_ratio, out=ws.tmp_srv_b)
        ws.tmp_node_b.take(conn_node, out=ws.tmp_conn_c, mode="clip")  # line share
        ws.tmp_srv_b.take(conn_server, out=ws.tmp_conn_b, mode="clip")  # drain share
        np.greater_equal(ws.tmp_conn_c, ws.tmp_conn_b, out=ws.tmp_bool_b)  # bursty source
        ws.tmp_srv_bool.take(conn_server, out=ws.tmp_bool_c, mode="clip")
        np.logical_and(ws.tmp_bool_a, ws.tmp_bool_c, out=ws.loss_prone)
        np.logical_and(ws.loss_prone, ws.tmp_bool_b, out=ws.loss_prone)

        # Burst-escape gate: a connection without a running ACK clock can
        # only (re)enter an Incast-regime server if its whole-window burst
        # survives an already full buffer.  Failed attempts are immediate
        # timeouts — this is what pins the second application's windows near
        # zero while the first application keeps streaming (Figures 11/12).
        # A buffer is full at 90% occupancy (fill / capacity is non-negative,
        # so clamping it to [0, 1] first would not move it across 0.9).
        np.divide(state.buffers.fill, state.buffers.capacity, out=ws.tmp_srv_a)
        np.greater_equal(ws.tmp_srv_a, 0.9, out=ws.tmp_srv_bool)  # buffer full
        # Loss-prone (hence active) and not paced: on booleans, a > b is
        # a & ~b.
        np.greater(ws.loss_prone, state.windows.paced, out=ws.tmp_bool_a)
        ws.tmp_srv_bool.take(conn_server, out=ws.tmp_bool_b, mode="clip")
        np.logical_and(ws.tmp_bool_a, ws.tmp_bool_b, out=ws.tmp_bool_a)  # gated
        self._burst_escape_gate(ctx)  # per member: draws from its own stream

    # ------------------------------------------------------------------ #
    # Phase 4 — admission and drain
    # ------------------------------------------------------------------ #

    def _phase_admission(self, ctx: StepContext) -> None:
        """Admit offered bytes into the buffers, then drain to the backends.

        Admission may use the space freed by this step's drain
        (store-and-forward pipelining within one step).  Admission is
        proportional to the offered load; the Incast unfairness is carried by
        the burst-escape gate and the window dynamics.

        Reads:  ``ctx.desired/drain_rate/law``.
        Writes: ``ctx.admitted``, ``ctx.oversubscribed``;
                ``state.send_remaining``, the server buffers, and the
                deployment's backend accounting.
        """
        state = self.state
        ws = self.workspace
        np.multiply(ctx.drain_rate, ctx.dt_server, out=ws.tmp_srv_b)
        admitted, oversubscribed = state.buffers.admit(
            ctx.desired,
            ws.ones,
            extra_capacity=ws.tmp_srv_b,
            max_admission=self._server_nic_dt,
        )
        state.send_remaining -= admitted
        np.less(state.send_remaining, self._send_floor, out=ws.tmp_bool_a)
        np.copyto(state.send_remaining, 0.0, where=ws.tmp_bool_a)

        drained_per_server, _drained_per_conn = state.buffers.drain(ws.tmp_srv_b)
        state.deployment.commit_flat(drained_per_server, ctx.dt_server, ctx.law)

        ctx.admitted = admitted
        ctx.oversubscribed = oversubscribed

    # ------------------------------------------------------------------ #
    # Phase 6 — physical-link and pressure accounting
    # ------------------------------------------------------------------ #

    def _phase_accounting(self, ctx: StepContext) -> None:
        """Attribute this step's traffic to links and record buffer pressure.

        Reads:  ``ctx.admitted``, the buffers' per-server admitted bytes, the
                steps and the dt-scaled link capacities.
        Writes: per-link utilization accounting, buffer-pressure statistics,
                :attr:`observed_time`, ``state.last_admission_rate``.
        """
        state = self.state
        per_node = np.bincount(
            state.conn_node, weights=ctx.admitted, minlength=self._n_nodes
        )
        per_server = state.buffers.admitted_per_server
        state.topology.record_step_flat(per_node, per_server, ctx.dt_node, ctx.dt_server,
                                        self._node_caps_dt, self._server_nic_dt)
        np.add(self.observed_time, ctx.dt, out=self.observed_time)
        state.buffers.note_step(weight=self._step_weight)
        np.divide(per_server, ctx.dt_server, out=state.last_admission_rate)
