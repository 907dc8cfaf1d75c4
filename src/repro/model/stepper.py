"""The per-step update of the I/O-path model: a phase-aware stepping kernel.

Each step of length ``dt`` runs seven sub-phases, in order:

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

Native kernel
-------------
The array code of every phase is C (``repro/native/kernel.c``, loaded by
:mod:`repro.native`): a phase makes one foreign call on the generation's
address table (built once per generation, checked slot by slot), and a
phase with per-member work (the gate, the hazard, the completions) then runs
Python for the members that have it.  The C gives NumPy's bits:

* every elementwise operation is the IEEE operation NumPy performs, in its
  order and association, and constants Python combined are combined once in
  Python (``-ffp-contract=off``: no fused multiply-add);
* a row sum (the admission's per-server ``demands.sum()``) follows NumPy's
  pairwise summation tree at the row's true width, and a ``bincount``
  accumulates each bin in input order;
* the server law is evaluated per server lane every step from its own
  constants and sync-mode code, so no layout by sync mode and no memo of
  workload mixes are needed;
* every random draw stays a Python call on its member's own generator.

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
the stepper, so a step allocates no per-connection or per-server arrays.
The ownership rules extend the phase contract to memory:

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
phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import native
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

    #: Phase 3 — offered load.
    rtt_eff: Optional[np.ndarray] = None       #: per-conn effective RTT (s)
    desired: Optional[np.ndarray] = None       #: per-conn bytes offered this step
    loss_prone: Optional[np.ndarray] = None    #: per-conn: a throttle means loss

    #: Phase 4 — admission and drain.
    admitted: Optional[np.ndarray] = None      #: per-conn bytes admitted
    oversubscribed: Optional[np.ndarray] = None  #: per-conn: server oversubscribed


class StepWorkspace:
    """Preallocated per-connection/per-server scratch of the stepping kernel.

    One instance lives for a generation of the flat state; every step
    rewrites the slots in place, so the kernel allocates no per-connection
    or per-server arrays in steady state.  See the module docstring for the
    ownership rules; the mapping below is the machine-readable form the
    aliasing test consumes.
    """

    #: Named slots by owning phase.  The owner writes the slot; later phases
    #: only read it.
    PHASE_SLOTS = {
        "workload_mix": ("outstanding", "busy", "busy_f", "n_active",
                         "n_streams", "n_streams_f", "avg_frag"),
        "drain": ("sending", "n_ready", "drain_rate", "rates", "device_bw"),
        "offer": ("rtt_eff", "potential", "desired", "active", "loss_prone",
                  "draws"),
        "admission": ("admitted", "oversubscribed"),
        "window_dynamics": (),
        "accounting": (),
    }

    #: Scratch slots: intra-phase intermediates, clobbered freely.
    SCRATCH_SLOTS = (
        "tmp_conn_a", "tmp_bool_a", "tmp_bool_b",
        "tmp_srv_a", "tmp_srv_b", "tmp_srv_bool_a", "tmp_srv_bool_b",
        "tmp_node_a", "tmp_node_b", "tmp_node_c",
    )

    def __init__(self, n_connections: int, n_servers: int, n_nodes: int) -> None:
        conn_f = lambda: np.zeros(n_connections, dtype=np.float64)  # noqa: E731
        conn_b = lambda: np.zeros(n_connections, dtype=bool)  # noqa: E731
        srv_f = lambda: np.zeros(n_servers, dtype=np.float64)  # noqa: E731
        srv_b = lambda: np.zeros(n_servers, dtype=bool)  # noqa: E731
        node_f = lambda: np.zeros(n_nodes, dtype=np.float64)  # noqa: E731
        # Phase 1 — workload mix.
        self.outstanding = conn_f()
        self.busy = conn_b()
        self.busy_f = conn_f()
        self.n_active = srv_f()
        self.n_streams = np.ones(n_servers, dtype=np.int64)
        self.n_streams_f = srv_f()
        self.avg_frag = srv_f()
        # Phase 2 — drain capacity (and the server law's rates and device
        # bandwidths, which the backend commit reads).
        self.sending = conn_b()
        self.n_ready = srv_f()
        self.drain_rate = srv_f()
        self.rates = srv_f()
        self.device_bw = srv_f()
        # Phase 3 — offered load.
        self.rtt_eff = conn_f()
        self.potential = conn_f()
        self.desired = conn_f()
        self.active = conn_b()
        self.loss_prone = conn_b()
        self.draws = conn_f()
        # Phase 4 — admission.
        self.admitted = conn_f()
        self.oversubscribed = conn_b()
        # Scratch.
        self.tmp_conn_a = conn_f()
        self.tmp_bool_a = conn_b()
        self.tmp_bool_b = conn_b()
        self.tmp_srv_a = srv_f()
        self.tmp_srv_b = srv_f()
        self.tmp_srv_bool_a = srv_b()
        self.tmp_srv_bool_b = srv_b()
        self.tmp_node_a = node_f()
        self.tmp_node_b = node_f()
        self.tmp_node_c = node_f()

    def owned_slots(self, phase: str) -> dict:
        """Name -> array of the slots owned by ``phase``."""
        return {name: getattr(self, name) for name in self.PHASE_SLOTS[phase]}


class ModelStepper:
    """The kernel's step invariants, workspace and shared data-plane phases.

    Not a kernel on its own: :class:`repro.model.batch.BatchedStepper`
    supplies the per-member burst-escape gate, window dynamics, completion,
    the step and the native address table (:attr:`_kernel`) every phase
    hands the C.
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
        # Everything below is constant for the lifetime of the generation
        # (or, for the dt-scaled arrays, until the next set_steps, which
        # rewrites them in place).
        self.workspace = StepWorkspace(
            state.n_connections, state.n_servers, state.topology.n_client_nodes
        )
        self._n_servers = state.n_servers
        self._n_nodes = state.topology.n_client_nodes
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
        lib = native.library()
        self._nk_workload_mix = lib.nk_workload_mix
        self._nk_drain = lib.nk_drain_phase
        self._nk_offer = lib.nk_offer
        self._nk_admission = lib.nk_admission
        self._nk_accounting = lib.nk_accounting

    def _kernel_table(self, **extra) -> native.Table:
        """The generation's address table of every array the phases hand
        the native kernel (``extra``: the windows' table and the completion
        scan's arrays), checked once: the generation's arrays keep their
        addresses."""
        state = self.state
        ws = self.workspace
        ctx = self._ctx
        transport = self._transport
        lengths = {"conn": state.n_connections, "srv": self._n_servers,
                   "node": self._n_nodes, "member": state.n_members,
                   "app": state.n_apps, "proc": state.n_processes}
        return native.Table(
            "kernel", lengths,
            n_conn=state.n_connections, n_srv=self._n_servers, n_node=self._n_nodes,
            n_member=state.n_members, n_app=state.n_apps, n_proc=state.n_processes,
            buffers=state.buffers.table(), deployment=state.deployment.table(),
            topology=state.topology.table(),
            capacity=state.buffers.capacity,
            collapse_penalty=transport.collapse_penalty,
            # rwnd_overcommit * buffer capacity: the numerator of the
            # per-server receive-window budget.
            rwnd_budget=transport.rwnd_overcommit * state.buffers.capacity,
            window_min=transport.window_min, lossless=bool(transport.lossless),
            source_margin=transport.source_margin, wl_margin=1.0 - 1e-6,
            incast_window_threshold=transport.incast_window_threshold,
            burst_loss_ratio=transport.burst_loss_ratio,
            send_floor=COMPLETION_EPSILON * 1e-3, epsilon=COMPLETION_EPSILON,
            conn_server=state.conn_server, conn_node=state.conn_node,
            send_remaining=state.send_remaining, frag_size=state.frag_size,
            base_rtt=self._base_rtt, server_stripe=state.server_stripe,
            node_caps_dt=self._node_caps_dt, server_nic_dt=self._server_nic_dt,
            node_line_rate=self._node_line_rate, now_conn=ctx.now_conn,
            dt_conn=ctx.dt_conn, dt_server=ctx.dt_server, dt_node=ctx.dt_node,
            dt=ctx.dt, observed_time=self.observed_time, step_weight=self._step_weight,
            last_drain_rate=state.last_drain_rate,
            last_admission_rate=state.last_admission_rate,
            escape_probability=transport.burst_escape_probability,
            reentry_probability=transport.burst_reentry_probability,
            **{name: getattr(ws, name) for names in StepWorkspace.PHASE_SLOTS.values()
               for name in names},
            gated=ws.tmp_bool_a, failed=ws.tmp_bool_b, srv_a=ws.tmp_srv_a, srv_b=ws.tmp_srv_b,
            srv_mask_a=ws.tmp_srv_bool_a, srv_mask_b=ws.tmp_srv_bool_b,
            node_a=ws.tmp_node_a, node_b=ws.tmp_node_b, node_c=ws.tmp_node_c,
            **extra,
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
        """Classify the offered workload: busy connections (outstanding
        bytes over :data:`COMPLETION_EPSILON`), each server's active writers
        (at least 1) and mean fragment size (its stripe size when idle, so
        the drain-rate law never divides by zero).

        Reads:  ``state.send_remaining``, ``state.buffers.conn_bytes``,
                ``state.frag_size``.
        Writes: ``ctx.busy``, ``ctx.n_streams``, ``ctx.avg_frag`` (workspace
                slots ``outstanding``, ``busy``, ``busy_f``, ``n_active``,
                ``n_streams``, ``n_streams_f``, ``avg_frag``).
        """
        ws = self.workspace
        self._nk_workload_mix(self._kernel.address)
        ctx.busy = ws.busy
        ctx.n_streams = ws.n_streams
        ctx.avg_frag = ws.avg_frag

    # ------------------------------------------------------------------ #
    # Phase 2 — drain capacity
    # ------------------------------------------------------------------ #

    def _phase_drain(self, ctx: StepContext) -> None:
        """Compute every server's drain capacity for this step: the server
        law per lane, reduced by ``collapse_penalty`` times the fraction of
        the server's busy connections stalled in an RTO (busy ones less
        those able to send, ``n_ready``, among which the offer phase shares
        the window).

        Reads:  ``ctx.busy/n_streams/avg_frag``, ``state.windows`` stalls.
        Writes: ``ctx.drain_rate``, ``state.last_drain_rate`` (workspace
                slots ``sending``, ``n_ready``, ``drain_rate``, ``rates``,
                ``device_bw``).
        """
        self._nk_drain(self._kernel.address)
        ctx.drain_rate = self.workspace.drain_rate

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

        Each connection offers its effective window (its congestion window
        capped by the receive window: the clients collectively probe
        ``rwnd_overcommit`` beyond the server buffer, shared by the
        server's connections able to send, so connections sitting out an
        RTO cede their credit — what lets the incumbent keep streaming
        while the newcomer's windows stay collapsed, Figure 11) per
        effective RTT (base RTT plus the server's queueing delay), capped by
        its outstanding bytes; an over-capacity node scales its
        connections' offers by capacity / total.  A connection is
        *loss-prone* (it can suffer a timeout collapse, "Incast") only when
        (a) it offered a full window as a burst, clearly below what its
        source NIC share would have allowed (window-limited), (b) its
        server's buffer share per connection is down to a few MSS, and (c)
        its NIC can deliver the burst much faster than its fair share of the
        server drain.  Lossless transports are never loss-prone.  A
        loss-prone connection without a running ACK clock (not paced) facing
        a full buffer (90% occupancy) is *gated*: the burst-escape gate
        decides whether its burst survives.
        """
        ws = self.workspace
        n_gated = self._nk_offer(self._kernel.address)
        ctx.rtt_eff = ws.rtt_eff
        ctx.desired = ws.desired
        ctx.loss_prone = ws.loss_prone
        if n_gated:
            self._burst_escape_gate(ctx)  # per member: draws from its own stream

    # ------------------------------------------------------------------ #
    # Phase 4 — admission and drain
    # ------------------------------------------------------------------ #

    def _phase_admission(self, ctx: StepContext) -> None:
        """Admit offered bytes into the buffers, then drain to the backends.

        Admission may use the space freed by this step's drain
        (store-and-forward pipelining within one step) and is capped by the
        server NIC.  Admission is proportional to the offered load (unit
        weights); the Incast unfairness is carried by the burst-escape gate
        and the window dynamics.  Sends under a milli-epsilon snap to zero.

        Reads:  ``ctx.desired/drain_rate``, the drain phase's law slots.
        Writes: ``ctx.admitted``, ``ctx.oversubscribed`` (workspace slots
                ``admitted``, ``oversubscribed``); ``state.send_remaining``,
                the server buffers, and the deployment's backend accounting.
        """
        ws = self.workspace
        self._nk_admission(self._kernel.address)
        ctx.admitted = ws.admitted
        ctx.oversubscribed = ws.oversubscribed

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
        self._nk_accounting(self._kernel.address)
