"""The stepping kernel and its drivers: B simulations per NumPy call.

:class:`BatchedStepper` is the one stepping kernel.  Every simulation steps
on it as a member of a batch, and a run alone
(:func:`~repro.model.simulator.simulate_scenario`) is a batch of one.  Every
campaign this repo runs (interference matrices, Δ-sweeps, parameter grids,
seed replications) is embarrassingly many *independent* simulations of one
deployment, which makes the batch axis free: concatenate the
per-connection, per-server and per-node state of B member simulations into
flat arrays and run the same seven phases once per tick over ``B * N``
elements, so the Python/NumPy call overhead that dominates a narrow step is
paid once per tick.  Past a few thousand lanes per-lane work dominates
instead, which is why :func:`plan_buckets` splits wide groups under a lane
budget.

Exactness
---------
Every member of a batch is bit-for-bit identical to its run alone, by
construction rather than by tolerance:

* every elementwise ufunc is trivially independent per lane, and every use
  of the step clock in array code is elementwise: each lane carries its own
  member's ``now`` and ``dt`` (per-lane arrays), so it computes the bits the
  member's scalar clock gives alone; the one transcendental of ``dt`` (the
  paced-timeout hazard) is taken per member in Python;
* ``bincount`` accumulates per bin in input order, and each member's
  connections occupy a contiguous flat range in their original relative
  order, so per-bin partial-sum order is unchanged;
* the admission water-filling operates row-per-server on a ``(B*S, k)``
  matrix; row reductions only combine elements of one member's server, and
  dead rows are frozen exactly (``take[~live] = 0.0``), so extra iterations
  driven by *other* members' rows are exact no-ops;
* RNG draw order is preserved per member: the burst-escape gate draws from
  each member's own admission stream, and ``WindowState.update`` receives
  ``rng_sites`` so hazard draws and collapse jitter come from each member's
  own transport stream, gated and sized exactly as a member-alone run;
* only live members step: a member retires on the tick it finishes, and at
  the end of that tick the flat state is rebuilt from the live members
  alone (*compaction*).  The rebuild concatenates each live member's current
  arrays in member order, so its lanes stay contiguous and in order and
  every rule above holds in the new generation; clocks and RNG streams are
  per member, so they carry over untouched.

Flat control plane
------------------
Nothing in a step loops over members, servers or processes:

* the server laws (drain capacity, backend commit) run elementwise over
  the stacked servers of every member in one flat
  :class:`~repro.pfs.filesystem.PVFSDeployment`;
* application lifecycle and per-process issue state are flat arrays, so the
  completion phase finds the few applications whose operation completed
  with one vectorized scan, and Python runs only for those;
* link accounting and pressure statistics advance once per step for the
  whole batch (each server weighing its own member's step), observed time
  once per step for each member (its own steps summed in order); the
  running observed time is stamped on a member when it retires and carried
  over through each compaction.

Driver
------
Each member keeps its own discrete-event engine for its control plane
(application starts, operation issues, trace sampling), which runs exact
member-local code, and its own step clock: its resolved step ``dt``, its
start anchor ``t0 = min(0, earliest start)`` and its horizon
``t0 + max_time``.  :class:`BatchSimulator` runs every member on one
lockstep loop: members step together by *tick index*, each tick advancing
every live member by its own step.

* A **fixed-step** member advances its clock with the ``t + dt`` arithmetic
  of a periodic step event, first at ``t0 + dt``, in one elementwise add
  over the per-member clocks.  Before the step only the engines that have
  an event due by their own clock run, up to and including the CONTROL
  events of that instant (``Simulator.run(until=t, until_priority=NORMAL)``):
  exactly the events that precede a NORMAL-priority step event there.
  Event ordering within a step instant (CONTROL < NORMAL < OBSERVE) is
  therefore that of a step event, including trace samples observing
  post-step state, while a tick with no due event costs no engine call at
  all.
* An **adaptive** member picks its own step end every tick.  Its pending
  step ends where :meth:`~repro.model.simulator.IOPathSimulator.next_bound`
  puts it from the current rates, so quiescent intervals collapse into
  single steps; before the tick its engine runs the events that precede a
  NORMAL-priority event at that end, and a control event that would land
  inside a longer-than-base step ends the step at its own time instead
  (a *catch-up*), so no step spans a state change.  A generation holding an
  adaptive member sets the kernel's steps before each tick; a generation of
  fixed members sets them once.

A member is checked against its own horizon and retires on the tick it
finishes: its result is built then, its arrays are detached from the flat
state (it keeps copies of its own lanes), and the survivors are compacted,
so ``batch.lane_steps`` (lanes stepped) equals ``batch.member_steps``.

Bucketing
---------
The kernel needs only one thing of a bucket's members: the same
platform/filesystem configuration (they feed the stepper's constants).
Connection counts and per-server group sizes are free to differ — the
admission water-filling pads ragged groups into width classes
(:class:`~repro.network.incast.ServerBuffers`), so mixed deployments batch
together and ``batch.padded_slots`` accounts the masked waste — and so are
steps, stepping policies, start anchors and horizons.  :func:`plan_buckets`,
the one grouping policy, groups scenarios by platform and filesystem alone
and splits each group into chunks under a lane budget
(:data:`_BUCKET_LANES`), at least one per worker; a scenario without a
partner forms a width-1 bucket, which is its run alone.
:func:`simulate_many` is the front end of every staged computation
(:mod:`repro.core.delta`: a Δ-sweep, an experiment, a whole campaign
round): it drops repeated ``(scenario, seed)`` requests, plans the distinct
ones, runs each bucket through :func:`run_bucket` and emits ``batch.*``
telemetry.  The matrix plans its own buckets with :func:`plan_buckets` and
runs them as executor work units.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.errors import SimulationError
from repro.model.results import RunResult
from repro.model.simulator import IOPathSimulator
from repro.model.stepper import COMPLETION_EPSILON, ModelStepper, StepContext
from repro.model.state import APP_ACTIVE
from repro.network.congestion import WindowState
from repro.network.incast import ServerBuffers
from repro.network.topology import StarTopology
from repro.obs.telemetry import get_telemetry
from repro.perf.counters import StepProfiler
from repro.pfs.filesystem import PVFSDeployment
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

__all__ = [
    "BatchSimulator",
    "BatchedStepper",
    "group_widths",
    "plan_buckets",
    "run_bucket",
    "simulate_many",
]

#: Connection lanes per planned bucket.  :func:`plan_buckets` splits a
#: platform/filesystem group into ``ceil(lanes / _BUCKET_LANES)`` chunks (at
#: least one per worker).  Measured on the 44-task tiny fleet matrix (4,800
#: lanes, 2-CPU machine): ticks, not lanes, are what narrow buckets pay for
#: (about 160 µs per tick plus 11 µs per member-tick), so two chunks of
#: about 2,400 lanes run in 0.46 of the wall of the old 20-bucket plan.  A
#: single 44-wide bucket runs in 0.83 of the two chunks' wall (it pays for
#: its longest member's ticks once, not once per chunk), but per-lane work
#: dominates a tick past about 4k lanes (a tiny member costs 26.6 µs per
#: member-tick at 4,096 lanes and still 24.3 µs at 16,384) while memory
#: grows with the width: peak RSS rose 3.6% over the old plan for two
#: chunks and 8.8% for one bucket, close to the benchmark's 10% bound.
_BUCKET_LANES = 4096


# ---------------------------------------------------------------------- #
# Bucket planning
# ---------------------------------------------------------------------- #


@dataclass
class _Bucket:
    indices: List[int]


def group_widths(scenario: ScenarioConfig) -> List[int]:
    """Per-server connection-group widths (zero-width servers dropped).

    Mirrors the connection layout :class:`repro.model.state.ModelState`
    builds (every process of an application opens one connection to each of
    its target servers) without paying for state construction.
    """
    widths = [0] * scenario.filesystem.n_servers
    for app in scenario.applications:
        for server in scenario.app_servers(app):
            widths[server] += app.n_processes
    return [w for w in widths if w > 0]


def _connection_lanes(scenario: ScenarioConfig) -> int:
    """Connection lanes ``scenario`` occupies in the flat state."""
    return sum(group_widths(scenario))


def _estimated_steps(scenario: ScenarioConfig) -> float:
    """A scenario's estimated member steps: its estimated duration over its
    resolved (base) step."""
    duration = scenario.estimate_duration()
    return duration / scenario.control.resolve_step(duration)


def _balanced_chunks(
    indices: Sequence[int], weights: Sequence[float], n_chunks: int
) -> List[List[int]]:
    """Split ``indices`` into ``n_chunks`` non-empty chunks of similar total
    weight: heaviest first, each to the lightest chunk so far (an empty one
    while any is left).  Indices keep input order within a chunk, and chunks
    are ordered by their first index."""
    chunks: List[List[int]] = [[] for _ in range(n_chunks)]
    totals = [0.0] * n_chunks
    for k in sorted(range(len(indices)), key=lambda k: (-weights[k], k)):
        c = min(range(n_chunks), key=lambda c: (totals[c], len(chunks[c]), c))
        chunks[c].append(indices[k])
        totals[c] += weights[k]
    return sorted((sorted(chunk) for chunk in chunks), key=lambda chunk: chunk[0])


def plan_buckets(
    scenarios: Sequence[ScenarioConfig],
    jobs: int = 1,
) -> Tuple[List[_Bucket], List[Tuple[int, str]]]:
    """Group ``scenarios`` into lockstep buckets by platform and filesystem.

    Each group of scenarios sharing a platform and filesystem configuration
    (fixed and adaptive stepping alike) splits into ``min(n, max(jobs,
    ceil(lanes / _BUCKET_LANES)))`` chunks, ``n`` being its scenarios and
    ``lanes`` their connection lanes, balanced by estimated member steps.
    Returns ``(buckets, fallback)``: every input index appears in exactly
    one bucket's ``indices`` (width-1 buckets included), and ``fallback`` is
    always empty (every scenario runs in a bucket; the pair's shape is kept
    for callers that unpack it).  The plan is a pure function of its inputs.
    """
    groups: Dict[Tuple[object, object], List[int]] = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault((scenario.platform, scenario.filesystem), []).append(i)
    buckets: List[_Bucket] = []
    for indices in groups.values():
        lanes = sum(_connection_lanes(scenarios[i]) for i in indices)
        n_chunks = min(len(indices), max(1, jobs, math.ceil(lanes / _BUCKET_LANES)))
        weights = [_estimated_steps(scenarios[i]) for i in indices]
        buckets.extend(
            _Bucket(chunk) for chunk in _balanced_chunks(indices, weights, n_chunks)
        )
    return buckets, []


# ---------------------------------------------------------------------- #
# Flat-state facades
# ---------------------------------------------------------------------- #


#: The member arrays that are lanes of the flat state: ``(owner, lanes,
#: names)``, where ``owner`` names the attribute holding them (``None``: the
#: state itself) and ``lanes`` the slice kind that indexes them.  A member's
#: ``ModelState`` and the flat :class:`_BatchedState` lay them out alike, so
#: this one table builds the flat state, re-points the members at it and
#: detaches a retired member from it.
_LANE_ARRAYS = (
    ("windows", "conn", (
        "cwnd", "stall_until", "backoff", "starved_time", "last_delivery",
        "collapse_count", "delivered_bytes", "paced", "ever_paced",
    )),
    ("buffers", "conn", ("conn_bytes",)),
    ("buffers", "srv", (
        "fill", "total_admitted", "total_drained", "full_steps", "observed_steps",
    )),
    ("deployment", "srv", (
        "drained_bytes", "busy_time", "dirty_bytes", "absorbed_bytes",
        "flushed_bytes", "pending_bytes", "written_bytes", "device_busy_time",
    )),
    ("topology", "node", ("_node_busy", "_node_transferred")),
    ("topology", "srv", ("_server_busy", "_server_transferred")),
    (None, "conn", ("send_remaining", "frag_size")),
    (None, "srv", ("last_drain_rate", "last_admission_rate")),
    (None, "app", ("app_phase",)),
    (None, "proc", ("proc_current_op", "proc_next_issue")),
)


def _lane_owner(state, owner: Optional[str]):
    return state if owner is None else getattr(state, owner)


@dataclass
class _BatchMember:
    """One member simulation, its lanes in the flat state and its clock.

    ``index`` and the lane slices locate the member in the current
    generation of the flat state; :class:`_BatchedState` assigns them, and
    each compaction renumbers the survivors.
    """

    sim: IOPathSimulator
    engine: Simulator
    #: Start anchor (the clock before the first step) and horizon.
    t0: float
    until: float
    #: Adaptive stepping: the member picks its own step end every tick.
    adaptive: bool = False
    #: Position in the batch (its entry in every per-member array).
    index: int = 0
    conn_sl: slice = field(default_factory=lambda: slice(0))
    srv_sl: slice = field(default_factory=lambda: slice(0))
    node_sl: slice = field(default_factory=lambda: slice(0))
    app_sl: slice = field(default_factory=lambda: slice(0))
    proc_sl: slice = field(default_factory=lambda: slice(0))
    #: Time of the member engine's next event (``inf`` when none).
    due: float = float("inf")
    #: Adaptive members: the end of the pending step (``inf`` while the
    #: adaptive bound is infinite), and whether this tick's step ends at a
    #: control event instead (a catch-up).
    next_step: float = float("inf")
    catching_up: bool = False
    #: Built on the tick the member finished (``None`` while it runs).
    result: Optional[RunResult] = None

    @property
    def live(self) -> bool:
        return self.result is None

    def detach(self) -> None:
        """Give the member copies of its own lanes, so it holds no
        reference to any flat state."""
        state = self.sim.state
        for owner, _, names in _LANE_ARRAYS:
            holder = _lane_owner(state, owner)
            for name in names:
                setattr(holder, name, getattr(holder, name).copy())


def _lane_members(slices: Sequence[slice]) -> np.ndarray:
    """Member index of every lane of a flat array laid out as ``slices``."""
    return np.repeat(
        np.arange(len(slices)), [sl.stop - sl.start for sl in slices]
    )


class _BatchedState:
    """Duck-typed ``ModelState`` facade over the flat batch arrays.

    Carries exactly the attributes the kernel's phases read.  The members'
    own ``ModelState`` objects keep running the control plane (operation
    issue, completion, results); their hot arrays (``_LANE_ARRAYS``:
    transport, buffers, backend, links, application lifecycle and process
    issue state) are views into the flat storage below.

    The one constructor of the flat state, for a batch's first generation
    and for each compaction alike: it lays ``members`` out back to back in
    member order (assigning each its index and lane slices), builds every
    flat array by concatenating the members' *current* arrays, and
    re-points each member at its slices.
    """

    def __init__(self, members: Sequence[_BatchMember]) -> None:
        states = [m.sim.state for m in members]
        conn = srv = node = app = proc = 0
        for index, (member, st) in enumerate(zip(members, states)):
            member.index = index
            member.conn_sl = slice(conn, conn + st.n_connections)
            member.srv_sl = slice(srv, srv + st.n_servers)
            member.node_sl = slice(node, node + st.topology.n_client_nodes)
            member.app_sl = slice(app, app + st.n_apps)
            member.proc_sl = slice(proc, proc + st.n_processes)
            conn, srv, node = member.conn_sl.stop, member.srv_sl.stop, member.node_sl.stop
            app, proc = member.app_sl.stop, member.proc_sl.stop
        scenario = members[0].sim.scenario
        platform = scenario.platform
        self.scenario = scenario
        self.n_members = len(members)
        self.n_connections = conn
        self.n_servers = srv
        self.n_apps = app
        self.n_processes = proc
        # Members share the platform, so per-link capacities repeat.
        self.topology = StarTopology(
            n_client_nodes=node, n_servers=srv, network=platform.network,
        )
        #: Member index of every connection, server, node and process lane.
        self.conn_member = _lane_members([m.conn_sl for m in members])
        self.server_member = _lane_members([m.srv_sl for m in members])
        self.node_member = _lane_members([m.node_sl for m in members])
        self.proc_member = _lane_members([m.proc_sl for m in members])
        # Flat index maps, with server, node, application and process
        # indices offset into one global numbering.
        self.conn_server = np.concatenate(
            [st.conn_server + m.srv_sl.start for m, st in zip(members, states)])
        self.conn_node = np.concatenate(
            [st.conn_node + m.node_sl.start for m, st in zip(members, states)])
        self.conn_app = np.concatenate(
            [st.conn_app + m.app_sl.start for m, st in zip(members, states)])
        self.conn_proc = np.concatenate(
            [st.conn_proc + m.proc_sl.start for m, st in zip(members, states)])
        self.proc_app = np.concatenate(
            [st.proc_app + m.app_sl.start for m, st in zip(members, states)])
        self.app_collective = np.concatenate([st.app_collective for st in states])
        self.app_n_procs = np.concatenate([st.app_n_procs for st in states])
        self.proc_n_ops = np.concatenate([st.proc_n_ops for st in states])
        #: All members' servers as one deployment (same configuration, so
        #: the same laws).
        self.deployment = PVFSDeployment(
            scenario.filesystem,
            server_nic_bw=platform.network.server_nic_bw,
            n_servers=srv,
        )
        # The flat WindowState's rng is a dummy: update() receives rng_sites
        # and force_timeout is only ever called on member WindowState objects.
        self.windows = WindowState(
            conn, platform.network.transport, rng=np.random.default_rng(0)
        )
        self.buffers = ServerBuffers(
            n_servers=srv,
            capacity_bytes=scenario.filesystem.server.buffer_bytes,
            conn_server=self.conn_server,
        )
        for owner, kind, names in _LANE_ARRAYS:
            holder = _lane_owner(self, owner)
            for name in names:
                flat = np.concatenate(
                    [getattr(_lane_owner(st, owner), name) for st in states]
                )
                setattr(holder, name, flat)
                for member, st in zip(members, states):
                    lanes = getattr(member, f"{kind}_sl")
                    setattr(_lane_owner(st, owner), name, flat[lanes])


# ---------------------------------------------------------------------- #
# The batched stepper
# ---------------------------------------------------------------------- #


class BatchedStepper(ModelStepper):
    """The stepping kernel: the seven phases over the flat state of B members.

    Inherits the shared data-plane phases and adds the parts that touch a
    member's own RNG streams or bookkeeping, each sliced per member: the
    burst-escape gate, window dynamics and completion.  Each member steps on
    its own clock (see :class:`~repro.model.stepper.StepContext`).
    """

    def __init__(self, state: _BatchedState, members: Sequence[_BatchMember]) -> None:
        super().__init__(state)
        self._members = list(members)
        # Carried over from the members: zero when fresh, stamped by the
        # driver before a compaction.
        self.observed_time[:] = [m.sim.state.deployment.observed_time for m in members]
        self._rng_sites: Tuple[Tuple[slice, np.random.Generator, float], ...] = ()
        #: Every server's member's base (resolved) step.
        self._base_server = np.array(
            [m.sim.step_size for m in members], dtype=np.float64
        ).take(state.server_member)
        #: Member index of every flat application.
        self._app_member = [
            i for i, m in enumerate(self._members)
            for _ in range(m.app_sl.start, m.app_sl.stop)
        ]
        self._app_independent = ~state.app_collective
        self._any_independent = bool(self._app_independent.any())
        #: Members whose control plane changed in the last step (an
        #: operation completed, an issue was scheduled, a member finished),
        #: in member order; the driver follows up on exactly these.
        self.changed: List[_BatchMember] = []

    def set_steps(self, dt) -> None:
        super().set_steps(dt)
        # A step weighs dt / base in the pressure statistics: exactly 1.0 for
        # a fixed step, the base steps it replaced for an adaptive one.
        np.divide(self._ctx.dt_server, self._base_server, out=self._step_weight)
        # Per-member RNG sites for WindowState.update: hazard draws and
        # collapse jitter come from each member's own transport stream,
        # sliced to its lanes, and the hazard from its own step.  Every
        # member of a generation is live, so the site list stays fixed
        # between step changes.
        self._rng_sites = tuple(
            (m.conn_sl, m.sim.state.windows._rng, step)
            for m, step in zip(self._members, self._ctx.dt.tolist())
        )

    # -- per-member phases ---------------------------------------------- #

    def _burst_escape_gate(self, ctx: StepContext) -> None:
        """Resolve the burst-escape gate for the connections flagged in
        ``ws.tmp_bool_a`` (the gated mask computed by :meth:`_phase_offer`).

        Every member with a gated connection draws one full-lane ``random``
        from its own admission stream; its failed connections collapse
        (``windows.force_timeout``) and offer nothing this step.

        Reads:  ``ws.tmp_bool_a`` (gated mask), ``windows.ever_paced``.
        Writes: ``ws.draws``, ``ws.desired`` entries of failed connections,
                the members' window/collapse state; clobbers
                ``tmp_conn_a``/``tmp_bool_b``.
        """
        ws = self.workspace
        transport = self._transport
        if not ws.tmp_bool_a.any():
            return
        ever_paced = self.state.windows.ever_paced
        for member in self._members:
            sl = member.conn_sl
            gated = ws.tmp_bool_a[sl]
            if not gated.any():
                continue
            draws = ws.draws[sl]
            member.sim.admission_rng.random(out=draws)
            probs = ws.tmp_conn_a[sl]
            probs.fill(transport.burst_escape_probability)
            np.copyto(probs, transport.burst_reentry_probability,
                      where=ever_paced[sl])
            failed = ws.tmp_bool_b[sl]
            np.greater_equal(draws, probs, out=failed)
            np.logical_and(gated, failed, out=failed)
            if failed.any():
                local_idx = np.flatnonzero(failed)
                mstate = member.sim.state
                now = float(ctx.now[member.index])
                mstate.windows.force_timeout(local_idx, now)
                ws.desired[sl][local_idx] = 0.0
                mstate.collapses_per_app += np.bincount(
                    mstate.conn_app[local_idx], minlength=mstate.n_apps
                )
                mstate.recorder.mark(
                    now, "incast", "burst-loss",
                    data={"count": int(local_idx.size)},
                )

    def _phase_window_dynamics(self, ctx: StepContext) -> None:
        """AIMD plus timeout collapse per connection.

        Reads:  ``ctx.desired/admitted/rtt_eff/oversubscribed/loss_prone``.
        Writes: the transport window state; each member's
                ``collapses_per_app``; may consume each member's transport
                draws for the paced-timeout hazard.
        """
        state = self.state
        update = state.windows.update(
            now=ctx.now_conn,
            dt=ctx.dt_conn,
            requested=ctx.desired,
            admitted=ctx.admitted,
            rtt_eff=ctx.rtt_eff,
            oversubscribed=ctx.oversubscribed,
            loss_prone=ctx.loss_prone,
            collect_stats=False,
            rng_sites=self._rng_sites,
        )
        if update.n_collapsed:
            # Collapsed indices are ascending, so each member's share is one
            # contiguous run; split it per member for the local statistics.
            idx = update.collapsed_indices
            for member in self._members:
                sl = member.conn_sl
                a = int(np.searchsorted(idx, sl.start, side="left"))
                b = int(np.searchsorted(idx, sl.stop, side="left"))
                if b <= a:
                    continue
                mstate = member.sim.state
                local_idx = idx[a:b] - sl.start
                mstate.collapses_per_app += np.bincount(
                    mstate.conn_app[local_idx], minlength=mstate.n_apps
                )
                mstate.recorder.mark(
                    float(ctx.now[member.index]), "incast", "window-collapse",
                    data={"count": int(b - a)},
                )

    def _phase_completion(self, ctx: StepContext) -> None:
        """Complete collective operations and advance per-process streams.

        One flat scan over every member's applications; each change runs on
        its member's own control plane, engine and state.

        Reads:  outstanding bytes per app/process.
        Writes: application runtime bookkeeping, :attr:`changed`; schedules
                issue events.
        """
        changed = self.changed
        changed.clear()
        now = ctx.now
        scan = self._scan_completions(now)
        if scan is None:
            return
        apps, ready, settled = scan
        members = self._members
        for index in apps.tolist():
            member = members[self._app_member[index]]
            member.sim._complete_app(
                index - member.app_sl.start,
                None if ready is None else ready[member.proc_sl],
                None if settled is None else settled[member.app_sl],
                member.engine,
                float(now[member.index]),
            )
            if not changed or changed[-1] is not member:
                changed.append(member)

    def _scan_completions(self, now: np.ndarray):
        """Find the applications whose state changes at the end of this step.

        One set of vectorized reductions over every application and process
        replaces a Python pass over the applications.  Returns ``None`` when
        nothing changes (the common case) or ``(apps, ready, settled)``: the
        ascending indices of the applications to update, the per-process mask
        of non-collective processes ready to issue their next operation, and
        the per-application mask of non-collective applications whose every
        process is done.  The masks read the same post-step outstanding
        bytes the per-application checks read, and an application's update
        only touches its own connections, so scanning all applications up
        front decides exactly what a pass in index order would.

        Reads:  outstanding bytes, ``app_phase``, process issue state, the
                member clocks ``now``.
        Writes: nothing (clobbers ``tmp_conn_a``).
        """
        state = self.state
        active = state.app_phase == APP_ACTIVE
        if not np.count_nonzero(active):
            return None
        eps = COMPLETION_EPSILON
        outstanding = np.add(
            state.send_remaining, state.buffers.conn_bytes, out=self.workspace.tmp_conn_a
        )
        changed = active & state.app_collective
        if np.count_nonzero(changed):
            per_app = np.bincount(state.conn_app, weights=outstanding, minlength=state.n_apps)
            changed &= per_app <= eps
        ready = settled = None
        independent = active & self._app_independent if self._any_independent else None
        if independent is not None and np.count_nonzero(independent):
            per_proc = np.bincount(
                state.conn_proc, weights=outstanding, minlength=state.n_processes
            )
            idle = per_proc <= eps
            exhausted = (state.proc_current_op + 1) >= state.proc_n_ops
            ready = idle & ~exhausted
            ready &= state.proc_next_issue <= now.take(state.proc_member)
            ready &= independent[state.proc_app]
            idle &= exhausted
            settled = np.bincount(
                state.proc_app, weights=idle, minlength=state.n_apps
            ) == state.app_n_procs
            settled &= independent
            changed |= settled
            changed[state.proc_app[ready]] = True
        if not np.count_nonzero(changed):
            return None
        return np.flatnonzero(changed), ready, settled

    # -- the step ------------------------------------------------------- #

    def step_batch(self, now: np.ndarray) -> None:
        """Advance every member by its own step (:meth:`set_steps`) to its
        clock in ``now``: one float per member, the end of this step."""
        ctx = self._ctx
        ctx.now = now
        now.take(self.state.conn_member, out=ctx.now_conn)
        profiler = self.profiler
        if profiler is None:
            self._phase_workload_mix(ctx)
            self._phase_drain(ctx)
            self._phase_offer(ctx)
            self._phase_admission(ctx)
            self._phase_window_dynamics(ctx)
            self._phase_accounting(ctx)
            self._phase_completion(ctx)
            return
        with profiler.phase("workload_mix"):
            self._phase_workload_mix(ctx)
        with profiler.phase("drain"):
            self._phase_drain(ctx)
        with profiler.phase("offer"):
            self._phase_offer(ctx)
        with profiler.phase("admission"):
            self._phase_admission(ctx)
        with profiler.phase("window_dynamics"):
            self._phase_window_dynamics(ctx)
        with profiler.phase("accounting"):
            self._phase_accounting(ctx)
        with profiler.phase("completion"):
            self._phase_completion(ctx)


# ---------------------------------------------------------------------- #
# The driver
# ---------------------------------------------------------------------- #


class BatchSimulator:
    """Runs its members on one kernel, in lockstep by tick index, each on
    its own clock and under its own stepping policy.

    ``members`` are scenarios or *fresh* :class:`IOPathSimulator` objects (a
    run alone passes itself): their control plane is scheduled from their
    start anchors.  Members must share the platform and filesystem
    configuration; their steps, stepping policies, start anchors and
    horizons are their own.  :attr:`members` lists every member in input
    order; the current generation of the flat state (:attr:`state`,
    :attr:`stepper`) holds the live ones.
    """

    def __init__(
        self, members: Sequence[Union[ScenarioConfig, IOPathSimulator]]
    ) -> None:
        if not members:
            raise SimulationError("a batch needs at least one scenario")
        sims = [
            m if isinstance(m, IOPathSimulator) else IOPathSimulator(m)
            for m in members
        ]
        scenario = sims[0].scenario
        self.members: List[_BatchMember] = []
        for sim in sims:
            s = sim.scenario
            if s.platform != scenario.platform or s.filesystem != scenario.filesystem:
                raise SimulationError(
                    "batch members must share the platform/filesystem configuration"
                )
            t0 = min(0.0, min(app.start_time for app in s.applications))
            max_time = s.control.max_time
            self.members.append(_BatchMember(
                sim=sim,
                engine=Simulator(start_time=t0, horizon=t0 + max_time * 2 + 1.0),
                t0=t0,
                until=t0 + max_time,
                adaptive=sim.stepping.is_adaptive,
            ))
        self._build(self.members)
        #: Padding of the bucket as planned (its first generation).
        self.padded_slots = self.state.buffers.padded_slots
        self.group_slots = self.state.buffers.group_slots
        #: Every live member's clock: the end of its last step (its start
        #: anchor before the first).
        self.clock = np.array([m.t0 for m in self.members], dtype=np.float64)
        for member in self.members:
            member.sim.schedule_control_plane(member.engine, member.t0)
        #: Per live fixed-step member, the clock at which the driver must
        #: look at it before stepping: its next engine event or its horizon,
        #: whichever is first (``inf`` once it finished, and for adaptive
        #: members, which look at their engines every tick).
        self._alarm = np.full(len(self.members), float("inf"))
        for member in self.members:
            self._set_alarm(member)
        self._n_live = len(self.members)
        self.n_batch_steps = 0
        #: Lanes stepped: the live width summed over the ticks.
        self.n_lane_steps = 0
        self._wall_start = 0.0
        #: The phase profiler of a :meth:`run` with telemetry on.
        self.profiler: Optional[StepProfiler] = None

    def _build(self, members: Sequence[_BatchMember]) -> None:
        """Build a generation of the flat state and its kernel over
        ``members`` (see :class:`_BatchedState`)."""
        self._live = list(members)
        self.state = _BatchedState(self._live)
        self.stepper = BatchedStepper(self.state, self._live)
        #: Every live member's step: its resolved step, or for an adaptive
        #: member the step of the current tick.
        self.steps = np.array([m.sim.step_size for m in self._live], dtype=np.float64)
        self.stepper.set_steps(self.steps)

    def _stamp(self, member: _BatchMember) -> None:
        """Write the batch's running observed time for ``member`` onto its
        own servers and links."""
        st = member.sim.state
        observed = float(self.stepper.observed_time[member.index])
        st.deployment.observed_time = observed
        st.topology._observed_time = observed

    def _compact(self) -> None:
        """Rebuild the flat state from the live members only.

        Their lanes become contiguous in member order and their indices are
        renumbered; clocks, alarms, observed times, pressure statistics and
        the profiler carry over.  The previous generation is freed as soon
        as the members are re-pointed.
        """
        keep = [m.index for m in self._live if m.live]
        live = [self._live[i] for i in keep]
        for member in live:
            self._stamp(member)
        profiler = self.stepper.profiler
        self.clock = self.clock[keep]
        self._alarm = self._alarm[keep]
        self.state = self.stepper = None
        self._build(live)
        self.stepper.profiler = profiler

    # ------------------------------------------------------------------ #

    def run(self) -> List[RunResult]:
        """Run every member to completion; results in member order.

        Runs generations until every member finished, compacting the
        survivors after each tick on which a member retired.  With telemetry
        on, a :class:`StepProfiler` times the kernel phases for
        :meth:`publish`.  The kernel never reads it, so results stay
        byte-identical with telemetry on or off.
        """
        if get_telemetry().enabled and self.stepper.profiler is None:
            self.profiler = self.stepper.profiler = StepProfiler()
        self._wall_start = time.perf_counter()
        try:
            while True:
                self._run_generation()
                if not self._n_live:
                    break
                self._compact()
        finally:
            if self.profiler is not None:
                self.stepper.profiler = None
        return [m.result for m in self.members]

    def _set_alarm(self, member: _BatchMember) -> None:
        if not member.adaptive:
            member.due = _next_event_time(member.engine)
            self._alarm[member.index] = min(member.due, member.until)

    def _follow_up(self, member: _BatchMember) -> None:
        """After a step that changed ``member``'s control plane: retire it if
        it finished (build its result and detach it), else note when its
        engine next has work."""
        i = member.index
        if member.sim.state.all_finished():
            wall_time = time.perf_counter() - self._wall_start
            self._stamp(member)
            member.result = member.sim._build_result(
                float(self.clock[i]), self.n_batch_steps, wall_time
            )
            member.detach()
            self._alarm[i] = float("inf")
            self._n_live -= 1
            return
        self._set_alarm(member)

    def _unfinished(self, member: _BatchMember) -> SimulationError:
        unfinished = [
            rt.app.name for rt in member.sim.state.app_runtime if not rt.finished
        ]
        return SimulationError(
            f"simulation reached max_time={member.sim.scenario.control.max_time}s "
            f"with unfinished applications {unfinished}; check the scenario "
            "configuration"
        )

    def _run_generation(self) -> None:
        """Tick the current generation until one of its members retires."""
        stepper, clock, steps, alarm = self.stepper, self.clock, self.steps, self._alarm
        width = len(self._live)
        adaptive = [m for m in self._live if m.adaptive]
        ends: List[float] = []
        ringing = np.zeros(width, dtype=bool)
        while self._n_live == width:
            if adaptive:
                ends = [self._adaptive_step_end(m) for m in adaptive]
                for member, end in zip(adaptive, ends):
                    steps[member.index] = end - clock[member.index]
                stepper.set_steps(steps)
            # Each fixed clock advances with a periodic step event's
            # arithmetic: first at t0 + dt, then each step dt after the last.
            # An adaptive clock is assigned its step end.
            np.add(clock, steps, out=clock)
            for member, end in zip(adaptive, ends):
                clock[member.index] = end
            np.greater_equal(clock, alarm, out=ringing)
            if ringing.any():
                self._run_control_plane(np.flatnonzero(ringing))
            stepper.step_batch(clock)
            self.n_batch_steps += 1
            self.n_lane_steps += width
            for member in stepper.changed:
                self._follow_up(member)
            for member in adaptive:
                if member.live:
                    self._bound_next_step(member)

    def _run_control_plane(self, ringing: np.ndarray) -> None:
        """For each live fixed-step member whose alarm rang: fail if it is
        past its horizon, else run its engine over the events that precede a
        NORMAL-priority step event at its clock, if any are due."""
        for i in ringing.tolist():
            member = self._live[i]
            now = float(self.clock[i])
            if now > member.until:
                raise self._unfinished(member)
            if member.due <= now:
                member.engine.run(until=now, until_priority=EventPriority.NORMAL)
                member.due = _next_event_time(member.engine)
            self._alarm[i] = min(member.due, member.until)

    def _adaptive_step_end(self, member: _BatchMember) -> float:
        """Run an adaptive member's engine up to this tick's step and return
        the step's end.

        Runs the events that precede a NORMAL-priority event at the pending
        step end, as :meth:`_run_control_plane` does for a fixed member.
        While the pending step is longer than a base step, the first control
        event (an application start or an operation issue) ends that scan:
        one at the member's clock re-anchors the pending step a base step
        after it and runs; a later one ends this tick's step at its own time
        (a catch-up) and runs on the next tick, after the step.  So no step
        spans a state change, while a control event inside a base-length
        step lands inside it, the granularity the fixed policy has.  Fails if
        the step would end past the member's horizon.
        """
        engine = member.engine
        now = float(self.clock[member.index])
        base = member.sim.step_size
        member.catching_up = False
        while True:
            head = engine.peek_next()
            if head is None or head.time > min(member.next_step, member.until) or (
                head.time == member.next_step and head.priority >= EventPriority.NORMAL
            ):
                break
            if (
                head.priority == EventPriority.CONTROL
                and member.next_step - now > base * (1.0 + 1e-12)
            ):
                if head.time > now:
                    member.catching_up = True
                    break
                member.next_step = head.time + base
            engine.step()
        end = head.time if member.catching_up else member.next_step
        if end > member.until:
            raise self._unfinished(member)
        return end

    def _bound_next_step(self, member: _BatchMember) -> None:
        """Place an adaptive member's next step end after the step it took:
        a base step after a catch-up, else at the adaptive bound derived from
        the post-step rates (capped by ``max_dt``; ``inf`` while unbounded,
        so the next control event ends the step)."""
        sim = member.sim
        end = float(self.clock[member.index])
        if member.catching_up:
            member.next_step = end + sim.step_size
            return
        policy = sim.stepping
        bound = sim.next_bound(end, sim.step_size, policy.tolerance)
        if policy.max_dt is not None:
            bound = min(bound, policy.max_dt)
        member.next_step = end + bound

    # ------------------------------------------------------------------ #

    def publish(self, telemetry, span: int, start_us: float, track: str = "main") -> None:
        """Fold the finished run into ``telemetry``, under ``span``.

        Emits one synthetic ``phase`` child span per kernel phase, sized by
        the phase's accumulated wall time and laid end to end from
        ``start_us`` (a flame view of where the kernel spent its time, not a
        per-step timeline), and counts ``step.phase.*``, every member
        engine's counters, ``sim.steps`` and the kernel's ``batch.ticks``
        (steps of the whole batch), ``batch.member_steps`` (steps of each
        member until it finished, summed) and ``batch.lane_steps`` (the
        live width summed over the ticks; compaction keeps finished members
        out of the kernel, so it equals ``batch.member_steps``).
        """
        if self.profiler is not None:
            cursor = start_us
            for phase, row in self.profiler.report().items():
                phase_us = row["ns"] / 1000.0
                telemetry.add_span(
                    phase,
                    "phase",
                    cursor,
                    phase_us,
                    parent=span,
                    track=track,
                    args={"calls": row["calls"],
                          "ns_per_call": round(row["ns_per_call"], 1),
                          "alloc_blocks": row["alloc_blocks"]},
                )
                cursor += phase_us
                telemetry.count(f"step.phase.{phase}.ns", row["ns"])
                telemetry.count(f"step.phase.{phase}.calls", row["calls"])
                telemetry.observe(f"step.phase.{phase}.ns_per_call", row["ns_per_call"])
        for member in self.members:
            for name, value in member.engine.stats().items():
                telemetry.count(name, value)
        member_steps = sum(m.result.n_steps for m in self.members)
        telemetry.count("sim.steps", member_steps)
        telemetry.count("batch.ticks", self.n_batch_steps)
        telemetry.count("batch.member_steps", member_steps)
        telemetry.count("batch.lane_steps", self.n_lane_steps)


def _next_event_time(engine: Simulator) -> float:
    head = engine.peek_next()
    return float("inf") if head is None else head.time


# ---------------------------------------------------------------------- #
# Front end
# ---------------------------------------------------------------------- #


def run_bucket(
    members: Sequence[Union[ScenarioConfig, IOPathSimulator]],
) -> List[RunResult]:
    """Run one bucket through the driver, with telemetry.

    ``members`` are what :class:`BatchSimulator` takes: scenarios, or fresh
    simulators (:func:`simulate_many` passes each request's seed this way).
    Emits the per-bucket ``simulation``-track span (with the kernel's
    ``phase`` children and counters, as every run publishes them), the
    ``batch.buckets`` / ``batch.member_runs`` / ``batch.padded_slots`` /
    ``batch.group_slots`` counters, and the ``batch.occupancy`` observation —
    the single place that accounting lives, shared by :func:`simulate_many`
    and the executor-level batchers.
    """
    telemetry = get_telemetry()
    reference = members[0]
    if isinstance(reference, IOPathSimulator):
        reference = reference.scenario
    n_servers = reference.filesystem.n_servers
    with telemetry.span(
        f"batch:b{len(members)}x{n_servers}s",
        category="simulation",
        track="batch",
        members=len(members),
        n_servers=n_servers,
    ) as bucket_span:
        batch = BatchSimulator(members)
        start_us = telemetry.now_us()
        results = batch.run()
    batch.publish(telemetry, bucket_span, start_us, track="batch")
    telemetry.count("batch.buckets")
    telemetry.count("batch.member_runs", len(members))
    telemetry.observe("batch.occupancy", float(len(members)))
    telemetry.count("batch.padded_slots", batch.padded_slots)
    telemetry.count("batch.group_slots", batch.group_slots)
    return results


def simulate_many(
    scenarios: Sequence[ScenarioConfig],
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[RunResult]:
    """Simulate each distinct ``(scenario, seed)`` request once, running the
    planned buckets in lockstep (:func:`plan_buckets` at one worker).

    ``seeds`` are per-request seed overrides (``None``: the scenario's own
    seed, which is what an omitted ``seeds`` means for every request).  A
    request equal to an earlier one — scenarios compare and hash by value,
    and a seed of ``None`` equals the scenario's own — is not simulated
    again: it shares that request's :class:`RunResult`.  Results come back
    in input order and are bitwise identical to running each request alone
    through :func:`~repro.model.simulator.simulate_scenario`; ragged and
    mixed-width deployments batch (padded width classes), and so do fixed
    and adaptive stepping.  Emits ``batch.*`` telemetry: ``batch.requests``
    and ``batch.repeats`` (requests served by an equal request's result),
    and one ``simulation``-track span plus an occupancy observation per
    bucket.
    """
    scenarios = list(scenarios)
    seeds = [None] * len(scenarios) if seeds is None else list(seeds)
    if len(seeds) != len(scenarios):
        raise SimulationError("simulate_many needs one seed per scenario")
    index: Dict[Tuple[ScenarioConfig, int], int] = {}
    slots = [
        index.setdefault(
            (scenario, scenario.control.seed if seed is None else int(seed)), len(index)
        )
        for scenario, seed in zip(scenarios, seeds)
    ]
    distinct = list(index)
    telemetry = get_telemetry()
    telemetry.count("batch.requests", len(slots))
    telemetry.count("batch.repeats", len(slots) - len(distinct))
    buckets, _ = plan_buckets([scenario for scenario, _ in distinct])
    results: List[Optional[RunResult]] = [None] * len(distinct)
    for bucket in buckets:
        outs = run_bucket([IOPathSimulator(*distinct[i]) for i in bucket.indices])
        for i, result in zip(bucket.indices, outs):
            results[i] = result
    return [results[k] for k in slots]  # type: ignore[misc]
