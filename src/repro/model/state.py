"""Vectorized model state.

:class:`ModelState` is built once per run from a
:class:`~repro.config.scenario.ScenarioConfig`.  It holds:

* the :class:`~repro.workload.application.Application` objects (placement,
  per-operation extents),
* one *connection* per (process, target server) pair with the transport
  state (:class:`~repro.network.congestion.WindowState`) and the server
  receive buffers (:class:`~repro.network.incast.ServerBuffers`),
* the per-connection "bytes still to send for the current operation" array
  the stepper updates,
* per-application progress bookkeeping (current operation, completion
  times).

The control-plane state the stepper scans every step — each application's
lifecycle phase, each process's current operation and next issue instant —
lives in flat arrays too, so the completion phase finds the (rare) steps on
which something changes with a few vectorized reductions and runs Python
only for the applications that actually change.  So do the pending control
actions: each application's start and next collective issue time.  An issue
reads its striping from an :data:`OperationTable`, which a bucket's runs
share, so every issue after the first of its kind is a row lookup plus one
indexed add.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.config.workload import PatternSpec
from repro.errors import SimulationError
from repro.network.congestion import WindowState
from repro.network.incast import ServerBuffers
from repro.network.topology import StarTopology
from repro.pfs.filesystem import PVFSDeployment
from repro.pfs.striping import extents_to_server_matrix
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecorder
from repro.workload.application import Application
from repro.workload.patterns import pattern_extents

__all__ = [
    "APP_ACTIVE", "APP_FINISHED", "APP_PENDING", "APP_WAITING",
    "AppRuntime", "ModelState", "OperationTable", "app_layouts", "stripe_operation",
]

#: Application lifecycle phases (values of ``ModelState.app_phase``).
APP_PENDING = 0    #: not started yet
APP_ACTIVE = 1     #: an operation is in flight
APP_WAITING = 2    #: between collective operations (issue overhead)
APP_FINISHED = 3   #: I/O phase complete


class AppRuntime:
    """Per-application bookkeeping.

    The lifecycle flags are read-only views of ``ModelState.app_phase`` (the
    array the vectorized completion scan reads); transitions go through the
    :class:`ModelState` methods.
    """

    __slots__ = (
        "app", "_state", "current_op", "actual_start_time",
        "end_time", "issued_bytes",
    )

    def __init__(self, app: Application, state: "ModelState") -> None:
        self.app = app
        # Weak, so that a state and its runtimes form no reference cycle:
        # a cycle would hold every finished simulation's arrays until the
        # cyclic garbage collector happens to run.
        self._state = weakref.ref(state)
        self.current_op = -1
        self.actual_start_time = 0.0
        self.end_time = float("nan")
        self.issued_bytes = 0.0

    @property
    def phase(self) -> int:
        """Lifecycle phase (one of the ``APP_*`` codes)."""
        return int(self._state().app_phase[self.app.index])

    @property
    def started(self) -> bool:
        return self.phase != APP_PENDING

    @property
    def finished(self) -> bool:
        return self.phase == APP_FINISHED

    @property
    def write_time(self) -> float:
        """Duration of the application's I/O phase (NaN until finished)."""
        if not self.finished:
            return float("nan")
        return self.end_time - self.actual_start_time


#: What fixes an application's striping: its pattern and process count, the
#: stripe size, its servers and the deployment's server count.
Layout = Tuple[PatternSpec, int, float, Tuple[int, ...], int]


def app_layouts(scenario: ScenarioConfig) -> List[Layout]:
    """The layout of each application of ``scenario``, in application order."""
    fs = scenario.filesystem
    return [
        (spec.pattern, spec.n_processes, fs.stripe_size,
         tuple(scenario.app_servers(spec)), fs.n_servers)
        for spec in scenario.applications
    ]


class OperationRows(NamedTuple):
    """One operation of one layout, every rank striped: rank ``r`` loads the
    ``counts[r]`` cells of ``values`` (fragment sizes) after those of ranks
    ``0..r-1`` onto the same cells of ``conns`` (offsets into its app's
    connections, rank-major), ``totals[r]`` bytes in all.  32-bit offsets
    and counts: a bucket keeps a layout's rows while any run uses it."""

    conns: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    totals: np.ndarray


def stripe_operation(layout: Layout, op_index: int) -> OperationRows:
    """Stripe operation ``op_index`` of ``layout`` for every rank.

    Each rank's row is bit for bit what striping its extent alone gives
    (:func:`~repro.pfs.striping.extents_to_server_matrix` rows are
    independent, ``pattern_extents`` is the per-rank arithmetic of
    ``request_extents``, and ``_segment_sums`` reduces each row alone), so
    a reused row holds the same bits.
    """
    pattern, n_processes, stripe_size, servers, n_servers = layout
    offsets, lengths = pattern_extents(pattern, op_index, n_processes)
    per_server = extents_to_server_matrix(offsets, lengths, stripe_size, servers, n_servers)
    touched = per_server > 0
    ranks, columns = np.nonzero(touched)
    values = per_server[ranks, columns]
    counts = touched.sum(axis=1)
    position = np.zeros(n_servers, dtype=np.int64)
    position[list(servers)] = np.arange(len(servers))
    conns = ranks * len(servers) + position[columns]
    # A rank that touches one server issues exactly that server's bytes.
    totals = values if (counts == 1).all() else _segment_sums(values, counts)
    return OperationRows(conns.astype(np.int32), values, counts.astype(np.int32), totals)


#: Each distinct (layout, operation) pair's rows, striped on its first issue;
#: the runs of a bucket share one table (a run alone owns one).
OperationTable = Dict[Layout, Dict[int, OperationRows]]


class ModelState:
    """All mutable arrays of one simulation run."""

    def __init__(self, scenario: ScenarioConfig, streams: RandomStreams,
                 recorder: Optional[TraceRecorder] = None) -> None:
        self.scenario = scenario
        self.streams = streams
        self.recorder = recorder or TraceRecorder(scenario.control.trace)

        fs = scenario.filesystem
        platform = scenario.platform
        self.deployment = PVFSDeployment(fs, server_nic_bw=platform.network.server_nic_bw)
        self.topology = StarTopology(
            n_client_nodes=platform.n_client_nodes,
            n_servers=fs.n_servers,
            network=platform.network,
        )

        # ---------------- applications and processes ---------------------
        self.applications: List[Application] = []
        node_ranges = scenario.node_ranges()
        first_proc = 0
        for idx, (spec, node_range) in enumerate(zip(scenario.applications, node_ranges)):
            app = Application(
                index=idx,
                spec=spec,
                node_range=node_range,
                servers=scenario.app_servers(spec),
                first_proc_id=first_proc,
            )
            self.applications.append(app)
            first_proc += app.n_processes
        self.n_processes = first_proc
        self.n_servers = fs.n_servers
        self.n_apps = len(self.applications)

        self.proc_app = np.empty(self.n_processes, dtype=np.int64)
        self.proc_node = np.empty(self.n_processes, dtype=np.int64)
        self.proc_rank = np.empty(self.n_processes, dtype=np.int64)
        for app in self.applications:
            ids = app.proc_ids()
            self.proc_app[ids] = app.index
            self.proc_node[ids] = app.node_of_rank()
            self.proc_rank[ids] = app.ranks()

        # ---------------- connections -------------------------------------
        conn_proc: List[np.ndarray] = []
        conn_server: List[np.ndarray] = []
        self.conn_matrix = np.full((self.n_processes, self.n_servers), -1, dtype=np.int64)
        #: Each application's connections, rank-major (one per target server
        #: of each process): ``[app_conn_start[i], app_conn_start[i + 1])``.
        self.app_conn_start: List[int] = []
        offset = 0
        for app in self.applications:
            self.app_conn_start.append(offset)
            ids = app.proc_ids()
            servers = np.asarray(app.servers, dtype=np.int64)
            procs_rep = np.repeat(ids, servers.shape[0])
            servers_rep = np.tile(servers, ids.shape[0])
            count = procs_rep.shape[0]
            conn_proc.append(procs_rep)
            conn_server.append(servers_rep)
            self.conn_matrix[procs_rep, servers_rep] = offset + np.arange(count)
            offset += count
        self.app_conn_start.append(offset)
        self.n_connections = offset
        self.conn_proc = np.concatenate(conn_proc) if conn_proc else np.zeros(0, dtype=np.int64)
        self.conn_server = (
            np.concatenate(conn_server) if conn_server else np.zeros(0, dtype=np.int64)
        )
        self.conn_app = self.proc_app[self.conn_proc]
        self.conn_node = self.proc_node[self.conn_proc]

        # Step-invariant index groups, computed once so the hot path (stepper
        # completion phase, trace sampling) never rebuilds them:
        #: Global process indices per application, in rank order.
        self.app_proc_ids: List[np.ndarray] = [app.proc_ids() for app in self.applications]

        # Transport and buffer state.
        transport = platform.network.transport
        self.windows = WindowState(
            self.n_connections, transport, rng=streams.stream("transport")
        )
        self.buffers = ServerBuffers(
            n_servers=self.n_servers,
            capacity_bytes=fs.server.buffer_bytes,
            conn_server=self.conn_server,
        )

        #: Bytes of the current operation still to be sent, per connection.
        self.send_remaining = np.zeros(self.n_connections, dtype=np.float64)
        #: Size of the current operation's fragment on each connection.
        self.frag_size = np.zeros(self.n_connections, dtype=np.float64)

        # Per-application runtime bookkeeping.
        #: Lifecycle phase per application (``APP_*`` codes).
        self.app_phase = np.full(self.n_apps, APP_PENDING, dtype=np.int8)
        self.n_finished = 0
        self.app_runtime: List[AppRuntime] = [
            AppRuntime(app, self) for app in self.applications
        ]
        #: Static per-application / per-process facts the completion scan reads.
        self.app_collective = np.array(
            [app.spec.pattern.collective for app in self.applications], dtype=bool
        )
        self.app_n_procs = np.array(
            [app.n_processes for app in self.applications], dtype=np.int64
        )
        app_n_ops = np.array(
            [app.n_operations for app in self.applications], dtype=np.int64
        )
        self.proc_n_ops = app_n_ops[self.proc_app]

        # Per-process bookkeeping for the non-collective mode.
        self.proc_current_op = np.full(self.n_processes, -1, dtype=np.int64)
        self.proc_next_issue = np.zeros(self.n_processes, dtype=np.float64)

        # Pending control actions, per application: the start (``inf`` once
        # started) and the next collective issue (``inf`` when none) with its
        # sequence number among the run's actions.
        self.app_start_at = np.array(
            [app.start_time for app in self.applications], dtype=np.float64
        )
        self.app_issue_at = np.full(self.n_apps, np.inf, dtype=np.float64)
        self.app_issue_seq = np.zeros(self.n_apps, dtype=np.int64)

        #: Each application's layout, and the operation table issues read
        #: (its own until a bucket shares one).
        self.layouts = app_layouts(scenario)
        self.use_operations({})

        # Cached per-server drain rate of the previous step (for RTT estimates).
        self.last_drain_rate = np.full(
            self.n_servers, fs.server.ingest_bw, dtype=np.float64
        )
        # Cached per-server admission rate (B/s) of the previous step; the
        # adaptive stepper derives buffer fill/empty horizons from it.
        self.last_admission_rate = np.zeros(self.n_servers, dtype=np.float64)

        # Collapse statistics per application (Incast detection).
        self.collapses_per_app = np.zeros(self.n_apps, dtype=np.int64)

        # Traced connections (window figures): first connection of each app.
        limit = self.recorder.config.window_connection_limit
        self.traced_connections: Dict[int, str] = {}
        if self.recorder.config.record_windows and limit > 0:
            for app in self.applications:
                ids = app.proc_ids()
                count = 0
                for proc in ids[: max(limit, 1)]:
                    for server in app.servers[:1]:
                        conn = int(self.conn_matrix[proc, server])
                        if conn >= 0:
                            self.traced_connections[conn] = (
                                f"window.{app.name}.rank{int(proc - app.first_proc_id)}"
                                f".server{int(server)}"
                            )
                            count += 1
                    if count >= limit:
                        break

    # ------------------------------------------------------------------ #
    # Operation issue
    # ------------------------------------------------------------------ #

    def app_lanes(self, app: Application) -> slice:
        """The connections of every (process, server) pair of ``app``."""
        return slice(self.app_conn_start[app.index], self.app_conn_start[app.index + 1])

    def use_operations(self, table: OperationTable) -> None:
        """Read every issue's striping from ``table``."""
        self._app_ops = [table.setdefault(layout, {}) for layout in self.layouts]

    def _rows(self, app: Application, op_index: int) -> OperationRows:
        ops = self._app_ops[app.index]
        rows = ops.get(op_index)
        if rows is None:
            rows = ops[op_index] = stripe_operation(self.layouts[app.index], op_index)
        return rows

    def issue_operation(self, app: Application, op_index: int) -> float:
        """Load operation ``op_index`` of ``app`` onto its connections.

        Returns the number of bytes issued.  Used for collective operations
        (all processes issue together).
        """
        if op_index < 0 or op_index >= app.n_operations:
            raise SimulationError(
                f"application {app.name!r} has no operation {op_index}"
            )
        rows = self._rows(app, op_index)
        lanes = self.app_lanes(app)
        # Distinct connections, so one fancy-indexed add loads them all.
        self.send_remaining[lanes][rows.conns] += rows.values
        self.frag_size[lanes][rows.conns] = rows.values
        per_proc = rows.totals
        # cumsum accumulates in process order, as a running Python total does.
        issued = float(np.cumsum(per_proc)[-1]) if per_proc.size else 0.0
        runtime = self.app_runtime[app.index]
        runtime.issued_bytes += issued
        runtime.current_op = op_index
        if self.app_phase[app.index] == APP_WAITING:
            self.app_phase[app.index] = APP_ACTIVE
        return issued

    def issue_process_operations(
        self, app: Application, procs: np.ndarray, op_indices: np.ndarray
    ) -> np.ndarray:
        """Load operation ``op_indices[i]`` of process ``procs[i]`` of ``app``
        (non-collective mode); returns the bytes each process issued."""
        procs = np.asarray(procs, dtype=np.int64)
        op_indices = np.asarray(op_indices, dtype=np.int64)
        ranks = self.proc_rank[procs]
        per_proc = np.empty(procs.shape[0], dtype=np.float64)
        send = self.send_remaining[self.app_lanes(app)]
        frag = self.frag_size[self.app_lanes(app)]
        for op in set(op_indices.tolist()):
            sel = op_indices == op
            rows = self._rows(app, op)
            issuing = ranks[sel]
            # Each issuing rank's row, gathered back to back.
            starts = np.cumsum(rows.counts, dtype=np.int64) - rows.counts
            counts = rows.counts[issuing]
            ends = np.cumsum(counts, dtype=np.int64)
            cells = np.arange(ends[-1]) + np.repeat(starts[issuing] - ends + counts, counts)
            conns, values = rows.conns[cells], rows.values[cells]
            send[conns] += values
            frag[conns] = values
            per_proc[sel] = rows.totals[issuing]
        runtime = self.app_runtime[app.index]
        if per_proc.size:
            # Accumulated process by process, in order.
            running = np.cumsum(np.concatenate(([runtime.issued_bytes], per_proc)))
            runtime.issued_bytes = float(running[-1])
        self.proc_current_op[procs] = op_indices
        return per_proc

    # ------------------------------------------------------------------ #
    # Lifecycle transitions
    # ------------------------------------------------------------------ #

    def mark_started(self, app_index: int, now: float) -> None:
        """The application's I/O phase begins at ``now``."""
        self.app_phase[app_index] = APP_ACTIVE
        self.app_start_at[app_index] = np.inf
        self.app_runtime[app_index].actual_start_time = now

    def mark_waiting(self, app_index: int) -> None:
        """A collective operation completed; the next one is pending issue."""
        self.app_phase[app_index] = APP_WAITING

    def mark_finished(self, app_index: int, now: float) -> None:
        """The application completed its I/O phase at ``now``."""
        self.app_phase[app_index] = APP_FINISHED
        self.n_finished += 1
        self.app_runtime[app_index].end_time = now

    # ------------------------------------------------------------------ #
    # Aggregations used by the stepper
    # ------------------------------------------------------------------ #

    def outstanding_per_connection(self) -> np.ndarray:
        """Bytes not yet durably handled per connection (in flight + to send)."""
        return self.send_remaining + self.buffers.conn_bytes

    def outstanding_per_app(self) -> np.ndarray:
        """Bytes not yet durably handled per application."""
        return np.bincount(
            self.conn_app, weights=self.outstanding_per_connection(), minlength=self.n_apps
        )

    def outstanding_per_process(self) -> np.ndarray:
        """Bytes not yet durably handled per process."""
        return np.bincount(
            self.conn_proc, weights=self.outstanding_per_connection(), minlength=self.n_processes
        )

    def all_finished(self) -> bool:
        """True when every application has completed its I/O phase."""
        return self.n_finished == self.n_apps

    def completed_bytes_per_app(self) -> np.ndarray:
        """Bytes durably handled so far, per application."""
        issued = np.array([rt.issued_bytes for rt in self.app_runtime])
        outstanding = self.outstanding_per_app()
        return np.maximum(issued - outstanding, 0.0)


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each of the consecutive segments of ``values`` sized ``counts``.

    Each segment is reduced by NumPy exactly as the segment alone would be
    (equal-width segments as the rows of one matrix, whose row reductions
    use the same pairwise summation as a 1-D reduction of the row).
    """
    n = counts.shape[0]
    width = int(counts[0]) if n else 0
    if n and bool((counts == width).all()):
        if width == 0:
            return np.zeros(n, dtype=np.float64)
        return values.reshape(n, width).sum(axis=1)
    ends = np.cumsum(counts).tolist()
    return np.array(
        [values[end - count:end].sum() for count, end in zip(counts.tolist(), ends)],
        dtype=np.float64,
    )
