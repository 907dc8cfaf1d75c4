"""One simulation run: its state, its control plane and its result.

:class:`IOPathSimulator` is what the stepping kernel advances as a *member*:
it owns one scenario's state, trace recorder and random streams, and its
control plane, which is data the driver reads between steps (below).  The
completion phase of the kernel hands each finished operation back here,
which sets the next collective issue, issues the next per-process
operations or marks the application finished; and
:meth:`IOPathSimulator.next_bound` derives the adaptive step bound from the
current rates.

:meth:`IOPathSimulator.run` runs the scenario as a batch of one on the
kernel's one driver (:class:`repro.model.batch.BatchSimulator`), under
either stepping policy.  The module-level helper :func:`simulate_scenario`
is the one-call entry point used by the experiment framework:
``result = simulate_scenario(scenario)``.

Control actions
---------------
An application's start (``ModelState.app_start_at``), a collective issue
(``ModelState.app_issue_at``) and a trace sample
(:attr:`IOPathSimulator.sample_at`, a sample period after the last while a
series records) are *actions*.  They run in ``(time, tier, seq)`` order: at
one instant starts and issues (tier :data:`CONTROL`) before samples (tier
:data:`OBSERVE`), ties in the order the run set them (a start's ``seq`` is
its application's index; every issue and sample takes the next number of a
per-run counter).  A step sits between the tiers:
:meth:`IOPathSimulator.run_control` runs the actions that precede a step
ending at a given instant, so a sample at a step instant observes the
post-step state, and an issue that lands inside a step waits for its end.

Adaptive time advance
---------------------
:meth:`IOPathSimulator.next_bound` derives the largest safe ``dt`` from the
current rates: during *quiescent* intervals (no connection may send, buffers
empty) it returns the exact time to the next intrinsic state change (earliest
RTO expiry, earliest pending per-process operation issue) so the driver can
collapse the whole dead interval into a single step; while *active* it bounds
the step to a ``tolerance`` fraction of the time to the next rate-regime
change (buffer fill/empty, collective completion, transport dynamics).  The
fixed policy never calls it.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.errors import SimulationError
from repro.model.results import ApplicationResult, ComponentStats, RunResult
from repro.model.state import APP_ACTIVE, ModelState
from repro.model.stepper import COMPLETION_EPSILON
from repro.obs.telemetry import get_telemetry
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecorder

__all__ = ["CONTROL", "IDLE", "OBSERVE", "IOPathSimulator", "simulate_scenario", "start_anchor"]

#: Action tiers: at one instant starts and issues run before a step, and
#: trace samples after it.
CONTROL, OBSERVE = 0, 1
_START, _ISSUE, _SAMPLE = 0, 1, 2
_INF = float("inf")

#: A pending action, ``(time, tier, seq, kind, app)`` (``app`` is ``-1`` for a
#: sample): actions order as these tuples do, and :data:`IDLE` is none.
Action = Tuple[float, int, int, int, int]
IDLE: Action = (_INF, OBSERVE, 0, _SAMPLE, -1)

#: Safety margin (seconds) added to a quiescent jump so the landing step is
#: unambiguously at-or-after the state-changing instant despite float
#: round-off in ``now + bound``.
_LANDING_EPSILON = 1.0e-9


class IOPathSimulator:
    """Simulates one scenario end to end.

    Parameters
    ----------
    scenario:
        The validated scenario to run.
    seed:
        Optional override of the scenario's master seed (used by sweeps that
        want common random numbers across the Δ axis).
    """

    def __init__(self, scenario: ScenarioConfig, seed: Optional[int] = None) -> None:
        self.scenario = scenario
        master_seed = scenario.control.seed if seed is None else int(seed)
        self.streams = RandomStreams(master_seed)
        self.recorder = TraceRecorder(scenario.control.trace)
        self.state = ModelState(scenario, self.streams, recorder=self.recorder)
        #: The burst-escape gate's draws.
        self.admission_rng = self.streams.stream("admission")
        self._step_size = scenario.control.resolve_step(scenario.estimate_duration())
        self._stepping = scenario.control.resolve_stepping()
        self._transport = scenario.platform.network.transport
        self._app_independent = ~self.state.app_collective
        self._any_independent = bool(self._app_independent.any())
        # Starts take sequence numbers 0..n_apps-1; issues and samples follow.
        self._seq = count(self.state.n_apps)
        self._sample_period = scenario.control.trace.series_sample_period
        #: Time of the next trace sample (``inf`` while no series records).
        self.sample_at, self._sample_seq = _INF, 0
        if self.recorder.config.records_series:
            self.sample_at = start_anchor(scenario) + self._sample_period
            self._sample_seq = next(self._seq)
        #: Actions taken: starts, issues and samples.
        self._taken = [0, 0, 0]

    # ------------------------------------------------------------------ #

    @property
    def step_size(self) -> float:
        """Resolved model step (seconds)."""
        return self._step_size

    @property
    def stepping(self):
        """The resolved :class:`~repro.config.control.SteppingPolicy`."""
        return self._stepping

    def run(self) -> RunResult:
        """Run the scenario to completion and return the result.

        With telemetry on, the run emits one ``simulation`` span named after
        the scenario, with the kernel's ``phase`` children and counters.
        Telemetry is observational only: the kernel never reads it, so run
        output stays byte-identical with telemetry on or off.
        """
        # The kernel's module builds on this one.
        from repro.model.batch import BatchSimulator

        batch = BatchSimulator([self])
        result = batch.run()[0]
        telemetry = get_telemetry()
        if telemetry.enabled:
            label = self.scenario.label or "scenario"
            wall_us = result.wall_time * 1e6
            start_us = telemetry.now_us() - wall_us
            span = telemetry.add_span(
                f"simulate:{label}",
                "simulation",
                start_us,
                wall_us,
                args={
                    "label": label,
                    "steps": result.n_steps,
                    "stepping": self._stepping.mode.value,
                    "simulated_time_s": round(
                        result.simulated_time - batch.members[0].t0, 9
                    ),
                },
            )
            batch.publish(telemetry, span, start_us)
            telemetry.observe("sim.wall_s", result.wall_time)
            telemetry.event(
                "simulation_done",
                label=label,
                steps=result.n_steps,
                wall_s=round(result.wall_time, 6),
                events_processed=sum(batch.members[0].stats.values()),
            )
        return result

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #

    def next_action(self) -> Action:
        """The earliest pending action (:data:`IDLE` when none is)."""
        state = self.state
        pending = [
            (t, CONTROL, app, _START, app)
            for app, t in enumerate(state.app_start_at.tolist()) if t < _INF
        ]
        issues = zip(state.app_issue_at.tolist(), state.app_issue_seq.tolist())
        pending += [
            (t, CONTROL, seq, _ISSUE, app)
            for app, (t, seq) in enumerate(issues) if t < _INF
        ]
        if self.sample_at < _INF:
            pending.append((self.sample_at, OBSERVE, self._sample_seq, _SAMPLE, -1))
        return min(pending, default=IDLE)

    def run_control(self, now: float) -> float:
        """Run, in order, every pending action that precedes a step ending
        at ``now`` (those before ``now`` and the CONTROL ones at it); return
        the time of the next pending action (``inf`` when none)."""
        while True:
            action = self.next_action()
            if action[0] > now or (action[0] == now and action[1] == OBSERVE):
                return action[0]
            self.run_action(action)

    def run_action(self, action: Action) -> None:
        """Take one pending action at its own time."""
        now, _, _, kind, index = action
        self._taken[kind] += 1
        state = self.state
        if kind == _START:
            self.start_application(index, now)
        elif kind == _ISSUE:
            # The next collective operation of a waiting application.
            state.app_issue_at[index] = _INF
            app = state.applications[index]
            op_index = state.app_runtime[index].current_op + 1
            state.issue_operation(app, op_index)
            state.recorder.mark(now, "op", f"{app.name}.op{op_index}")
        else:
            self._sample(now)
            # The float accumulation of a periodic event: fired + period.
            self.sample_at = now + self._sample_period
            self._sample_seq = next(self._seq)

    def control_stats(self) -> Dict[str, int]:
        """Actions taken by kind, keyed for the telemetry registry."""
        return dict(zip(("control.starts", "control.issues", "control.samples"), self._taken))

    def start_application(self, app_index: int, now: float) -> None:
        """Begin the I/O phase of one application at ``now`` (issue its
        first operation)."""
        state = self.state
        app = state.applications[app_index]
        runtime = state.app_runtime[app_index]
        if runtime.started:
            raise SimulationError(f"application {app.name!r} started twice")
        state.mark_started(app_index, now)
        state.recorder.mark(now, "phase", f"{app.name}.start")
        if app.spec.pattern.collective:
            state.issue_operation(app, 0)
        else:
            procs = state.app_proc_ids[app_index]
            state.issue_process_operations(app, procs, np.zeros(procs.shape[0], dtype=np.int64))
            state.proc_next_issue[procs] = now

    def _complete_app(
        self,
        index: int,
        ready: Optional[np.ndarray],
        settled: Optional[np.ndarray],
        now: float,
    ) -> None:
        """Apply one application's end-of-step change found by the kernel's
        completion scan (``ready``/``settled`` are this run's slices)."""
        state = self.state
        runtime = state.app_runtime[index]
        app = runtime.app
        pattern = app.spec.pattern
        if pattern.collective:
            if runtime.current_op < 0:
                return
            if runtime.current_op + 1 >= app.n_operations:
                self._finish_app(runtime, now)
                return
            state.mark_waiting(index)
            # ``now`` is the step instant; the issue waits for the step that
            # ends at or after it.
            state.app_issue_at[index] = now + float(pattern.collective_overhead)
            state.app_issue_seq[index] = next(self._seq)
            return
        ids = state.app_proc_ids[index]
        issuing = ids[ready[ids]]
        if issuing.size:
            state.issue_process_operations(app, issuing, state.proc_current_op[issuing] + 1)
            state.proc_next_issue[issuing] = now + pattern.collective_overhead
        if settled[index]:
            self._finish_app(runtime, now)

    def _finish_app(self, runtime, now: float) -> None:
        self.state.mark_finished(runtime.app.index, now)
        self.state.recorder.mark(now, "phase", f"{runtime.app.name}.end")
        if self.state.all_finished():
            self.sample_at = _INF

    # ------------------------------------------------------------------ #
    # Adaptive time advance
    # ------------------------------------------------------------------ #

    def next_bound(self, now: float, base_dt: float, tolerance: float) -> float:
        """Largest safe ``dt`` for the *next* step, derived from current rates.

        Quiescent model (no connection may send — everything is stalled in
        RTO or idle — and the server buffers are empty): a step is a pure
        passage of time, so the bound is the exact distance to the next
        intrinsic state change — the earliest RTO expiry or the earliest
        pending per-process operation issue — plus a landing epsilon.
        Returns ``inf`` when no intrinsic change is pending (the next change
        can then only come from a scheduled control event, which the driver
        bounds separately).

        Active model: the bound is ``tolerance`` times the shortest of the
        rate-derived horizons — time to the next buffer fill or empty at the
        current net rates, time to the next collective completion at the
        current drain rates, the earliest RTO expiry, and (whenever transport
        dynamics are in play: stalled connections or half-full buffers) the
        RTO timescale itself — but never less than ``base_dt``.  With small
        tolerances the contended phases therefore run at exactly the fixed
        step, and only provably-smooth intervals stretch.
        """
        state = self.state
        eps = COMPLETION_EPSILON
        outstanding = state.outstanding_per_connection()
        busy = outstanding > eps
        sending = state.windows.sending_allowed(now)
        buffered = float(state.buffers.fill.sum())
        stalls = state.windows.stall_until

        if not bool(np.any(busy & sending)) and buffered <= eps:
            candidates = []
            if np.any(busy):
                pending = stalls[busy]
                pending = pending[np.isfinite(pending) & (pending > now)]
                if pending.size:
                    candidates.append(float(pending.min()) - now)
            issue_wait = self._next_issue_wait(now)
            if issue_wait is not None:
                candidates.append(issue_wait)
            if not candidates:
                return float("inf")
            return max(min(candidates), 0.0) + _LANDING_EPSILON

        horizons = []
        # Transport dynamics in play: never outrun the RTO timescale.
        if bool(np.any(busy & ~sending)) or bool(
            np.any(state.buffers.occupancy_fraction() >= 0.5)
        ):
            horizons.append(self._transport.rto)
        # Buffer fill / empty at the current net rates.
        drain = np.maximum(state.last_drain_rate, 1.0)
        net = state.last_admission_rate - drain
        free = state.buffers.free_space()
        filling = net > 1.0
        if np.any(filling):
            horizons.append(float(np.min(free[filling] / net[filling])))
        emptying = (net < -1.0) & (state.buffers.fill > eps)
        if np.any(emptying):
            horizons.append(float(np.min(state.buffers.fill[emptying] / -net[emptying])))
        # Next collective completion at the current drain rates.
        per_server_out = np.bincount(
            state.conn_server, weights=outstanding, minlength=state.n_servers
        )
        draining = per_server_out > eps
        if np.any(draining):
            horizons.append(float(np.min(per_server_out[draining] / drain[draining])))
        # Earliest RTO expiry.
        pending = stalls[busy & (stalls > now)] if np.any(busy) else stalls[:0]
        pending = pending[np.isfinite(pending)]
        if pending.size:
            horizons.append(float(pending.min()) - now)
        if not horizons:
            return base_dt
        return max(base_dt, tolerance * min(horizons))

    def _next_issue_wait(self, now: float) -> Optional[float]:
        """Time until the earliest pending per-process operation issue.

        Only the per-process instants (``proc_next_issue``) count here;
        collective issues are control actions, which the driver bounds.
        Returns ``None`` when no process is waiting.
        """
        if not self._any_independent:
            return None
        state = self.state
        independent = (state.app_phase == APP_ACTIVE) & self._app_independent
        if not np.count_nonzero(independent):
            return None
        waiting = independent[state.proc_app]
        waiting &= state.outstanding_per_process() <= COMPLETION_EPSILON
        waiting &= (state.proc_current_op + 1) < state.proc_n_ops
        pending = state.proc_next_issue[waiting]
        pending = pending[pending > now]
        if not pending.size:
            return None
        return max(float(pending.min()) - now, 0.0)

    # ------------------------------------------------------------------ #
    # Trace sampling
    # ------------------------------------------------------------------ #

    def _sample(self, now: float) -> None:
        state = self.state
        recorder = self.recorder
        config = recorder.config
        if config.record_progress:
            completed = state.completed_bytes_per_app()
            for runtime in state.app_runtime:
                app = runtime.app
                total = app.total_bytes
                fraction = completed[app.index] / total if total > 0 else 0.0
                if runtime.finished:
                    fraction = 1.0
                if runtime.started:
                    recorder.record(f"progress.{app.name}", now, float(fraction), unit="fraction")
        if config.record_server_state:
            recorder.record(
                "server.buffer_fill.mean", now, float(np.mean(state.buffers.fill)), unit="bytes"
            )
            recorder.record(
                "server.buffer_occupancy.max",
                now,
                float(np.max(state.buffers.occupancy_fraction())) if state.n_servers else 0.0,
                unit="fraction",
            )
            recorder.record(
                "server.drain_rate.mean", now, float(np.mean(state.last_drain_rate)), unit="B/s"
            )
        if config.record_windows:
            for conn, series_name in state.traced_connections.items():
                recorder.record(series_name, now, float(state.windows.cwnd[conn]), unit="bytes")
            for runtime in state.app_runtime:
                app = runtime.app
                window = state.windows.cwnd[state.app_lanes(app)]
                if window.size:
                    recorder.record(
                        f"window.mean.{app.name}", now, float(np.mean(window)), unit="bytes"
                    )

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #

    def _build_result(self, end_time: float, n_steps: int, wall_time: float) -> RunResult:
        state = self.state
        apps = {}
        for runtime in state.app_runtime:
            app = runtime.app
            apps[app.name] = ApplicationResult(
                name=app.name,
                start_time=runtime.actual_start_time,
                end_time=runtime.end_time,
                bytes_written=runtime.issued_bytes,
                window_collapses=int(state.collapses_per_app[app.index]),
            )
        components = ComponentStats(
            client_nic_utilization=state.topology.max_client_utilization(),
            server_nic_utilization=state.topology.max_server_utilization(),
            server_utilization=state.deployment.utilizations(),
            device_utilization=state.deployment.device_utilizations(),
            buffer_pressure=state.buffers.pressure_fraction(),
            total_window_collapses=state.windows.total_collapses(),
        )
        return RunResult(
            scenario=self.scenario,
            applications=apps,
            components=components,
            recorder=self.recorder,
            simulated_time=end_time,
            n_steps=n_steps,
            wall_time=wall_time,
            label=self.scenario.label,
        )


def start_anchor(scenario: ScenarioConfig) -> float:
    """A run's clock before its first step: ``min(0, earliest start)``."""
    return min(0.0, min(app.start_time for app in scenario.applications))


def simulate_scenario(scenario: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Convenience wrapper: build an :class:`IOPathSimulator` and run it."""
    return IOPathSimulator(scenario, seed=seed).run()
