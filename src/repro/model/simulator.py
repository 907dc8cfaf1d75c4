"""One simulation run: its state, its control plane and its result.

:class:`IOPathSimulator` is what the stepping kernel advances as a *member*:
it owns one scenario's state, trace recorder and random streams, and the
control plane that acts on them through a discrete-event engine:

* an event starts each application at its configured time,
* the completion phase of the kernel hands each finished operation back
  here, which schedules the next issue or marks the application finished,
* a periodic observation event samples traces,
* :meth:`IOPathSimulator.next_bound` derives the adaptive step bound from
  the current rates.

:meth:`IOPathSimulator.run` runs the scenario as a batch of one on the
kernel's one driver (:class:`repro.model.batch.BatchSimulator`), under
either stepping policy.  The module-level helper :func:`simulate_scenario`
is the one-call entry point used by the experiment framework:
``result = simulate_scenario(scenario)``.

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

from typing import Optional

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.errors import SimulationError
from repro.model.results import ApplicationResult, ComponentStats, RunResult
from repro.model.state import APP_ACTIVE, ModelState
from repro.model.stepper import COMPLETION_EPSILON
from repro.obs.telemetry import get_telemetry
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecorder

__all__ = ["IOPathSimulator", "simulate_scenario"]

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
                events_processed=batch.members[0].engine.events_processed,
            )
        return result

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #

    def schedule_control_plane(self, engine: Simulator, t0: float) -> None:
        """Schedule the application starts and trace sampling on ``engine``.

        When no periodic series category records, the sampling event is not
        scheduled at all: a disabled trace must not pay the per-sample
        aggregate reductions (or the event churn).
        """
        for app in self.state.applications:
            engine.schedule(
                app.start_time,
                self._make_start_callback(app.index),
                priority=EventPriority.CONTROL,
                label=f"start.{app.name}",
            )
        if self.recorder.config.records_series:
            sample_period = self.scenario.control.trace.series_sample_period
            engine.schedule_periodic(
                sample_period,
                self._sample,
                start=t0 + sample_period,
                priority=EventPriority.OBSERVE,
                label="trace.sample",
                stop_when=_finished_probe(self.state),
            )

    def _make_start_callback(self, app_index: int):
        def _start(sim: Simulator) -> None:
            self.start_application(sim, app_index)

        return _start

    def start_application(self, sim: Simulator, app_index: int) -> None:
        """Begin the I/O phase of one application (issue its first operation)."""
        state = self.state
        app = state.applications[app_index]
        runtime = state.app_runtime[app_index]
        if runtime.started:
            raise SimulationError(f"application {app.name!r} started twice")
        state.mark_started(app_index, sim.now)
        state.recorder.mark(sim.now, "phase", f"{app.name}.start")
        if app.spec.pattern.collective:
            state.issue_operation(app, 0)
        else:
            procs = state.app_proc_ids[app_index]
            state.issue_process_operations(app, procs, np.zeros(procs.shape[0], dtype=np.int64))
            state.proc_next_issue[procs] = sim.now

    def _complete_app(
        self,
        index: int,
        ready: Optional[np.ndarray],
        settled: Optional[np.ndarray],
        sim: Simulator,
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
            runtime.ops_completed = runtime.current_op + 1
            if runtime.ops_completed >= app.n_operations:
                self._finish_app(runtime, now)
                return
            state.mark_waiting(index)
            next_op = runtime.current_op + 1
            # ``now`` is the step instant; the engine's clock may lag it.
            sim.schedule(
                now + float(pattern.collective_overhead),
                self._make_issue_callback(index, next_op),
                priority=EventPriority.CONTROL,
                label=f"issue.{app.name}.op{next_op}",
            )
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

    def _make_issue_callback(self, app_index: int, op_index: int):
        def _issue(sim: Simulator) -> None:
            state = self.state
            app = state.applications[app_index]
            runtime = state.app_runtime[app_index]
            if runtime.finished:
                return
            state.issue_operation(app, op_index)
            state.recorder.mark(sim.now, "op", f"{app.name}.op{op_index}")

        return _issue

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

        Only the non-collective mode tracks issue instants as state
        (``proc_next_issue``); collective issues are engine events and are
        bounded by the driver.  Returns ``None`` when no process is waiting.
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

    def _sample(self, sim: Simulator) -> None:
        state = self.state
        recorder = self.recorder
        now = sim.now
        config = recorder.config
        if not config.records_series:  # pragma: no cover - never scheduled then
            return
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
                conns = state.app_connection_ids(app)
                if conns.size:
                    recorder.record(
                        f"window.mean.{app.name}",
                        now,
                        float(np.mean(state.windows.cwnd[conns])),
                        unit="bytes",
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


def _finished_probe(state: ModelState):
    def _finished(sim: Simulator) -> bool:
        return state.all_finished()

    return _finished


def simulate_scenario(scenario: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Convenience wrapper: build an :class:`IOPathSimulator` and run it."""
    return IOPathSimulator(scenario, seed=seed).run()
