"""The I/O-path simulator: run loop and result assembly.

:class:`IOPathSimulator` glues the vectorized model to the discrete-event
engine:

* an event starts each application at its configured time,
* model steps advance the fluid model — on a fixed cadence under the
  default (``fixed``) stepping policy, driven by a loop that runs the
  engine's due events before each step, or as engine events at the adaptive
  bound computed by :meth:`repro.model.stepper.ModelStepper.next_bound`
  under the ``adaptive`` policy, which collapses quiescent intervals into a
  single jump,
* a periodic observation event samples traces,
* the run ends when every application has finished its I/O phase.

The module-level helper :func:`simulate_scenario` is the one-call entry point
used by the experiment framework:  ``result = simulate_scenario(scenario)``.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.errors import SimulationError
from repro.model.results import ApplicationResult, ComponentStats, RunResult
from repro.model.state import ModelState
from repro.model.stepper import ModelStepper
from repro.obs.telemetry import get_telemetry
from repro.perf.counters import StepProfiler
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecorder

__all__ = ["IOPathSimulator", "simulate_scenario"]


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
        self.stepper = ModelStepper(self.state)
        self._n_steps = 0
        self._step_size = scenario.control.resolve_step(scenario.estimate_duration())
        self._stepping = scenario.control.resolve_stepping()
        # Adaptive-driver state: end of the last executed step and the
        # currently pending step event (None when waiting for a control kick).
        self._last_step_end = 0.0
        self._step_event = None

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
        """Run the scenario to completion and return the result."""
        scenario = self.scenario
        state = self.state
        start_times = [app.start_time for app in scenario.applications]
        t0 = min(0.0, min(start_times))
        horizon = scenario.control.max_time
        sim = Simulator(start_time=t0, horizon=t0 + horizon * 2 + 1.0)

        # Application starts.
        for app in state.applications:
            sim.schedule(
                app.start_time,
                self._make_start_callback(app.index),
                priority=EventPriority.CONTROL,
                label=f"start.{app.name}",
            )

        # Model steps.
        dt = self._step_size

        if self._stepping.is_adaptive:
            # Adaptive time advance: each step schedules the next one at the
            # bound derived from the current rates; control-plane events
            # (application starts, operation issues) catch the model up over
            # the pending interval before they mutate state, so no step ever
            # spans a state change.  No step is scheduled until the first
            # application starts — the pre-start lead-in costs zero steps.
            self._last_step_end = t0
            self._step_event = None
            self.stepper.pressure_step_ref = dt
            self.stepper.on_control_change = self._adaptive_catch_up

        # Trace sampling.  When no periodic series category records, the
        # sampling event is not scheduled at all: a disabled trace must not
        # pay the per-sample aggregate reductions (or the event churn).
        if self.recorder.config.records_series:
            sample_period = scenario.control.trace.series_sample_period
            sim.schedule_periodic(
                sample_period,
                self._sample,
                start=t0 + sample_period,
                priority=EventPriority.OBSERVE,
                label="trace.sample",
                stop_when=lambda s: state.all_finished(),
            )

        # Telemetry is observational only: the profiler hangs off the
        # stepper's opt-in hook and publishing happens after sim.run, so the
        # event sequence, RNG draws and model arrays are untouched and run
        # output stays byte-identical with telemetry on or off.
        telemetry = get_telemetry()
        profiler = None
        if telemetry.enabled and self.stepper.profiler is None:
            profiler = StepProfiler()
            self.stepper.profiler = profiler

        wall_start = time.perf_counter()
        if self._stepping.is_adaptive:
            end_time = sim.run(until=t0 + horizon)
        else:
            end_time = self._run_fixed(sim, t0 + horizon)
        wall_time = time.perf_counter() - wall_start

        if profiler is not None:
            try:
                self._publish_telemetry(telemetry, sim, profiler, wall_time, end_time)
            finally:
                self.stepper.profiler = None

        if not state.all_finished():
            unfinished = [rt.app.name for rt in state.app_runtime if not rt.finished]
            raise SimulationError(
                f"simulation reached max_time={horizon}s with unfinished "
                f"applications {unfinished}; check the scenario configuration"
            )
        return self._build_result(end_time, wall_time)

    def _run_fixed(self, sim: Simulator, until: float) -> float:
        """Fixed cadence: one model step every ``dt``, first at ``t0 + dt``.

        Steps are not engine events.  Before each step the engine runs
        exactly what a NORMAL-priority step event at that instant would
        follow — every earlier event plus the CONTROL events of the instant
        — so the event order, including trace samples observing post-step
        state, is the one a periodic step event gives, without scheduling,
        queueing and firing an event per step.  Returns the end time.
        """
        dt = self._step_size
        state = self.state
        stepper = self.stepper
        now = sim.now
        while True:
            # The periodic arithmetic: each step dt after the last.
            now = now + dt
            if now > until:
                return sim.run(until=until)
            sim.run(until=now, until_priority=EventPriority.NORMAL)
            stepper.step(sim, dt)
            self._n_steps += 1
            if state.all_finished():
                return now

    # ------------------------------------------------------------------ #
    # Telemetry publication (post-run, hot loop untouched)
    # ------------------------------------------------------------------ #

    def _publish_telemetry(
        self,
        telemetry,
        sim: Simulator,
        profiler: StepProfiler,
        wall_time: float,
        end_time: float,
    ) -> None:
        """Fold the finished run into the ambient telemetry registry.

        Emits one ``simulation`` span covering the run's wall time with
        synthetic sequential ``phase`` child spans sized by each step phase's
        accumulated wall time (a flame view of where the stepping kernel
        spent its time, not a per-step timeline), and publishes engine/step
        counters.
        """
        label = self.scenario.label or "scenario"
        wall_us = wall_time * 1e6
        start_us = telemetry.now_us() - wall_us
        sim_span = telemetry.add_span(
            f"simulate:{label}",
            "simulation",
            start_us,
            wall_us,
            args={
                "label": label,
                "steps": self._n_steps,
                "stepping": self._stepping.mode.value,
                "simulated_time_s": round(end_time - sim.start_time, 9),
            },
        )
        report = profiler.report()
        cursor = start_us
        for phase, row in report.items():
            phase_us = row["ns"] / 1000.0
            telemetry.add_span(
                phase,
                "phase",
                cursor,
                phase_us,
                parent=sim_span,
                args={"calls": row["calls"],
                      "ns_per_call": round(row["ns_per_call"], 1),
                      "alloc_blocks": row["alloc_blocks"]},
            )
            cursor += phase_us
            telemetry.count(f"step.phase.{phase}.ns", row["ns"])
            telemetry.count(f"step.phase.{phase}.calls", row["calls"])
            telemetry.observe(f"step.phase.{phase}.ns_per_call", row["ns_per_call"])
        telemetry.count("sim.steps", self._n_steps)
        telemetry.observe("sim.wall_s", wall_time)
        for name, value in sim.stats().items():
            telemetry.count(name, value)
        telemetry.event(
            "simulation_done",
            label=label,
            steps=self._n_steps,
            wall_s=round(wall_time, 6),
            events_processed=sim.events_processed,
        )

    # ------------------------------------------------------------------ #
    # Callbacks
    # ------------------------------------------------------------------ #

    def _make_start_callback(self, app_index: int):
        def _start(sim: Simulator) -> None:
            self.stepper.start_application(sim, app_index)

        return _start

    # ------------------------------------------------------------------ #
    # Adaptive stepping driver
    # ------------------------------------------------------------------ #

    def _advance_to_now(self, sim: Simulator) -> bool:
        """Step the model over ``[last step end, now]``; True when the run
        finished (and was stopped) in the process."""
        dt = sim.now - self._last_step_end
        if dt > 0:
            self.stepper.step(sim, dt)
            self._n_steps += 1
            self._last_step_end = sim.now
        if self.state.all_finished():
            sim.stop("all applications finished")
            return True
        return False

    def _adaptive_tick(self, sim: Simulator) -> None:
        """Execute one adaptive step and schedule the next one."""
        self._step_event = None
        if not self._advance_to_now(sim):
            self._schedule_next_step(sim)

    def _adaptive_catch_up(self, sim: Simulator) -> None:
        """Advance the model over the pending interval up to ``sim.now``.

        Invoked by control-plane callbacks (application start, operation
        issue) *before* they mutate model state: the interval being caught up
        therefore never spans a state change, which is what makes a single
        large step over it exact.  The next step is re-anchored one base step
        after the control event.

        When a normal-cadence step (one base step or less) is already
        pending, nothing needs catching up: a control event landing inside a
        base step is exactly the granularity the fixed policy exhibits, and
        leaving the cadence untouched keeps the adaptive trajectory on the
        fixed one.
        """
        pending = self._step_event
        if (
            pending is not None
            and not pending.cancelled
            and pending.time - self._last_step_end <= self._step_size * (1.0 + 1e-12)
        ):
            return
        if not self._advance_to_now(sim):
            self._schedule_step_event(sim, sim.now + self._step_size)

    def _schedule_next_step(self, sim: Simulator) -> None:
        """Schedule the next step at the adaptive bound (or wait for a kick)."""
        policy = self._stepping
        bound = self.stepper.next_bound(sim.now, self._step_size, policy.tolerance)
        if policy.max_dt is not None:
            bound = min(bound, policy.max_dt)
        if not math.isfinite(bound):
            # Nothing intrinsic pending: the next state change can only come
            # from a scheduled control event, whose callback kicks us.
            return
        self._schedule_step_event(sim, sim.now + bound)

    def _schedule_step_event(self, sim: Simulator, at: float) -> None:
        """(Re)schedule the pending model-step event at time ``at``.

        A pending event is moved in place (:meth:`Simulator.reschedule`), so
        re-anchoring the step on every control change leaves no cancelled
        corpses in the event heap and heap compactions stay rare on adaptive
        runs.
        """
        at = max(at, sim.now)
        event = self._step_event
        if event is not None and not event.cancelled and event.heap_time is not None:
            if sim.horizon is not None and at > sim.horizon:
                event.cancel()
                self._step_event = None
                return
            sim.reschedule(event, at)
            return
        self._step_event = None
        if sim.horizon is not None and at > sim.horizon:
            return
        self._step_event = sim.schedule(
            at,
            self._adaptive_tick,
            priority=EventPriority.NORMAL,
            label="model.step",
        )

    def _sample(self, sim: Simulator) -> None:
        state = self.state
        recorder = self.recorder
        now = sim.now
        config = recorder.config
        if not config.records_series:  # pragma: no cover - run() never schedules this
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

    def _build_result(self, end_time: float, wall_time: float) -> RunResult:
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
            n_steps=self._n_steps,
            wall_time=wall_time,
            label=self.scenario.label,
        )


def simulate_scenario(scenario: ScenarioConfig, seed: Optional[int] = None) -> RunResult:
    """Convenience wrapper: build an :class:`IOPathSimulator` and run it."""
    return IOPathSimulator(scenario, seed=seed).run()
