"""Tests of the preallocated stepping workspace and its ownership contract.

The contract (see the module docstring of :mod:`repro.model.stepper`): every
named workspace slot is written only by its owning phase; later phases of the
same step read it at most.  The test executes one step phase by phase on a
live contended model, snapshotting each phase's owned slots as it completes
and diffing them after every subsequent phase.
"""

import dataclasses

import numpy as np
import pytest

from repro.config.presets import make_scenario
from repro.model.batch import BatchSimulator
from repro.model.stepper import ModelStepper, StepWorkspace


def step(batch):
    """Advance the member clocks by hand and step the kernel once (no
    control actions run)."""
    np.add(batch.clock, batch.steps, out=batch.clock)
    batch.stepper.step_batch(batch.clock)


def contended_batch(n_warmup_steps: int = 40, scale: str = "tiny"):
    """A contended simulation alone on the kernel (a batch of one), both
    applications started and advanced into the active phase."""
    scenario = make_scenario(scale, device="hdd", sync_mode="sync-on")
    batch = BatchSimulator([scenario])
    member = batch.members[0]
    for index in range(len(member.sim.state.applications)):
        member.sim.start_application(index, member.t0)
    for _ in range(n_warmup_steps):
        step(batch)
    return batch


class TestOwnershipContract:
    def test_phase_slot_names_exist(self):
        workspace = StepWorkspace(4, 2, 2)
        for phase, slots in StepWorkspace.PHASE_SLOTS.items():
            for slot in slots:
                assert hasattr(workspace, slot), (phase, slot)
        for slot in StepWorkspace.SCRATCH_SLOTS:
            assert hasattr(workspace, slot)
            assert slot.startswith("tmp_")

    def test_phases_cover_step_order(self):
        assert tuple(StepWorkspace.PHASE_SLOTS) == ModelStepper.PHASES[:-1]

    def test_no_phase_writes_a_slot_owned_by_an_earlier_phase(self):
        batch = contended_batch()
        stepper = batch.stepper
        workspace = stepper.workspace
        state = stepper.state
        assert state.buffers.fill.sum() > 0, "warmup did not reach contention"

        np.add(batch.clock, batch.steps, out=batch.clock)
        ctx = stepper._ctx
        ctx.now = batch.clock
        batch.clock.take(state.conn_member, out=ctx.now_conn)
        phase_calls = {
            "workload_mix": lambda: stepper._phase_workload_mix(ctx),
            "drain": lambda: stepper._phase_drain(ctx),
            "offer": lambda: stepper._phase_offer(ctx),
            "admission": lambda: stepper._phase_admission(ctx),
            "window_dynamics": lambda: stepper._phase_window_dynamics(ctx),
            "accounting": lambda: stepper._phase_accounting(ctx),
            "completion": lambda: stepper._phase_completion(ctx),
        }
        snapshots = {}
        completed = []
        for phase in ModelStepper.PHASES:
            phase_calls[phase]()
            for earlier in completed:
                for slot, snap in snapshots[earlier].items():
                    current = getattr(workspace, slot)
                    assert np.array_equal(current, snap), (
                        f"phase {phase!r} overwrote slot {slot!r} owned by "
                        f"phase {earlier!r}"
                    )
            if phase != "completion":
                snapshots[phase] = {
                    slot: array.copy()
                    for slot, array in workspace.owned_slots(phase).items()
                }
                completed.append(phase)

    def test_context_fields_alias_workspace_slots(self):
        stepper = contended_batch(n_warmup_steps=5).stepper
        workspace = stepper.workspace
        ctx = stepper._ctx
        assert ctx.busy is workspace.busy
        assert ctx.n_streams is workspace.n_streams
        assert ctx.avg_frag is workspace.avg_frag
        assert ctx.drain_rate is workspace.drain_rate
        assert ctx.rtt_eff is workspace.rtt_eff
        assert ctx.desired is workspace.desired
        assert ctx.loss_prone is workspace.loss_prone


class TestAllocationFlatness:
    @pytest.mark.parametrize("scale", ["tiny", "reduced"])
    def test_steady_state_steps_do_not_grow_live_blocks(self, scale):
        """The workspace kernel must not accumulate live allocations.

        ``sys.getallocatedblocks`` counts live CPython blocks: per-step
        temporaries that are freed within the step net out to ~zero.  Trace
        marks are disabled so the recorder's (intentional) growth does not
        mask a kernel leak.
        """
        import sys

        batch = contended_batch(scale=scale)
        recorder = batch.members[0].sim.recorder
        recorder.config = dataclasses.replace(recorder.config, record_marks=False)
        for _ in range(10):  # settle caches/interned keys
            step(batch)
        before = sys.getallocatedblocks()
        n_steps = 50
        for _ in range(n_steps):
            step(batch)
        grown = sys.getallocatedblocks() - before
        assert grown < 2 * n_steps, (
            f"stepping grew {grown} live blocks over {n_steps} steps; "
            "the kernel should be allocation-flat in steady state"
        )

    def test_dt_lanes_carry_each_members_step(self):
        """Members with different steps: every lane holds its member's step,
        and the dt-scaled capacities are the per-lane products."""
        alone = make_scenario("tiny", device="hdd", sync_mode="sync-on")
        scenarios = [alone.with_delay(0.0), alone.with_delay(2.0)]
        batch = BatchSimulator(scenarios)
        stepper = batch.stepper
        ctx = stepper._ctx
        steps = [member.sim.step_size for member in batch.members]
        assert steps[0] != steps[1]
        assert batch.steps.tolist() == ctx.dt.tolist() == steps
        for member in batch.members:
            step_size = steps[member.index]
            assert (ctx.dt_conn[member.conn_sl] == step_size).all()
            assert (ctx.dt_server[member.srv_sl] == step_size).all()
            assert (ctx.dt_node[member.node_sl] == step_size).all()
            assert np.array_equal(
                stepper._node_caps_dt[member.node_sl],
                stepper._node_caps[member.node_sl] * step_size,
            )
            assert np.array_equal(
                stepper._server_nic_dt[member.srv_sl],
                stepper._server_nic[member.srv_sl] * step_size,
            )


class TestProfilerHook:
    def test_profiler_collects_every_phase(self):
        from repro.perf.counters import StepProfiler

        batch = contended_batch(n_warmup_steps=2)
        profiler = StepProfiler()
        batch.stepper.profiler = profiler
        for _ in range(3):
            step(batch)
        batch.stepper.profiler = None
        report = profiler.report()
        assert set(report) == set(ModelStepper.PHASES)
        for phase, stats in report.items():
            assert stats["calls"] == 3, phase
            assert stats["ns"] > 0, phase

    def test_profiled_and_plain_steps_agree(self):
        """Attaching the profiler must not change the simulation."""
        from repro.perf.counters import StepProfiler

        results = []
        for profiled in (False, True):
            batch = contended_batch(n_warmup_steps=0)
            if profiled:
                batch.stepper.profiler = StepProfiler()
            for _ in range(30):
                step(batch)
            results.append(
                (
                    batch.state.send_remaining.copy(),
                    batch.state.windows.cwnd.copy(),
                    batch.state.buffers.fill.copy(),
                )
            )
        for plain, instrumented in zip(*results):
            assert np.array_equal(plain, instrumented)


class TestTraceSamplingSkip:
    def test_records_series_property(self):
        from repro.sim.tracing import TraceConfig

        assert TraceConfig().records_series
        assert TraceConfig.full().records_series
        assert not TraceConfig.minimal().records_series

    def test_disabled_trace_schedules_no_sampling(self):
        """With every series category off, the sampling event is never
        scheduled — the run executes fewer events but simulates identically."""
        from repro.model.simulator import simulate_scenario
        from repro.sim.tracing import TraceConfig

        default = simulate_scenario(
            make_scenario("tiny", device="hdd", sync_mode="sync-on")
        )
        minimal = simulate_scenario(
            make_scenario(
                "tiny", device="hdd", sync_mode="sync-on",
                trace=TraceConfig.minimal(),
            )
        )
        assert minimal.recorder.series_names() == []
        assert default.recorder.series_names() != []
        assert minimal.n_steps == default.n_steps
        for name, app in default.applications.items():
            assert minimal.applications[name].end_time == app.end_time


class TestCompletionVectorization:
    @pytest.mark.parametrize("archetype", ["analytics", "smallfile"])
    def test_non_collective_archetypes_still_complete(self, archetype):
        from repro.model.simulator import simulate_scenario
        from repro.scenarios.spec import build_scenario

        scenario = build_scenario([archetype], "tiny").scenario
        result = simulate_scenario(scenario)
        for app in result.applications.values():
            assert np.isfinite(app.end_time)
