"""The per-tick rule of an adaptive member on the lockstep loop.

An adaptive member of a bucket picks its own step end every tick
(:mod:`repro.model.batch`): it runs the actions that precede a step at its
pending step end, and a CONTROL action (an application start or a
collective issue) that would land inside a longer-than-base step ends the
step at its own time instead (a catch-up),
after which the member takes one base step.  Its clock is assigned its step
end, and its buffer-pressure statistics weigh each step ``dt / base`` on its
own servers, so a fixed member beside it still counts exactly one per step.
"""

import unittest.mock as mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.control import SteppingPolicy
from repro.config.presets import make_scenario
from repro.model.batch import BatchedStepper, BatchSimulator
from repro.model.simulator import CONTROL, IOPathSimulator, simulate_scenario

#: Relative slack of the "longer than a base step" test in the driver.
_LONG = 1.0 + 1e-12


def _traced_run(members):
    """Run ``members`` as one batch.

    Returns the batch, its results, every member's steps as ``(start, end)``
    pairs of its own clock, and the times of the CONTROL events each
    member took.
    """
    batch = BatchSimulator(members)
    steps = [[] for _ in batch.members]
    controls = [[] for _ in batch.members]
    position = {id(m): k for k, m in enumerate(batch.members)}
    sim_of = {id(m.sim): k for k, m in enumerate(batch.members)}
    clock = {k: m.t0 for k, m in enumerate(batch.members)}
    step_batch = BatchedStepper.step_batch
    run_action = IOPathSimulator.run_action

    def recording_step_batch(self, now):
        for member in self._members:
            k = position[id(member)]
            end = float(now[member.index])
            steps[k].append((clock[k], end))
            clock[k] = end
        return step_batch(self, now)

    def recording_run_action(self, action):
        if action[1] == CONTROL:
            controls[sim_of[id(self)]].append(action[0])
        return run_action(self, action)

    with mock.patch.object(BatchedStepper, "step_batch", recording_step_batch), \
            mock.patch.object(IOPathSimulator, "run_action", recording_run_action):
        results = batch.run()
    return batch, results, steps, controls


def _mixed_pair(delay):
    """A fixed member and its adaptive twin, in that order."""
    return [
        make_scenario("tiny", delay=delay),
        make_scenario("tiny", delay=delay, stepping=SteppingPolicy.adaptive()),
    ]


class TestStepEnds:
    def test_catch_up_ends_the_step_at_the_start(self):
        """The second application starts 5 s in, long after the first
        finished: one step collapses the quiet gap and ends exactly there."""
        batch, _, steps, _ = _traced_run(_mixed_pair(5.0))
        base = batch.members[1].sim.step_size
        ends = [end for _, end in steps[1]]
        assert 5.0 in ends
        start, end = steps[1][ends.index(5.0)]
        assert end - start > 100 * base

    def test_step_after_a_catch_up_is_one_base_step(self):
        batch, _, steps, _ = _traced_run(_mixed_pair(5.0))
        base = batch.members[1].sim.step_size
        k = [end for _, end in steps[1]].index(5.0)
        start, end = steps[1][k + 1]
        assert start == 5.0
        assert end == 5.0 + base

    def test_first_step_is_a_base_step(self):
        """The first control action sits at the start anchor, so it runs at
        once and anchors the first step a base step after it."""
        batch, _, steps, _ = _traced_run(_mixed_pair(-2.0))
        member = batch.members[1]
        assert steps[1][0] == (member.t0, member.t0 + member.sim.step_size)

    @given(delay=st.floats(min_value=-3.0, max_value=6.0, allow_nan=False))
    @settings(max_examples=5, deadline=None)
    def test_no_long_step_spans_a_control_event(self, delay):
        """Every control action of an adaptive member lands on the end of a
        longer-than-base step or inside a base-length one."""
        batch, _, steps, controls = _traced_run(_mixed_pair(delay))
        base = batch.members[1].sim.step_size
        times = np.array(controls[1])
        assert len(times) > 0
        for start, end in steps[1]:
            assert end > start
            if end - start > base * _LONG:
                assert not ((times > start) & (times < end)).any()

    def test_fixed_member_keeps_its_periodic_clock(self):
        """Beside an adaptive member, a fixed member still advances by its
        resolved step with a periodic step event's arithmetic."""
        batch, _, steps, _ = _traced_run(_mixed_pair(5.0))
        member = batch.members[0]
        clock = member.t0
        for start, end in steps[0]:
            assert start == clock
            clock += member.sim.step_size
            assert end == clock

    def test_max_dt_caps_every_step(self):
        max_dt = 0.5
        adaptive = make_scenario(
            "tiny", delay=5.0, stepping=SteppingPolicy.adaptive(max_dt=max_dt)
        )
        batch, results, steps, _ = _traced_run([make_scenario("tiny"), adaptive])
        base = batch.members[1].sim.step_size
        assert max(end - start for start, end in steps[1]) <= max(max_dt, base) * _LONG
        alone = simulate_scenario(adaptive)
        assert results[1].n_steps == alone.n_steps
        assert results[1].simulated_time == alone.simulated_time


class TestPressureLanes:
    def test_fixed_member_weighs_each_step_one(self):
        batch, results, _, _ = _traced_run(_mixed_pair(5.0))
        buffers = batch.members[0].sim.state.buffers
        steps = float(results[0].n_steps)
        assert buffers.observed_steps.tolist() == [steps] * buffers.n_servers

    def test_adaptive_member_weighs_its_base_steps(self):
        """Its steps weigh ``dt / base``: together, its elapsed time in base
        steps, more than the steps it took."""
        batch, results, steps, _ = _traced_run(_mixed_pair(5.0))
        member = batch.members[1]
        elapsed = (steps[1][-1][1] - member.t0) / member.sim.step_size
        observed = member.sim.state.buffers.observed_steps
        assert np.allclose(observed, elapsed, rtol=1e-9)
        assert (observed > results[1].n_steps).all()

    def test_statistics_match_each_run_alone(self):
        """The adaptive member retires hundreds of ticks before the fixed
        one, which survives a compaction: each keeps its own pressure
        counts."""
        members = _mixed_pair(5.0)
        batch, results, _, _ = _traced_run(members)
        assert results[1].n_steps < results[0].n_steps
        for member, scenario in zip(batch.members, members):
            alone = IOPathSimulator(scenario)
            alone.run()
            mine, theirs = member.sim.state.buffers, alone.state.buffers
            assert mine.observed_steps.tolist() == theirs.observed_steps.tolist()
            assert mine.full_steps.tolist() == theirs.full_steps.tolist()
