"""Tests of the phase-aware stepping core and its adaptive time advance.

Two invariants anchor this file:

* ``fixed`` stepping is the *seed behaviour*: the goldens below were captured
  from the repository before the stepping core was refactored into phases, and
  the fixed policy must keep reproducing them bit for bit.
* ``adaptive`` stepping is an approximation with an explicit error budget: on
  every preset scenario its headline results must stay within the configured
  tolerance of the fixed trajectory, while quiescent-heavy scenarios must run
  in a fraction of the steps.
"""

import numpy as np
import pytest

from repro.config.control import (
    SteppingMode,
    SteppingPolicy,
    default_stepping_policy,
    set_default_stepping_policy,
    stepping_policy,
)
from repro.config.presets import make_scenario
from repro.config.scenario import SimulationControl
from repro.errors import ConfigurationError
from repro.model.simulator import IOPathSimulator, simulate_scenario

ADAPTIVE = SteppingPolicy.adaptive()

#: Captured from the seed implementation (monolithic fixed-step loop) before
#: the phase refactor: scenario kwargs -> exact per-application write times
#: and step count.  The fixed policy must reproduce these bit for bit.
SEED_GOLDENS = {
    "hdd-sync-on": (
        dict(device="hdd", sync_mode="sync-on"),
        {"A": 0.7328760000000007, "B": 0.7562160000000008},
        162,
    ),
    "ssd-sync-off": (
        dict(device="ssd", sync_mode="sync-off"),
        {"A": 0.36000000000000026, "B": 0.34800000000000025},
        180,
    ),
    "hdd-delayed": (
        dict(device="hdd", sync_mode="sync-on", delay=5.0),
        {"A": 0.35840000000000016, "B": 0.3544960000000348},
        747,
    ),
    "hdd-strided": (
        dict(device="hdd", sync_mode="sync-on", pattern="strided"),
        {"A": 9.35000399999991, "B": 9.35000399999991},
        2003,
    ),
}

#: Scenario knobs the tolerance property is checked across (one entry per
#: distinct stepping regime: contended, cached, delayed, strided, bypass).
PRESET_SCENARIOS = [
    dict(device="hdd", sync_mode="sync-on"),
    dict(device="ssd", sync_mode="sync-off"),
    dict(device="hdd", sync_mode="sync-on", delay=5.0),
    dict(device="hdd", sync_mode="sync-on", delay=-5.0),
    dict(device="hdd", sync_mode="sync-on", pattern="strided"),
    dict(device="hdd", sync_mode="null-aio"),
]


class TestSteppingPolicy:
    def test_fixed_is_the_default_everywhere(self):
        assert default_stepping_policy() == SteppingPolicy.fixed()
        assert SimulationControl().resolve_stepping() == SteppingPolicy.fixed()
        scenario = make_scenario("tiny")
        assert scenario.control.stepping is None
        assert not IOPathSimulator(scenario).stepping.is_adaptive

    def test_mode_coercion_and_validation(self):
        assert SteppingPolicy(mode="adaptive").mode is SteppingMode.ADAPTIVE
        with pytest.raises(ConfigurationError):
            SteppingPolicy(mode="sometimes")
        with pytest.raises(ConfigurationError):
            SteppingPolicy.adaptive(tolerance=0.0)
        with pytest.raises(ConfigurationError):
            SteppingPolicy.adaptive(tolerance=1.5)
        with pytest.raises(ConfigurationError):
            SteppingPolicy.adaptive(max_dt=-1.0)

    def test_dict_roundtrip(self):
        policy = SteppingPolicy.adaptive(tolerance=0.1, max_dt=2.0)
        assert SteppingPolicy.from_dict(policy.to_dict()) == policy
        assert SteppingPolicy.from_dict(SteppingPolicy.fixed().to_dict()).mode is (
            SteppingMode.FIXED
        )

    def test_context_manager_scopes_the_default(self):
        assert not default_stepping_policy().is_adaptive
        with stepping_policy(ADAPTIVE):
            assert default_stepping_policy().is_adaptive
            # A scenario with no pinned policy resolves to the scoped default.
            assert make_scenario("tiny").control.resolve_stepping().is_adaptive
        assert not default_stepping_policy().is_adaptive

    def test_context_manager_none_is_a_no_op(self):
        previous = set_default_stepping_policy(ADAPTIVE)
        try:
            with stepping_policy(None):
                assert default_stepping_policy().is_adaptive
            assert default_stepping_policy().is_adaptive
        finally:
            set_default_stepping_policy(previous)

    def test_scenario_with_stepping_pins_the_policy(self):
        scenario = make_scenario("tiny").with_stepping(ADAPTIVE)
        assert scenario.control.resolve_stepping().is_adaptive
        assert scenario.with_stepping(None).control.stepping is None


class TestFixedModeIsSeedBehavior:
    @pytest.mark.parametrize("name", sorted(SEED_GOLDENS))
    def test_byte_identical_to_seed(self, name):
        kwargs, write_times, n_steps = SEED_GOLDENS[name]
        result = simulate_scenario(make_scenario("tiny", **kwargs))
        for app, expected in write_times.items():
            got = result.applications[app].end_time - result.applications[app].start_time
            assert got == expected  # exact: no tolerance
        assert result.n_steps == n_steps

    def test_fixed_unaffected_by_adaptive_default(self):
        """A pinned fixed policy wins over an adaptive process default."""
        kwargs, write_times, n_steps = SEED_GOLDENS["hdd-delayed"]
        scenario = make_scenario("tiny", **kwargs).with_stepping(SteppingPolicy.fixed())
        with stepping_policy(ADAPTIVE):
            result = simulate_scenario(scenario)
        assert result.n_steps == n_steps
        app = result.applications["A"]
        assert app.end_time - app.start_time == write_times["A"]


class TestAdaptiveTolerance:
    @pytest.mark.parametrize("idx", range(len(PRESET_SCENARIOS)))
    def test_matches_fixed_within_tolerance(self, idx):
        """Property: adaptive write times track fixed ones within tolerance."""
        kwargs = PRESET_SCENARIOS[idx]
        fixed = simulate_scenario(make_scenario("tiny", **kwargs))
        policy = SteppingPolicy.adaptive(tolerance=0.05)
        adaptive = simulate_scenario(
            make_scenario("tiny", stepping=policy, **kwargs)
        )
        for name, app in fixed.applications.items():
            expected = app.end_time - app.start_time
            got = (
                adaptive.applications[name].end_time
                - adaptive.applications[name].start_time
            )
            assert got == pytest.approx(expected, rel=policy.tolerance)
        assert adaptive.n_steps <= fixed.n_steps

    def test_quiescent_lead_in_collapses(self):
        """A long dead interval costs O(1) steps instead of O(interval/dt)."""
        kwargs = dict(device="hdd", sync_mode="sync-on", delay=5.0)
        fixed = simulate_scenario(make_scenario("tiny", **kwargs))
        adaptive = simulate_scenario(
            make_scenario("tiny", stepping=ADAPTIVE, **kwargs)
        )
        assert adaptive.n_steps * 2 <= fixed.n_steps  # >= 2x fewer steps
        assert adaptive.simulated_time == pytest.approx(
            fixed.simulated_time, rel=0.05
        )

    def test_max_dt_caps_the_jump(self):
        kwargs = dict(device="hdd", sync_mode="sync-on", delay=5.0)
        capped = simulate_scenario(
            make_scenario(
                "tiny", stepping=SteppingPolicy.adaptive(max_dt=0.5), **kwargs
            )
        )
        uncapped = simulate_scenario(
            make_scenario("tiny", stepping=ADAPTIVE, **kwargs)
        )
        # A 0.5 s cap forces >= ~9 extra steps across the ~4.6 s dead window.
        assert capped.n_steps > uncapped.n_steps

    def test_component_stats_stay_comparable(self):
        """Pressure/utilization accounting is time-weighted under adaptive."""
        kwargs = dict(device="hdd", sync_mode="sync-on", delay=5.0)
        fixed = simulate_scenario(make_scenario("tiny", **kwargs))
        adaptive = simulate_scenario(
            make_scenario("tiny", stepping=ADAPTIVE, **kwargs)
        )
        assert np.max(
            np.abs(
                np.asarray(adaptive.components.buffer_pressure)
                - np.asarray(fixed.components.buffer_pressure)
            )
        ) < 0.1
        assert adaptive.components.server_nic_utilization == pytest.approx(
            fixed.components.server_nic_utilization, rel=0.1
        )


class TestNextBound:
    def test_quiescent_before_start_is_unbounded(self):
        scenario = make_scenario("tiny")
        sim = IOPathSimulator(scenario)
        bound = sim.next_bound(0.0, sim.step_size, 0.05)
        assert bound == float("inf")

    def test_active_bound_is_at_least_the_base_step(self):
        scenario = make_scenario("tiny", stepping=ADAPTIVE)
        sim = IOPathSimulator(scenario)
        result = sim.run()
        assert result.n_steps > 0
        # After the run everything drained; re-query the bound: quiescent.
        assert sim.next_bound(result.simulated_time, sim.step_size, 0.05) == (
            float("inf")
        )


class TestCampaignThreading:
    def test_run_experiment_task_applies_stepping(self):
        """The worker-side task honors the serialized policy and restores
        the process default afterwards."""
        from repro.analysis.campaign import run_experiment_task

        payload = {
            "experiment_id": "table1",
            "scale": "tiny",
            "quick": True,
            "stepping": ADAPTIVE.to_dict(),
        }
        before = default_stepping_policy()
        result = run_experiment_task(payload, seed=None)
        assert default_stepping_policy() == before
        assert result["experiment_id"] == "table1"

    def test_fingerprints_separate_policies(self):
        from repro.runner.cache import fingerprint

        fp_default = fingerprint("figure5", "tiny", True)
        fp_adaptive = fingerprint(
            "figure5", "tiny", True, overrides={"stepping": ADAPTIVE.to_dict()}
        )
        assert fp_default != fp_adaptive
