"""Tests for the deterministic chaos-injection harness."""

import json
import os

import pytest

from repro.errors import ReproError
from repro.runner.chaos import (
    CHAOS_ENV_VAR,
    ChaosError,
    FaultPlan,
    FaultSpec,
    fault_plan,
    get_fault_plan,
    set_fault_plan,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Every test starts and ends with chaos fully off."""
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    set_fault_plan(None)
    yield
    set_fault_plan(None)


class TestFaultSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ReproError, match="unknown fault mode"):
            FaultSpec(match="x", mode="explode")

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ReproError, match="probability"):
            FaultSpec(match="x", probability=1.5)

    def test_round_trips_through_dict(self):
        spec = FaultSpec(match="pair:", mode="stall", times=3, delay_s=0.5,
                         probability=0.25)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlanMatching:
    def test_substring_match(self):
        plan = FaultPlan.of(FaultSpec(match="pair:"))
        assert plan.spec_for("pair:a+b", 0) is not None
        assert plan.spec_for("alone:a", 0) is None

    def test_empty_match_hits_everything(self):
        plan = FaultPlan.of(FaultSpec(match=""))
        assert plan.spec_for("anything", 0) is not None

    def test_times_bounds_attempts(self):
        plan = FaultPlan.of(FaultSpec(match="t", times=2))
        assert plan.spec_for("t1", 0) is not None
        assert plan.spec_for("t1", 1) is not None
        assert plan.spec_for("t1", 2) is None

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.of(
            FaultSpec(match="t1", mode="slow", delay_s=0.0),
            FaultSpec(match="t", mode="exception"),
        )
        assert plan.spec_for("t1", 0).mode == "slow"
        assert plan.spec_for("t2", 0).mode == "exception"

    def test_probability_coin_is_deterministic(self):
        plan = FaultPlan.of(FaultSpec(match="", probability=0.5), seed=7)
        decisions = [
            plan.spec_for(f"task{i}", 0) is not None for i in range(64)
        ]
        again = [
            plan.spec_for(f"task{i}", 0) is not None for i in range(64)
        ]
        assert decisions == again
        # A fair coin over 64 draws injects somewhere strictly between the
        # extremes; all-or-nothing would mean the coin ignores the task id.
        assert 0 < sum(decisions) < 64

    def test_seed_changes_the_coin(self):
        a = FaultPlan.of(FaultSpec(match="", probability=0.5), seed=1)
        b = FaultPlan.of(FaultSpec(match="", probability=0.5), seed=2)
        picks_a = [a.spec_for(f"task{i}", 0) is not None for i in range(64)]
        picks_b = [b.spec_for(f"task{i}", 0) is not None for i in range(64)]
        assert picks_a != picks_b


class TestInjection:
    def test_exception_mode_raises_chaos_error(self):
        plan = FaultPlan.of(FaultSpec(match="t"))
        with pytest.raises(ChaosError, match="injected exception"):
            plan.maybe_inject("t1", 0)

    def test_no_match_is_a_no_op(self):
        plan = FaultPlan.of(FaultSpec(match="zzz"))
        plan.maybe_inject("t1", 0)  # does not raise

    def test_crash_demoted_to_exception_in_parent(self):
        plan = FaultPlan.of(FaultSpec(match="t", mode="crash"))
        with pytest.raises(ChaosError, match="demoted"):
            plan.maybe_inject("t1", 0)

    def test_slow_mode_returns_after_sleep(self):
        plan = FaultPlan.of(FaultSpec(match="t", mode="slow", delay_s=0.0))
        plan.maybe_inject("t1", 0)  # sleeps 0s, then proceeds

    def test_stall_mode_raises_if_no_deadline_interrupts(self):
        plan = FaultPlan.of(FaultSpec(match="t", mode="stall", delay_s=0.0))
        with pytest.raises(ChaosError, match="stall"):
            plan.maybe_inject("t1", 0)


class TestActivation:
    def test_round_trips_through_json(self):
        plan = FaultPlan.of(
            FaultSpec(match="a", mode="crash"),
            FaultSpec(match="b", mode="stall", delay_s=1.5),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ReproError, match="unparseable"):
            FaultPlan.from_json("{not json")
        with pytest.raises(ReproError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_env_transport_inline_json(self, monkeypatch):
        plan = FaultPlan.of(FaultSpec(match="x"), seed=3)
        monkeypatch.setenv(CHAOS_ENV_VAR, plan.to_json())
        assert get_fault_plan() == plan

    def test_env_transport_file_path(self, tmp_path, monkeypatch):
        plan = FaultPlan.of(FaultSpec(match="y", mode="slow", delay_s=0.1))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv(CHAOS_ENV_VAR, str(path))
        assert get_fault_plan() == plan

    def test_env_unreadable_file_path_raises_repro_error(
        self, tmp_path, monkeypatch
    ):
        missing = tmp_path / "no_such_plan.json"
        monkeypatch.setenv(CHAOS_ENV_VAR, str(missing))
        with pytest.raises(ReproError, match=CHAOS_ENV_VAR):
            get_fault_plan()

    def test_override_wins_over_env(self, monkeypatch):
        env_plan = FaultPlan.of(FaultSpec(match="env"))
        override = FaultPlan.of(FaultSpec(match="override"))
        monkeypatch.setenv(CHAOS_ENV_VAR, env_plan.to_json())
        set_fault_plan(override)
        assert get_fault_plan() == override

    def test_absent_env_means_no_plan(self):
        assert get_fault_plan() is None

    def test_context_manager_restores_prior_state(self):
        with fault_plan(FaultPlan.of(FaultSpec(match="a")), env=True):
            assert get_fault_plan() is not None
            exported = json.loads(os.environ[CHAOS_ENV_VAR])
            assert exported["faults"][0]["match"] == "a"
        assert get_fault_plan() is None
        assert CHAOS_ENV_VAR not in os.environ
