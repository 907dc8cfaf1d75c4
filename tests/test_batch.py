"""Batched-kernel equivalence, bucketing properties, and telemetry neutrality.

The stepping kernel (:mod:`repro.model.batch`) promises *bitwise* equality
between a member of a batch and its run alone: a B=1 batch reproduces every
stored fixed-step golden fingerprint, and every member of a B>1 batch
reproduces the fingerprint of running it alone — also when the members'
resolved steps, start anchors and horizons differ (each steps on its own
clock).  A run alone is itself a batch of one on the same driver.  The
bucketing front end must partition any scenario list (each scenario in
exactly one bucket or the fallback), group only same-shape scenarios, give a
scenario without a partner a width-1 bucket, and run adaptive scenarios
alone.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.control import SteppingMode, SteppingPolicy
from repro.config.presets import make_scenario
from repro.errors import SimulationError
from repro.model.batch import (
    BatchedStepper,
    BatchSimulator,
    _shape_of,
    plan_buckets,
    simulate_many,
)
from repro.model.simulator import IOPathSimulator, simulate_scenario
from repro.model.stepper import StepWorkspace
from repro.obs.telemetry import telemetry_session
from repro.scenarios.archetypes import archetype_names
from repro.scenarios.spec import ScenarioSpec, build_scenario

from tests._golden_utils import (
    ADAPTIVE_PREFIX,
    golden_cases,
    load_goldens,
    metric_fingerprint,
)

ARCHETYPES = archetype_names()

#: Archetypes whose tiny alone-scenarios share one deployment shape *and*
#: one resolved step (they bucket together).
SAME_SHAPE = ("smallfile", "randomread", "staggered", "incast")


def _alone_scenario(archetype):
    return build_scenario([archetype], "tiny").scenario


# ---------------------------------------------------------------------- #
# Golden equivalence at B=1
# ---------------------------------------------------------------------- #


class TestGoldenEquivalenceB1:
    """A single-member batch reproduces every fixed-step golden."""

    @pytest.mark.parametrize("name", sorted(
        name for name in golden_cases() if not name.startswith(ADAPTIVE_PREFIX)
    ))
    def test_b1_matches_golden(self, name):
        factory = golden_cases()[name]
        stored = load_goldens()[name]
        results = BatchSimulator([factory()]).run()
        digest, payload = metric_fingerprint(results[0])
        assert digest == stored["fingerprint"], (
            f"batched B=1 fingerprint of {name} diverged from the golden"
        )


# ---------------------------------------------------------------------- #
# A run alone is a batch of one
# ---------------------------------------------------------------------- #


class TestOneKernel:
    def _count_calls(self, monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counting(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(cls, name, counting)
        return calls

    @pytest.mark.parametrize("stepping", ["fixed", "adaptive"])
    def test_run_alone_steps_the_batch_kernel_with_one_member(
        self, monkeypatch, stepping
    ):
        ticks = self._count_calls(monkeypatch, BatchedStepper, "step_batch")
        scenario = build_scenario(
            ["checkpoint"], "tiny", stepping=SteppingPolicy(mode=stepping)
        ).scenario
        result = simulate_scenario(scenario)
        assert len(ticks) == result.n_steps > 0
        assert {len(stepper._members) for stepper in ticks} == {1}

    @pytest.mark.parametrize("width", [1, 2])
    def test_a_run_builds_one_workspace(self, monkeypatch, width):
        built = self._count_calls(monkeypatch, StepWorkspace, "__init__")
        scenarios = [_alone_scenario("checkpoint")] * width
        if width == 1:
            simulate_scenario(scenarios[0])
        else:
            BatchSimulator(scenarios).run()
        assert len(built) == 1


# ---------------------------------------------------------------------- #
# B>1 equivalence with running each member alone
# ---------------------------------------------------------------------- #


class TestBatchVsAlone:
    def test_mixed_bucket_matches_alone(self):
        scenarios = [_alone_scenario(a) for a in SAME_SHAPE]
        buckets, fallback = plan_buckets(scenarios)
        assert len(buckets) == 1 and not fallback
        assert sorted(buckets[0].indices) == [0, 1, 2, 3]
        batched = simulate_many(scenarios)
        for archetype, scenario, result in zip(SAME_SHAPE, scenarios, batched):
            alone = simulate_scenario(scenario)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0], (
                f"batched result of {archetype} diverged from its alone run"
            )

    def test_duplicate_members_match_alone(self):
        scenarios = [_alone_scenario("checkpoint") for _ in range(4)]
        results = BatchSimulator(scenarios).run()
        alone_digest = metric_fingerprint(simulate_scenario(scenarios[0]))[0]
        digests = {metric_fingerprint(r)[0] for r in results}
        assert digests == {alone_digest}

    def test_results_come_back_in_input_order(self):
        # checkpoint/streaming share a shape; analytics gets its own bucket.
        names = ("checkpoint", "analytics", "streaming")
        scenarios = [_alone_scenario(a) for a in names]
        results = simulate_many(scenarios)
        for name, result in zip(names, results):
            assert name in result.scenario.applications[0].name

    def test_fingerprints_stable_across_paths(self):
        """The two execution paths yield byte-identical result payloads, so
        cached values keyed by the task fingerprint are interchangeable."""
        scenario = _alone_scenario("smallfile")
        alone = metric_fingerprint(simulate_scenario(scenario))
        batched = metric_fingerprint(
            simulate_many([scenario, _alone_scenario("randomread")])[0]
        )
        assert alone[0] == batched[0]
        assert alone[1] == batched[1]


# ---------------------------------------------------------------------- #
# Mixed clocks: each member has its own step, start anchor and horizon
# ---------------------------------------------------------------------- #


def _sweep_points(deltas):
    """The points of a tiny Δ-sweep: its delay moves the resolved step and,
    when negative, the start anchor."""
    scenario = make_scenario("tiny")
    return [scenario.with_delay(delta) for delta in deltas]


def _with_max_time(scenario, factor):
    control = dataclasses.replace(
        scenario.control, max_time=scenario.control.max_time * factor
    )
    return dataclasses.replace(scenario, control=control)


def _assert_each_matches_alone(members, results):
    for member, result in zip(members, results):
        alone = simulate_scenario(member)
        assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0], (
            f"member {member.label!r} diverged from its alone run"
        )


class TestMixedClocks:
    def test_sweep_bucket_matches_alone(self):
        points = _sweep_points([-0.3, 0.0, 0.2])
        members = points + [_with_max_time(points[1], 3.0)]
        batch = BatchSimulator(members)
        assert len(set(batch.steps.tolist())) > 1
        assert len({m.t0 for m in batch.members}) > 1
        assert len({m.until for m in batch.members}) > 2
        _assert_each_matches_alone(members, batch.run())

    @given(
        deltas=st.lists(
            st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
            min_size=1, max_size=3,
        ),
        names=st.lists(st.sampled_from(ARCHETYPES), min_size=1, max_size=2),
    )
    @settings(max_examples=6, deadline=None)
    def test_mixed_clocks_match_alone(self, deltas, names):
        members = _sweep_points(deltas) + [_alone_scenario(a) for a in names]
        _assert_each_matches_alone(members, BatchSimulator(members).run())

    def test_seed_override_holds_in_a_bucket(self):
        points = _sweep_points([-0.2, 0.1])
        results = BatchSimulator([IOPathSimulator(p, seed=11) for p in points]).run()
        for point, result in zip(points, results):
            alone = simulate_scenario(point, seed=11)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0]

    @pytest.mark.parametrize("other", [
        make_scenario("tiny", device="ssd"),
        make_scenario("tiny", network="1g"),
    ], ids=["filesystem", "platform"])
    def test_deployment_mismatch_raises(self, other):
        with pytest.raises(SimulationError, match="platform/filesystem"):
            BatchSimulator([make_scenario("tiny"), other])

    def test_member_wall_time_is_its_own(self):
        """A member's wall time runs from the start of the run to the step it
        finished on, not to the end of the bucket."""
        short, long_ = make_scenario("tiny"), _alone_scenario("smallfile")
        results = BatchSimulator([short, long_]).run()
        assert results[0].n_steps < results[1].n_steps
        assert 0.0 < results[0].wall_time < results[1].wall_time


# ---------------------------------------------------------------------- #
# Bucketing properties
# ---------------------------------------------------------------------- #


class TestBucketing:
    @given(names=st.lists(st.sampled_from(ARCHETYPES), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_partition(self, names):
        """Every fixed-step scenario lands in exactly one bucket, and bucket
        members share a deployment shape."""
        scenarios = [_alone_scenario(a) for a in names]
        buckets, fallback = plan_buckets(scenarios)
        assert not fallback
        seen = sorted(i for b in buckets for i in b.indices)
        assert seen == list(range(len(scenarios)))
        for bucket in buckets:
            assert bucket.indices
            shapes = {_shape_of(scenarios[i]) for i in bucket.indices}
            assert shapes == {bucket.shape}

    def test_ragged_specs_bucket_together(self):
        scenario = _alone_scenario("checkpoint")
        app = scenario.applications[0]
        ragged = dataclasses.replace(
            scenario,
            applications=(dataclasses.replace(app, target_servers=(0, 1)),),
        )
        assert _shape_of(ragged) is not None
        buckets, fallback = plan_buckets([ragged, ragged])
        assert not fallback
        assert [b.indices for b in buckets] == [[0, 1]]

    def test_mixed_width_specs_share_a_bucket(self):
        """Different connection counts / group sizes no longer split buckets
        as long as the lockstep cadence and platform/filesystem match."""
        scenario = _alone_scenario("checkpoint")
        app = scenario.applications[0]
        ragged = dataclasses.replace(
            scenario,
            applications=(dataclasses.replace(app, target_servers=(0, 1)),),
        )
        buckets, fallback = plan_buckets([scenario, ragged])
        assert not fallback
        assert [b.indices for b in buckets] == [[0, 1]]

    def test_adaptive_stepping_falls_back(self):
        policy = SteppingPolicy(mode=SteppingMode.ADAPTIVE)
        scenario = build_scenario(["checkpoint"], "tiny", stepping=policy).scenario
        buckets, fallback = plan_buckets([scenario, scenario])
        assert not buckets
        assert {reason for _, reason in fallback} == {"adaptive"}

    def test_singletons_form_width_one_buckets(self):
        # analytics has a different shape than checkpoint: no pairing.
        scenarios = [_alone_scenario("checkpoint"), _alone_scenario("analytics")]
        buckets, fallback = plan_buckets(scenarios)
        assert not fallback
        assert [b.indices for b in buckets] == [[0], [1]]


# ---------------------------------------------------------------------- #
# Hypothesis: batched == scalar across the archetype space
# ---------------------------------------------------------------------- #


def _small_spec(archetype):
    return ScenarioSpec(
        archetype=archetype,
        nodes=1,
        procs_per_node=2,
        bytes_per_process=512 * units.KiB,
    )


class TestBatchedVsScalarHypothesis:
    @given(names=st.lists(st.sampled_from(ARCHETYPES), min_size=2, max_size=3))
    @settings(max_examples=8, deadline=None)
    def test_batched_matches_scalar(self, names):
        scenarios = [
            build_scenario([_small_spec(a)], "tiny").scenario for a in names
        ]
        batched = simulate_many(scenarios)
        for scenario, result in zip(scenarios, batched):
            alone = simulate_scenario(scenario)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0]


# ---------------------------------------------------------------------- #
# Telemetry neutrality
# ---------------------------------------------------------------------- #


class TestBatchTelemetry:
    def test_batching_is_telemetry_neutral(self):
        scenarios = [_alone_scenario(a) for a in ("smallfile", "incast")]
        plain = [metric_fingerprint(r)[0] for r in simulate_many(scenarios)]
        with telemetry_session("batch-test") as telemetry:
            observed = [metric_fingerprint(r)[0] for r in simulate_many(scenarios)]
            snapshot = telemetry.snapshot()
        assert plain == observed
        assert snapshot["counters"]["batch.buckets"] == 1
        assert snapshot["counters"]["batch.member_runs"] == 2
        assert "batch.occupancy" in snapshot["histograms"]

    def test_fallback_counters(self):
        policy = SteppingPolicy(mode=SteppingMode.ADAPTIVE)
        adaptive = build_scenario(["checkpoint"], "tiny", stepping=policy).scenario
        scenarios = [_alone_scenario("analytics"), adaptive]
        with telemetry_session("batch-test") as telemetry:
            simulate_many(scenarios)
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["batch.ragged_fallbacks"] == 1
        assert snapshot["counters"]["batch.fallback.adaptive"] == 1
        assert snapshot["counters"]["batch.buckets"] == 1


# ---------------------------------------------------------------------- #
# Executor and matrix wiring
# ---------------------------------------------------------------------- #


class TestExecutorBatchRunner:
    def _tasks(self, monkeypatch, log):
        from repro.runner import executor

        def worker(payload, seed):
            log.append(payload["n"])
            return {"n": payload["n"], "via": "scalar"}

        monkeypatch.setitem(executor._TASK_KINDS, "test-batch", worker)
        return [
            executor.TaskSpec(f"t{n}", "test-batch", {"n": n}) for n in range(4)
        ]

    def test_claimed_tasks_skip_the_pool(self, monkeypatch):
        from repro.runner.executor import execute_cached

        scalar_log = []
        tasks = self._tasks(monkeypatch, scalar_log)

        def batch_runner(pending):
            # Claim the even tasks; the executor must run only the rest.
            return {
                t.task_id: {"n": t.payload["n"], "via": "batched"}
                for t in pending
                if t.payload["n"] % 2 == 0
            }

        results = execute_cached(tasks, batch_runner=batch_runner)
        assert {k: v["via"] for k, v in results.items()} == {
            "t0": "batched", "t1": "scalar", "t2": "batched", "t3": "scalar",
        }
        assert scalar_log == [1, 3]

    def test_declining_runner_changes_nothing(self, monkeypatch):
        from repro.runner.executor import execute_cached

        scalar_log = []
        tasks = self._tasks(monkeypatch, scalar_log)
        results = execute_cached(tasks, batch_runner=lambda pending: None)
        assert scalar_log == [0, 1, 2, 3]
        assert all(v["via"] == "scalar" for v in results.values())

    def test_batched_payloads_are_cached(self, monkeypatch, tmp_path):
        from repro.runner.cache import ResultCache
        from repro.runner.executor import execute_cached

        scalar_log = []
        tasks = self._tasks(monkeypatch, scalar_log)
        cache = ResultCache(str(tmp_path))
        calls = []

        def batch_runner(pending):
            calls.append([t.task_id for t in pending])
            return {t.task_id: {"n": t.payload["n"], "via": "batched"} for t in pending}

        fingerprint_for = lambda task: f"fp-{task.task_id}"
        cold = execute_cached(
            tasks, cache=cache, fingerprint_for=fingerprint_for,
            batch_runner=batch_runner,
        )
        warm = execute_cached(
            tasks, cache=cache, fingerprint_for=fingerprint_for,
            batch_runner=batch_runner,
        )
        assert warm == cold
        assert scalar_log == []
        # The warm pass is a 100% cache hit: the runner never fires again.
        assert calls == [["t0", "t1", "t2", "t3"]]


class TestMatrixBatching:
    ARCH = ["smallfile", "incast"]

    def test_batched_matrix_matches_scalar(self):
        import json

        from repro.scenarios.matrix import run_interference_matrix

        with telemetry_session("matrix-batched") as telemetry:
            batched = run_interference_matrix(self.ARCH, "tiny", batch=True)
            snapshot = telemetry.snapshot()
        scalar = run_interference_matrix(self.ARCH, "tiny", batch=False)
        dump = lambda m: json.dumps(m.to_dict(), indent=2, sort_keys=True)
        assert dump(batched) == dump(scalar)
        # All 5 runs (2 alone + 3 pairs) share one lockstep cadence and pad
        # their mixed widths into a single bucket.
        assert snapshot["counters"]["batch.buckets"] == 1
        assert snapshot["counters"]["batch.member_runs"] == 5
        assert snapshot["counters"]["executor.tasks.completed"] == 5
        batched_tasks = [
            t for t, r in batched.task_records.items() if r.get("batched")
        ]
        assert len(batched_tasks) == 5

    def test_jobs_gt_one_keeps_batching(self):
        """The batch runner is wired for every jobs value and forwards the
        jobs count so buckets fan out as pool work units."""
        from repro.scenarios import matrix as matrix_mod

        seen = {}

        def spy(pending, task_records=None, *, jobs=1,
                fault_policy=None):  # pragma: no cover
            seen["jobs"] = jobs
            seen["fault_policy"] = fault_policy
            return {}

        import unittest.mock as mock

        with mock.patch.object(
            matrix_mod, "run_matrix_tasks_batched", spy
        ), mock.patch.object(matrix_mod, "execute_cached") as fake:
            fake.return_value = {}
            try:
                matrix_mod.run_interference_matrix(self.ARCH, "tiny", jobs=2)
            except Exception:
                pass  # assembly fails on empty results; wiring already seen
            runner = fake.call_args.kwargs["batch_runner"]
            assert runner is not None
            runner([])
            assert seen["jobs"] == 2

    def test_batcher_declines_small_or_foreign_task_lists(self):
        from repro.runner.executor import TaskSpec
        from repro.scenarios.matrix import run_matrix_tasks_batched

        assert run_matrix_tasks_batched([]) == {}
        foreign = [TaskSpec("x", "experiment", {}), TaskSpec("y", "experiment", {})]
        assert run_matrix_tasks_batched(foreign) == {}
