"""Batched-kernel equivalence, bucketing properties, and telemetry neutrality.

The stepping kernel (:mod:`repro.model.batch`) promises *bitwise* equality
between a member of a batch and its run alone: a B=1 batch reproduces every
stored fixed-step golden fingerprint, and every member of a B>1 batch
reproduces the fingerprint of running it alone — also when the members'
resolved steps, start anchors and horizons differ (each steps on its own
clock), when fixed and adaptive stepping share a bucket, and when members
finish on different ticks and the kernel compacts the survivors.  A run
alone is itself a batch of one on the same driver.  The bucketing front end
must partition any scenario list (each scenario in exactly one bucket),
group only scenarios of one transport and server configuration, whatever
their device, network, stripe size or stepping policy, split each group into
one chunk per worker, keep input order within a bucket, and give a scenario
without a partner a width-1 bucket.
"""

import dataclasses
import gc
import unittest.mock as mock
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.control import SteppingMode, SteppingPolicy
from repro.config.presets import make_scenario
from repro.errors import SimulationError
from repro.model.batch import (
    _LANE_ARRAYS,
    BatchedStepper,
    BatchSimulator,
    _bucket_key,
    _connection_lanes,
    _lane_owner,
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


def _run_recording_widths(members):
    """Run ``members`` as one batch: its results and the kernel width of
    every tick."""
    widths = []
    step_batch = BatchedStepper.step_batch

    def recording(self, now):
        widths.append(len(self._members))
        return step_batch(self, now)

    with mock.patch.object(BatchedStepper, "step_batch", recording):
        results = BatchSimulator(members).run()
    return results, widths


def _assert_compacted(results, widths):
    """Only live members step: tick ``t`` is as wide as the number of
    members still running at it, so the width falls after every tick on
    which a member retired."""
    steps = [r.n_steps for r in results]
    assert widths == [
        sum(n >= tick for n in steps) for tick in range(1, max(steps) + 1)
    ]


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
        results, widths = _run_recording_widths(members)
        _assert_compacted(results, widths)
        _assert_each_matches_alone(members, results)

    def test_finished_members_compact_out_of_the_kernel(self):
        members = _sweep_points([-0.3, 0.2]) + [
            _alone_scenario(a) for a in ("smallfile", "analytics")
        ]
        results, widths = _run_recording_widths(members)
        assert len({r.n_steps for r in results}) == len(members)
        assert widths[0] == len(members) and widths[-1] == 1
        assert len(set(widths)) == len(members)
        _assert_compacted(results, widths)
        _assert_each_matches_alone(members, results)

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
    def test_mixed_deployment_matches_alone(self, other):
        """A member of another device or network shares the bucket: its
        lanes carry its own constants, so it steps as it would alone."""
        members = [make_scenario("tiny"), other]
        _assert_each_matches_alone(members, BatchSimulator(members).run())

    def test_member_wall_time_is_its_own(self):
        """A member's wall time runs from the start of the run to the step it
        finished on, not to the end of the bucket."""
        short, long_ = make_scenario("tiny"), _alone_scenario("smallfile")
        results = BatchSimulator([short, long_]).run()
        assert results[0].n_steps < results[1].n_steps
        assert 0.0 < results[0].wall_time < results[1].wall_time


# ---------------------------------------------------------------------- #
# Fixed and adaptive stepping share a bucket
# ---------------------------------------------------------------------- #


class TestMixedStepping:
    """An adaptive member picks its own step end every tick on the lockstep
    loop, so it runs in a bucket with fixed-step members of its deployment
    and still matches its run alone."""

    @given(
        device=st.sampled_from(["hdd", "ssd"]),
        sync_mode=st.sampled_from(["sync-on", "sync-off"]),
        members=st.lists(
            st.tuples(
                st.sampled_from(["contiguous", "strided"]),
                st.floats(min_value=-3.0, max_value=6.0, allow_nan=False),
            ),
            min_size=2, max_size=4,
        ),
    )
    @settings(max_examples=6, deadline=None)
    def test_mixed_bucket_matches_alone(self, device, sync_mode, members):
        # Members alternate adaptive and fixed, so each bucket has both.
        scenarios = [
            make_scenario(
                "tiny", device=device, sync_mode=sync_mode, pattern=pattern,
                delay=delay,
                stepping=SteppingPolicy.adaptive() if k % 2 == 0 else None,
            )
            for k, (pattern, delay) in enumerate(members)
        ]
        results, widths = _run_recording_widths(scenarios)
        assert widths[0] == len(scenarios)
        _assert_compacted(results, widths)
        _assert_each_matches_alone(scenarios, results)

    def test_adaptive_member_takes_fewer_steps(self):
        """In a bucket, the adaptive member of a widely spaced pair still
        collapses its quiescent stretch: fewer steps than its fixed twin."""
        fixed = make_scenario("tiny", delay=5.0)
        adaptive = make_scenario("tiny", delay=5.0, stepping=SteppingPolicy.adaptive())
        results = BatchSimulator([fixed, adaptive]).run()
        assert results[1].n_steps < results[0].n_steps
        _assert_each_matches_alone([fixed, adaptive], results)

    def test_an_unfinished_member_names_its_scenario_and_seed(self):
        """A bucket may hold many experiments' runs: the error of the one
        that reached its horizon names its scenario and seed."""
        scenario = make_scenario("tiny")
        short = _with_max_time(scenario, 0.1 / scenario.control.max_time)
        with pytest.raises(SimulationError) as excinfo:
            BatchSimulator([(scenario, 3), (short, 5)]).run()
        message = str(excinfo.value)
        assert f"simulation {short.label!r} (seed 5) reached max_time=0.1s" in message
        assert "unfinished applications ['A', 'B']" in message

    def test_unfinished_adaptive_member_raises(self):
        scenario = make_scenario("tiny", stepping=SteppingPolicy.adaptive())
        # The run takes under a second of simulated time.
        short = _with_max_time(scenario, 0.1 / scenario.control.max_time)
        with pytest.raises(SimulationError, match="reached max_time=0.1s"):
            BatchSimulator([make_scenario("tiny"), short]).run()


# ---------------------------------------------------------------------- #
# Compaction frees what it leaves behind
# ---------------------------------------------------------------------- #


def _lane_arrays(state):
    """Every array of ``state`` that is a lane of the flat state."""
    return [
        getattr(_lane_owner(state, owner), name)
        for owner, _, names in _LANE_ARRAYS for name in names
    ]


class TestCompactionRelease:
    """In the style of ``TestPromptRelease``: with the cyclic garbage
    collector off, a compaction leaves no retired member tied to a flat
    state and frees the previous generation by reference counting alone."""

    @pytest.fixture
    def generations(self, monkeypatch):
        """Per compaction: (previous state freed, previous stepper freed,
        retired arrays sharing memory with the flat state before, after)."""
        records = []
        compact = BatchSimulator._compact

        def shared(batch):
            flat = _lane_arrays(batch.state)
            return sum(
                np.shares_memory(array, lane)
                for member in batch.members if not member.live
                for array in _lane_arrays(member.sim.state)
                for lane in flat
            )

        def checking(batch):
            before = shared(batch)
            state, stepper = weakref.ref(batch.state), weakref.ref(batch.stepper)
            compact(batch)
            records.append((state() is None, stepper() is None, before, shared(batch)))

        monkeypatch.setattr(BatchSimulator, "_compact", checking)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            yield records
        finally:
            if enabled:
                gc.enable()

    def test_compaction_detaches_and_frees(self, generations):
        members = _sweep_points([-0.3, 0.0, 0.2])
        results = BatchSimulator(members).run()
        assert len({r.n_steps for r in results}) == len(members)
        assert len(generations) == len(members) - 1
        for state_freed, stepper_freed, before, after in generations:
            assert state_freed and stepper_freed
            assert before == after == 0


# ---------------------------------------------------------------------- #
# Bucketing properties
# ---------------------------------------------------------------------- #


def _planning_pool():
    """Scenarios for the planner: two scales (the reduced alone runs are wide
    enough for the lane budget to split a group), three deployments and both
    stepping modes."""
    adaptive = SteppingPolicy(mode=SteppingMode.ADAPTIVE)
    pool = [build_scenario([a], scale).scenario
            for a in ARCHETYPES for scale in ("tiny", "reduced")]
    pool += [make_scenario(scale, **kwargs)
             for scale in ("tiny", "reduced")
             for kwargs in ({}, {"device": "ssd"}, {"network": "1g"})]
    pool += [build_scenario([a], "tiny", stepping=adaptive).scenario
             for a in ("checkpoint", "analytics")]
    return pool


PLANNING_POOL = _planning_pool()


def _with_buffer(scenario):
    """``scenario`` with half its server buffer: another server
    configuration, hence another bucket."""
    fs = scenario.filesystem
    return scenario.with_filesystem(
        fs.with_server_config(fs.server.with_buffer(fs.server.buffer_bytes / 2))
    )


def _fleet_scenarios():
    """The scenarios of the 8-archetype tiny fleet matrix, in task order."""
    from repro.scenarios.matrix import (
        _build_from_payload, _matrix_task_list, _normalize_options,
    )

    specs = [ScenarioSpec.coerce(a) for a in ARCHETYPES]
    _, tasks, _ = _matrix_task_list(specs, "tiny", _normalize_options({}), None)
    return [_build_from_payload(task.payload).scenario for task in tasks]


class TestBucketing:
    @given(
        picks=st.lists(st.integers(0, len(PLANNING_POOL) - 1), min_size=1, max_size=14),
        jobs=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition(self, picks, jobs):
        """Every index lands in exactly one bucket and the fallback is empty,
        buckets share a transport and server configuration and keep input
        order, each group splits into one chunk per worker, and the plan is
        deterministic."""
        scenarios = [PLANNING_POOL[k] for k in picks]
        buckets, fallback = plan_buckets(scenarios, jobs=jobs)
        # Every index, fixed or adaptive, lands in exactly one bucket.
        assert fallback == []
        seen = sorted(i for b in buckets for i in b.indices)
        assert seen == list(range(len(scenarios)))
        groups = {}
        for i, s in enumerate(scenarios):
            groups.setdefault(_bucket_key(s), []).append(i)
        per_group = {key: 0 for key in groups}
        for bucket in buckets:
            # Members keep input order and share transport and server
            # configuration, whatever their device, network or stripe.
            assert bucket.indices and bucket.indices == sorted(bucket.indices)
            keys = {_bucket_key(scenarios[i]) for i in bucket.indices}
            assert len(keys) == 1
            per_group[keys.pop()] += 1
        # Chunks per group: one per worker (the lane budget is the queue's).
        for key, indices in groups.items():
            assert per_group[key] == min(len(indices), jobs)
        # The same input gives the same plan.
        again, again_fallback = plan_buckets(list(scenarios), jobs=jobs)
        assert [b.indices for b in again] == [b.indices for b in buckets]
        assert again_fallback == fallback

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fleet_matrix_plans_a_bucket_per_worker(self, jobs):
        """The 44 tasks of the 8-archetype tiny fleet share one deployment
        and 4,800 lanes: one bucket at one worker (a queue under the lane
        budget), two balanced chunks at two."""
        scenarios = _fleet_scenarios()
        assert len(scenarios) == 44
        assert sum(map(_connection_lanes, scenarios)) == 4800
        buckets, fallback = plan_buckets(scenarios, jobs=jobs)
        assert not fallback
        assert [len(b.indices) for b in buckets] == {1: [44], 2: [22, 22]}[jobs]

    def test_ragged_specs_bucket_together(self):
        scenario = _alone_scenario("checkpoint")
        app = scenario.applications[0]
        ragged = dataclasses.replace(
            scenario,
            applications=(dataclasses.replace(app, target_servers=(0, 1)),),
        )
        buckets, fallback = plan_buckets([ragged, ragged])
        assert not fallback
        assert [b.indices for b in buckets] == [[0, 1]]

    def test_mixed_width_specs_share_a_bucket(self):
        """Different connection counts / group sizes do not split buckets
        as long as the platform/filesystem match."""
        scenario = _alone_scenario("checkpoint")
        app = scenario.applications[0]
        ragged = dataclasses.replace(
            scenario,
            applications=(dataclasses.replace(app, target_servers=(0, 1)),),
        )
        buckets, fallback = plan_buckets([scenario, ragged])
        assert not fallback
        assert [b.indices for b in buckets] == [[0, 1]]

    def test_adaptive_stepping_buckets_with_its_deployment(self):
        policy = SteppingPolicy(mode=SteppingMode.ADAPTIVE)
        adaptive = build_scenario(["checkpoint"], "tiny", stepping=policy).scenario
        fixed = _alone_scenario("analytics")
        ssd = adaptive.with_filesystem(make_scenario("tiny", device="ssd").filesystem)
        buckets, fallback = plan_buckets(
            [adaptive, fixed, ssd, _with_buffer(adaptive), adaptive]
        )
        assert not fallback
        assert [b.indices for b in buckets] == [[0, 1, 2, 4], [3]]

    def test_singletons_form_width_one_buckets(self):
        # checkpoint, its SSD copy and analytics share the transport and
        # server configuration; the copy with a smaller server buffer has
        # no partner.
        checkpoint = _alone_scenario("checkpoint")
        ssd = checkpoint.with_filesystem(make_scenario("tiny", device="ssd").filesystem)
        scenarios = [checkpoint, _with_buffer(checkpoint), ssd,
                     _alone_scenario("analytics")]
        buckets, fallback = plan_buckets(scenarios)
        assert not fallback
        assert [b.indices for b in buckets] == [[0, 2, 3], [1]]


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


# ---------------------------------------------------------------------- #
# Requests: seeds and repeats
# ---------------------------------------------------------------------- #


class TestSimulateManyRequests:
    def test_a_repeat_is_simulated_once_and_shares_its_result(self):
        a, b = _alone_scenario("checkpoint"), _alone_scenario("analytics")
        members = []
        run = BatchSimulator.run

        def counting_run(self):
            members.extend(m.sim.scenario for m in self.members)
            return run(self)

        with mock.patch.object(BatchSimulator, "run", counting_run), \
                telemetry_session("repeats") as telemetry:
            # A seed of None is the scenario's own seed, so all three a's
            # are one request.
            results = simulate_many([a, b, a, a], [None, None, a.control.seed, None])
            counters = telemetry.snapshot()["counters"]
        assert sorted(map(str, (m.label for m in members))) == sorted([a.label, b.label])
        assert len(members) == 2
        assert results[0] is results[2] is results[3]
        assert results[1] is not results[0]
        assert counters["batch.requests"] == 4
        assert counters["batch.repeats"] == 2
        assert counters["batch.member_runs"] == 2

    def test_seeds_match_running_alone(self):
        scenario = make_scenario("tiny")
        seeds = [7, 11, 7]
        results = simulate_many([scenario] * 3, seeds)
        assert results[0] is results[2]
        for seed, result in zip(seeds, results):
            alone = simulate_scenario(scenario, seed=seed)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0]

    def test_input_order_is_kept_across_repeats(self):
        names = ("streaming", "checkpoint", "analytics", "checkpoint", "streaming")
        results = simulate_many([_alone_scenario(a) for a in names])
        for name, result in zip(names, results):
            assert name in result.scenario.applications[0].name

    def test_adaptive_requests_run_in_buckets(self):
        policy = SteppingPolicy(mode=SteppingMode.ADAPTIVE)
        adaptive = build_scenario(["checkpoint"], "tiny", stepping=policy).scenario
        fixed = _alone_scenario("analytics")
        with telemetry_session("adaptive") as telemetry:
            results = simulate_many([adaptive, fixed, adaptive])
            counters = telemetry.snapshot()["counters"]
        assert counters["batch.buckets"] == 1
        assert counters["batch.member_runs"] == 2
        assert not any(name.startswith("batch.fallback") for name in counters)
        assert results[0] is results[2]
        for scenario, result in zip((adaptive, fixed), results):
            alone = simulate_scenario(scenario)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0]

    def test_one_seed_per_scenario(self):
        with pytest.raises(SimulationError, match="one seed per scenario"):
            simulate_many([make_scenario("tiny")], [1, 2])

    def test_two_workers_equal_one(self):
        """At ``jobs=2`` the distinct requests run as bucket work units on
        two workers: the same results, repeats shared, and the counters
        merged from the workers read what one process counts."""
        a, b = _alone_scenario("checkpoint"), _alone_scenario("analytics")
        scenarios, seeds = [a, b, a, b, a], [None, None, a.control.seed, 7, 7]
        runs = {}
        for jobs in (1, 2):
            with telemetry_session(f"jobs{jobs}") as telemetry:
                results = simulate_many(scenarios, seeds, jobs=jobs)
                runs[jobs] = results, telemetry.snapshot()["counters"]
        (one, serial), (two, parallel) = runs[1], runs[2]
        assert [metric_fingerprint(r) for r in two] == [metric_fingerprint(r) for r in one]
        assert two[0] is two[2]
        for name in ("batch.requests", "batch.repeats", "batch.member_runs",
                     "batch.member_steps"):
            assert parallel[name] == serial[name], name
        assert serial["batch.repeats"] == 1 and serial["batch.member_runs"] == 4
        assert (serial["batch.buckets"], parallel["batch.buckets"]) == (1, 2)


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
        # All 5 runs (2 alone + 3 pairs) share one platform and filesystem
        # and pad their mixed widths into a single bucket.
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
