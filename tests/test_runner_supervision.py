"""Tests for the supervised executor: retries, timeouts, quarantine, journal."""

import json

import pytest

from repro.errors import ExperimentError, TaskTimeout
from repro.obs.telemetry import telemetry_session
from repro.runner import executor as executor_mod
from repro.runner.chaos import ChaosError, FaultPlan, FaultSpec, fault_plan
from repro.runner.executor import (
    FaultPolicy,
    ParallelExecutor,
    TaskFailure,
    TaskSpec,
)
from repro.runner.journal import JOURNAL_NAME, ProgressJournal


def probe(task_id, value=0, sleep_s=0.0):
    return TaskSpec(
        task_id=task_id, kind="probe",
        payload={"value": value, "sleep_s": sleep_s},
    )


class TestFaultPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ExperimentError):
            FaultPolicy(task_timeout_s=0.0)
        with pytest.raises(ExperimentError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ExperimentError):
            FaultPolicy(backoff_base_s=-0.1)

    def test_backoff_is_deterministic_capped_and_growing(self):
        policy = FaultPolicy(backoff_base_s=0.1, backoff_cap_s=0.4)
        first = policy.backoff_s("t1", 1)
        assert first == policy.backoff_s("t1", 1)
        # Jitter keeps each wait within [0.5, 1.0) of the nominal value.
        assert 0.05 <= first < 0.1
        assert 0.2 <= policy.backoff_s("t1", 3) < 0.4  # capped at 0.4
        assert policy.backoff_s("t1", 2) != policy.backoff_s("t2", 2)


class TestTaskFailure:
    def test_to_dict_shape(self):
        failure = TaskFailure(
            task_id="t", kind="probe", reason="timeout", error="boom",
            attempts=3,
        )
        assert failure.to_dict() == {
            "task_id": "t", "kind": "probe", "reason": "timeout",
            "error": "boom", "attempts": 3,
        }


class TestSupervisedSerial:
    def test_clean_run_matches_unsupervised(self):
        tasks = [probe(f"t{i}", value=i) for i in range(4)]
        plain = ParallelExecutor(jobs=1).map(tasks)
        supervised = ParallelExecutor(
            jobs=1, fault_policy=FaultPolicy(max_retries=2)
        ).map(tasks)
        assert supervised == plain

    def test_transient_fault_is_retried_to_success(self):
        policy = FaultPolicy(max_retries=2, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        plan = FaultPlan.of(FaultSpec(match="t1", times=1))
        with fault_plan(plan):
            results = ParallelExecutor(jobs=1, fault_policy=policy).map(
                [probe("t0", value=0), probe("t1", value=1)]
            )
        assert [r["value"] for r in results] == [0, 1]

    def test_poisoned_task_is_quarantined_into_failures(self):
        policy = FaultPolicy(max_retries=1, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        plan = FaultPlan.of(FaultSpec(match="t1", times=99))
        failures = {}
        with fault_plan(plan):
            results = ParallelExecutor(jobs=1, fault_policy=policy).map(
                [probe("t0", value=0), probe("t1", value=1),
                 probe("t2", value=2)],
                failures=failures,
            )
        assert results[0]["value"] == 0
        assert results[1] is None
        assert results[2]["value"] == 2
        assert set(failures) == {"t1"}
        assert failures["t1"]["reason"] == "exception"
        assert failures["t1"]["attempts"] == 2  # initial + one retry

    def test_quarantine_without_failures_sink_raises(self):
        policy = FaultPolicy(max_retries=0)
        plan = FaultPlan.of(FaultSpec(match="t0", times=99))
        with fault_plan(plan):
            with pytest.raises(ExperimentError, match="exhausted their retries"):
                ParallelExecutor(jobs=1, fault_policy=policy).map(
                    [probe("t0")]
                )

    def test_stall_past_deadline_times_out_then_retry_succeeds(self):
        policy = FaultPolicy(task_timeout_s=0.2, max_retries=1,
                             backoff_base_s=0.001, backoff_cap_s=0.002)
        plan = FaultPlan.of(
            FaultSpec(match="t0", mode="stall", delay_s=5.0, times=1)
        )
        with fault_plan(plan):
            results = ParallelExecutor(jobs=1, fault_policy=policy).map(
                [probe("t0", value=7)]
            )
        assert results[0]["value"] == 7

    def test_counters(self):
        policy = FaultPolicy(max_retries=1, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        plan = FaultPlan.of(FaultSpec(match="bad", times=99))
        failures = {}
        with telemetry_session("supervision") as telemetry:
            with fault_plan(plan):
                ParallelExecutor(jobs=1, fault_policy=policy).map(
                    [probe("ok"), probe("bad")], failures=failures
                )
            counters = telemetry.snapshot()["counters"]
        assert counters["executor.retries"] == 1
        assert counters["executor.quarantined"] == 1


class TestSupervisedPool:
    def test_crash_stall_and_poison_recovery(self):
        """The full chaos gauntlet under a real process pool.

        One worker crash (pool rebuild), one stall past the deadline
        (worker-side timeout), one poisoned task (quarantine) — the map
        completes, innocents are unaffected, and the counters prove each
        recovery path ran.
        """
        policy = FaultPolicy(task_timeout_s=2.0, max_retries=2,
                             backoff_base_s=0.001, backoff_cap_s=0.002)
        # The stall fires on two attempts: if the crash breaks the pool
        # while "stally" is in flight, its first attempt is charged as a
        # pool-crash without ever stalling — the second attempt then
        # guarantees the timeout path runs regardless of interleaving.
        plan = FaultPlan.of(
            FaultSpec(match="crashy", mode="crash", times=1),
            FaultSpec(match="stally", mode="stall", delay_s=30.0, times=2),
            FaultSpec(match="poison", times=99),
        )
        tasks = [probe(f"t{i}", value=i) for i in range(3)]
        tasks += [probe("crashy", value=3), probe("stally", value=4),
                  probe("poison", value=5)]
        failures = {}
        with telemetry_session("chaos-pool") as telemetry:
            with fault_plan(plan, env=True):
                results = ParallelExecutor(jobs=2, fault_policy=policy).map(
                    tasks, failures=failures
                )
            counters = telemetry.snapshot()["counters"]
        values = [None if r is None else r["value"] for r in results]
        assert values == [0, 1, 2, 3, 4, None]
        assert set(failures) == {"poison"}
        assert failures["poison"]["attempts"] == 3
        assert counters["executor.pool_rebuilds"] >= 1
        assert counters["executor.timeouts"] >= 1
        assert counters["executor.quarantined"] == 1

    def test_clean_pool_run_returns_ordered_results(self):
        policy = FaultPolicy(max_retries=1)
        tasks = [probe(f"t{i}", value=i) for i in range(8)]
        results = ParallelExecutor(jobs=2, fault_policy=policy).map(tasks)
        assert [r["value"] for r in results] == list(range(8))

    def test_watchdog_rebuild_sized_for_requeued_victims(self, monkeypatch):
        """Every-task-stuck must rebuild a full-width pool, not one worker.

        Regression: the watchdog used to rebuild *before* requeueing
        victims, sizing the new pool from an empty waiting queue — a single
        worker then served up to ``jobs`` resubmissions, and the queue wait
        counted against the hard deadline, falsely timing out healthy
        retries.  Uninterruptible probes (they swallow the worker-side
        TaskTimeout) force the parent-watchdog path deterministically.
        """
        sizes = []
        original = ParallelExecutor._new_pool

        def spying_new_pool(self, backlog):
            pool = original(self, backlog)
            sizes.append(pool._max_workers)
            return pool

        monkeypatch.setattr(ParallelExecutor, "_new_pool", spying_new_pool)
        policy = FaultPolicy(task_timeout_s=0.2, grace_s=0.2, max_retries=1,
                             backoff_base_s=0.001, backoff_cap_s=0.002)

        def hang(task_id):
            return TaskSpec(
                task_id=task_id, kind="probe",
                payload={"sleep_s": 30.0, "uninterruptible": True},
            )

        failures = {}
        results = ParallelExecutor(jobs=2, fault_policy=policy).map(
            [hang("h0"), hang("h1")], failures=failures
        )
        assert results == [None, None]
        assert set(failures) == {"h0", "h1"}
        assert all(f["reason"] == "timeout" for f in failures.values())
        # sizes[0] is the initial pool; sizes[1] is the rebuild after the
        # first watchdog sweep, which must be full width because both
        # victims were requeued for their retry before the rebuild.
        assert sizes[0] == 2
        assert sizes[1] == 2


class TestFailFastWithoutSink:
    """Without a failures sink the map stops at the first task that runs
    out of retries: it raises naming that task, chained to the cause, and
    submits no further task.  The default policy allows no retry."""

    def test_in_process_stops_at_first_failure(self, monkeypatch):
        executed = []
        original = executor_mod.execute_task

        def recording(task):
            executed.append(task.task_id)
            return original(task)

        monkeypatch.setattr(executor_mod, "execute_task", recording)
        plan = FaultPlan.of(FaultSpec(match="t1", times=99))
        with fault_plan(plan):
            with pytest.raises(
                ExperimentError, match="'t1' exhausted their retries"
            ) as excinfo:
                ParallelExecutor(jobs=1).map([probe(f"t{i}") for i in range(4)])
        assert isinstance(excinfo.value.__cause__, ChaosError)
        assert executed == ["t0"]

    def test_pool_submits_nothing_after_first_failure(self, monkeypatch):
        submitted = []
        original = ParallelExecutor._new_pool

        def spying_new_pool(self, backlog):
            pool = original(self, backlog)
            submit = pool.submit

            def recording_submit(fn, task, *args):
                submitted.append(task.task_id)
                return submit(fn, task, *args)

            pool.submit = recording_submit
            return pool

        monkeypatch.setattr(ParallelExecutor, "_new_pool", spying_new_pool)
        plan = FaultPlan.of(FaultSpec(match="t0", times=99))
        # t0 fails at once while t1 (its window-mate) is still sleeping, so
        # the failure is seen before any slot frees up for t2.
        tasks = [probe("t0")] + [probe(f"t{i}", sleep_s=1.0) for i in range(1, 5)]
        with fault_plan(plan, env=True):
            with pytest.raises(
                ExperimentError, match="'t0' exhausted their retries"
            ) as excinfo:
                ParallelExecutor(jobs=2).map(tasks)
        assert isinstance(excinfo.value.__cause__, ChaosError)
        assert submitted == ["t0", "t1"]


class TestTaskTimeoutError:
    def test_is_picklable(self):
        import pickle

        exc = TaskTimeout("task t0 exceeded 2.0s")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, TaskTimeout)
        assert "t0" in str(clone)


class TestProgressJournal:
    def test_records_and_last_line_wins(self, tmp_path):
        journal = ProgressJournal(tmp_path / JOURNAL_NAME)
        assert not journal.exists()
        assert journal.load() == {}
        journal.record("t0", "retried", attempt=1, error="boom")
        journal.record("t0", "completed", fingerprint="f" * 64, attempt=1,
                       origin="computed")
        journal.record("t1", "failed", attempt=3, error="poisoned")
        state = journal.load()
        assert state["t0"]["status"] == "completed"
        assert state["t1"]["status"] == "failed"
        assert journal.completed() == {"t0": "f" * 64}

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = ProgressJournal(tmp_path / JOURNAL_NAME)
        journal.record("t0", "completed", fingerprint="a" * 64)
        with open(journal.path, "ab") as handle:
            handle.write(b'{"task_id": "t1", "status": "comp')  # torn write
        state = journal.load()
        assert set(state) == {"t0"}
        assert journal.corrupt_lines == 1

    def test_binary_garbage_is_tolerated(self, tmp_path):
        journal = ProgressJournal(tmp_path / JOURNAL_NAME)
        journal.record("t0", "completed")
        with open(journal.path, "ab") as handle:
            handle.write(b"\xff\xfe\x00garbage\n")
        journal.record("t1", "completed")
        state = journal.load()
        assert set(state) == {"t0", "t1"}
        assert journal.corrupt_lines == 1

    def test_lines_are_sorted_json(self, tmp_path):
        journal = ProgressJournal(tmp_path / JOURNAL_NAME)
        journal.record("t0", "completed", fingerprint="a" * 64)
        line = journal.path.read_text(encoding="utf-8").strip()
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)
