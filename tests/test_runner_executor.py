"""Tests for the parallel task executor and deterministic seeding."""

import pytest

from repro.config.presets import make_scenario
from repro.core.delta import run_delta_sweep
from repro.errors import ExperimentError
from repro.runner.executor import ParallelExecutor, TaskSpec, derive_task_seed


class TestDeriveTaskSeed:
    def test_deterministic(self):
        assert derive_task_seed(0, "table1") == derive_task_seed(0, "table1")

    def test_task_id_changes_seed(self):
        assert derive_task_seed(0, "table1") != derive_task_seed(0, "figure2")

    def test_master_seed_changes_seed(self):
        assert derive_task_seed(0, "table1") != derive_task_seed(1, "table1")

    def test_in_valid_range(self):
        seed = derive_task_seed(12345, "anything")
        assert 0 <= seed < 2 ** 63


class TestParallelExecutor:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=0)

    def test_empty_map(self):
        assert ParallelExecutor(jobs=2).map([]) == []

    def test_rejects_duplicate_task_ids(self):
        tasks = [
            TaskSpec("same", "experiment", {"experiment_id": "table1",
                                            "scale": "tiny", "quick": True})
            for _ in range(2)
        ]
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=1).map(tasks)

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=1).map([TaskSpec("t", "no-such-kind")])

    def test_serial_experiment_task(self):
        tasks = [TaskSpec("table1", "experiment",
                          {"experiment_id": "table1", "scale": "tiny", "quick": True})]
        seen = []
        results = ParallelExecutor(jobs=1).map(
            tasks, progress=lambda task, result: seen.append(task.task_id)
        )
        assert seen == ["table1"]
        assert results[0]["experiment_id"] == "table1"
        assert results[0]["result"]["tables"]["table1"]
        assert results[0]["checks"]

    def test_parallel_results_keep_task_order(self):
        # figure11 is slower than table1; order must follow submission anyway.
        ids = ["figure11", "table1", "figure10"]
        tasks = [
            TaskSpec(e, "experiment", {"experiment_id": e, "scale": "tiny", "quick": True})
            for e in ids
        ]
        results = ParallelExecutor(jobs=2).map(tasks)
        assert [r["experiment_id"] for r in results] == ids

    def test_worker_failure_propagates_with_task_id(self):
        tasks = [TaskSpec("boom", "experiment",
                          {"experiment_id": "figure99", "scale": "tiny", "quick": True})]
        with pytest.raises(ExperimentError, match="boom|figure99"):
            ParallelExecutor(jobs=2).map(tasks)


class TestParallelDeltaSweep:
    @pytest.fixture(scope="class")
    def scenario(self):
        return make_scenario("tiny", device="ssd", sync_mode="sync-on")

    def test_matches_serial_sweep(self, scenario):
        deltas = [-0.5, 0.0, 0.5]
        serial = run_delta_sweep(scenario, deltas, seed=7)
        parallel = run_delta_sweep(scenario, deltas, jobs=2, seed=7)
        assert serial.to_dict() == parallel.to_dict()

    def test_needs_two_applications(self, scenario):
        alone = scenario.with_applications(scenario.applications[:1])
        with pytest.raises(ExperimentError):
            run_delta_sweep(alone, [0.0], jobs=2)

    def test_run_sweep_jobs_matches_serial(self):
        from repro.core.experiment import TwoApplicationExperiment

        serial = TwoApplicationExperiment("tiny", device="ram").run_sweep(n_points=3)
        parallel = TwoApplicationExperiment("tiny", device="ram").run_sweep(
            n_points=3, jobs=2
        )
        assert parallel.to_dict() == serial.to_dict()
