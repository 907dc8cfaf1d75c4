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


def _unit(task_id, *scenarios, **kwargs):
    """A ``bucket`` work unit running ``scenarios`` on their own seeds."""
    return TaskSpec(
        task_id, "bucket", {"requests": [(s, None) for s in scenarios]}, **kwargs
    )


class TestParallelExecutor:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return {
            "hdd": make_scenario("tiny"),
            "ram": make_scenario("tiny", device="ram"),
            "ssd": make_scenario("tiny", device="ssd", sync_mode="sync-off"),
        }

    def test_rejects_bad_jobs(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=0)

    def test_empty_map(self):
        assert ParallelExecutor(jobs=2).map([]) == []

    def test_task_kinds_are_the_bucket_unit_and_the_probe(self):
        from repro.runner.executor import _TASK_KINDS

        assert set(_TASK_KINDS) == {"bucket", "probe"}

    def test_rejects_duplicate_task_ids(self):
        tasks = [TaskSpec("same", "probe", {"value": n}) for n in range(2)]
        with pytest.raises(ExperimentError, match="unique"):
            ParallelExecutor(jobs=1).map(tasks)

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=1).map([TaskSpec("t", "no-such-kind")])

    def test_serial_bucket_unit(self, scenarios):
        from repro.model.simulator import simulate_scenario

        members = [scenarios["hdd"], scenarios["ram"]]
        seen = []
        results = ParallelExecutor(jobs=1).map(
            [_unit("u", *members)],
            progress=lambda task, result: seen.append(task.task_id),
        )
        assert seen == ["u"]
        assert results[0]["wall_s"] > 0
        runs = results[0]["results"]
        assert [run.scenario for run in runs] == members
        for member, run in zip(members, runs):
            alone = simulate_scenario(member)
            assert run.n_steps == alone.n_steps
            assert run.applications == alone.applications

    def test_parallel_results_keep_task_order(self, scenarios):
        # The HDD run is the slowest; order must follow submission anyway.
        ids = ["hdd", "ram", "ssd"]
        results = ParallelExecutor(jobs=2).map(
            [_unit(i, scenarios[i]) for i in ids]
        )
        assert [r["results"][0].scenario for r in results] == [
            scenarios[i] for i in ids
        ]

    def test_worker_failure_propagates_with_task_id(self, scenarios):
        """The kernel raises inside a pool worker: the map fails naming the
        unit, chained to the worker's error."""
        import dataclasses

        from repro.errors import SimulationError

        hdd = scenarios["hdd"]
        short = dataclasses.replace(
            hdd, control=dataclasses.replace(hdd.control, max_time=0.1)
        )
        tasks = [_unit("fine", scenarios["ram"]), _unit("boom", short)]
        with pytest.raises(ExperimentError, match="'boom'") as excinfo:
            ParallelExecutor(jobs=2).map(tasks)
        assert isinstance(excinfo.value.__cause__, SimulationError)
        assert "reached max_time=0.1s" in str(excinfo.value.__cause__)

    def test_no_worker_outlives_the_map(self):
        """A caller's RUSAGE_CHILDREN counts the workers only once they are
        joined.  (A failed map leaves its workers to be reaped later, so
        count only the children this map started.)"""
        import multiprocessing

        before = set(multiprocessing.active_children())
        tasks = [TaskSpec(f"p{n}", "probe", {"value": n}) for n in range(4)]
        results = ParallelExecutor(jobs=2).map(tasks)
        assert [r["value"] for r in results] == [0, 1, 2, 3]
        assert set(multiprocessing.active_children()) <= before


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
