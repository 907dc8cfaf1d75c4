"""Integration of the telemetry layer with the engine, executor, cache and
matrix fabric — the instrumented paths actually emit what the reports read."""

import json

import pytest

from repro.obs.schema import validate_events_jsonl, validate_telemetry_document
from repro.obs.telemetry import telemetry_session
from repro.runner.cache import ResultCache
from repro.runner.executor import ParallelExecutor, TaskSpec, execute_cached
from repro.runner.store import load_manifest
from repro.scenarios.matrix import run_interference_matrix, store_matrix

TASKS = [
    TaskSpec("t1", "experiment",
             {"experiment_id": "table1", "scale": "tiny", "quick": True}),
]


class TestEngineCounters:
    def test_simulator_stats_shape(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        sim.schedule(1.0, lambda s: None, label="x")
        sim.run(until=2.0)
        stats = sim.stats()
        assert stats["engine.events.scheduled"] >= 1
        assert stats["engine.events.processed"] >= 1
        assert set(stats) == {
            "engine.events.scheduled", "engine.events.processed",
            "engine.events.cancelled", "engine.heap.compactions",
        }

    def test_simulation_publishes_counters_and_spans(self):
        from repro.config.presets import make_scenario
        from repro.model.simulator import simulate_scenario

        with telemetry_session("sim") as session:
            simulate_scenario(make_scenario("tiny"))
            doc = session.to_document()
        assert doc["counters"]["sim.steps"] > 0
        assert doc["counters"]["engine.events.processed"] > 0
        assert any(k.startswith("step.phase.") for k in doc["counters"])
        categories = {s["category"] for s in doc["spans"]}
        assert "simulation" in categories and "phase" in categories
        sim_span = next(s for s in doc["spans"] if s["category"] == "simulation")
        assert all(
            s["parent"] == sim_span["id"]
            for s in doc["spans"] if s["category"] == "phase"
        )

    def test_local_write_model_publishes(self):
        from repro.model.local import simulate_local_writes
        from repro.storage import device_by_name

        with telemetry_session("local") as session:
            simulate_local_writes(device_by_name("ram"), n_apps=1,
                                  bytes_per_app=64 * 2 ** 20)
            doc = session.to_document()
        assert doc["counters"]["engine.events.processed"] > 0
        assert any(s["name"] == "local:RAMx1" for s in doc["spans"])


class TestExecutorTelemetry:
    def test_serial_map_records_task_spans(self):
        with telemetry_session("exec") as session:
            ParallelExecutor(jobs=1).map(TASKS)
            doc = session.to_document()
        assert doc["counters"]["executor.tasks.completed"] == 1
        assert doc["gauges"]["executor.jobs"] == 1.0
        task_span = next(s for s in doc["spans"] if s["category"] == "task")
        assert task_span["name"] == "t1"
        assert task_span["args"]["kind"] == "experiment"
        validate_telemetry_document(doc)

    def test_serial_map_fills_task_records_without_telemetry(self):
        records = {}
        ParallelExecutor(jobs=1).map(TASKS, task_records=records)
        assert records["t1"]["wall_time_s"] > 0
        assert records["t1"]["queue_wait_s"] == 0.0

    def test_parallel_map_merges_worker_snapshots(self):
        tasks = [
            TaskSpec(e, "experiment",
                     {"experiment_id": e, "scale": "tiny", "quick": True})
            for e in ("table1", "figure10")
        ]
        records = {}
        with telemetry_session("exec") as session:
            ParallelExecutor(jobs=2).map(tasks, task_records=records)
            doc = session.to_document()
        validate_telemetry_document(doc)
        assert doc["counters"]["executor.tasks.completed"] == 2
        task_spans = [s for s in doc["spans"] if s["category"] == "task"]
        assert {s["name"] for s in task_spans} == {"table1", "figure10"}
        # worker-side simulation activity merged under the task spans
        worker_spans = [s for s in doc["spans"] if s["track"] == "workers"]
        assert worker_spans
        task_ids = {s["id"] for s in task_spans}
        roots = [s for s in worker_spans if s["parent"] in task_ids]
        assert roots
        assert doc["counters"]["engine.events.processed"] > 0
        for record in records.values():
            assert record["wall_time_s"] > 0
            assert record["queue_wait_s"] >= 0.0

    def test_disabled_telemetry_map_is_unobserved(self):
        results = ParallelExecutor(jobs=1).map(TASKS)
        assert results[0]["experiment_id"] == "table1"


class TestCacheTelemetry:
    def test_probe_hit_miss_store_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with telemetry_session("cache") as session:
            assert cache.get("fp1") is None  # miss
            cache.put("fp1", {"x": 1}, {"k": "v"})  # store
            assert cache.get("fp1") == {"x": 1}  # hit
            doc = session.to_document()
        assert doc["counters"]["cache.probe"] == 2
        assert doc["counters"]["cache.miss"] == 1
        assert doc["counters"]["cache.hit"] == 1
        assert doc["counters"]["cache.store"] == 1
        assert doc["counters"]["cache.bytes_written"] > 0
        events = validate_events_jsonl(session.events_jsonl())
        assert any(e["event"] == "cache_store" for e in events)

    def test_execute_cached_records_provenance(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fingerprint_for = lambda task: f"fp-{task.task_id}"

        cold = {}
        execute_cached(TASKS, cache=cache, fingerprint_for=fingerprint_for,
                       task_records=cold)
        assert cold["t1"]["origin"] == "computed"
        assert cold["t1"]["fingerprint"] == "fp-t1"
        assert cold["t1"]["wall_time_s"] > 0

        warm = {}
        with telemetry_session("warm") as session:
            execute_cached(TASKS, cache=cache, fingerprint_for=fingerprint_for,
                           task_records=warm)
            doc = session.to_document()
        assert warm["t1"]["origin"] == "cache"
        assert warm["t1"]["wall_time_s"] == 0.0
        assert doc["counters"]["executor.tasks.cached"] == 1
        assert doc["counters"]["cache.hit"] == 1
        assert "executor.tasks.completed" not in doc["counters"]


class TestMatrixTelemetry:
    @pytest.fixture(scope="class")
    def observed_matrix(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("cache"))
        with telemetry_session("matrix") as session:
            matrix = run_interference_matrix(
                ["streaming", "checkpoint"], "tiny", cache_dir=cache_dir,
            )
            document = session.to_document(run_id="test")
        return matrix, document, session

    def test_campaign_span_wraps_tasks(self, observed_matrix):
        matrix, document, _ = observed_matrix
        validate_telemetry_document(document)
        campaign = next(
            s for s in document["spans"] if s["category"] == "campaign"
        )
        task_spans = [s for s in document["spans"] if s["category"] == "task"]
        assert campaign["name"] == "matrix:tiny"
        assert len(task_spans) == len(matrix.task_records)
        assert all(s["parent"] == campaign["id"] for s in task_spans)

    def test_task_records_cover_every_task(self, observed_matrix):
        matrix, document, _ = observed_matrix
        assert set(matrix.task_records) == {
            s["name"] for s in document["spans"] if s["category"] == "task"
        }
        for record in matrix.task_records.values():
            assert record["origin"] == "computed"
            assert "fingerprint" in record

    def test_task_records_excluded_from_serialization(self, observed_matrix):
        matrix, _, _ = observed_matrix
        assert "task_records" not in matrix.to_dict()

    def test_store_matrix_persists_telemetry(self, observed_matrix, tmp_path):
        matrix, _, session = observed_matrix
        run_dir = store_matrix(matrix, str(tmp_path / "runs"),
                               telemetry=session)
        manifest = load_manifest(run_dir)
        assert manifest["telemetry"] == {
            "document": "telemetry.json",
            "events": "telemetry_events.jsonl",
        }
        document = json.loads(
            (tmp_path / "runs" / manifest["run_id"] / "telemetry.json")
            .read_text(encoding="utf-8")
        )
        validate_telemetry_document(document)
        assert document["run_id"] == manifest["run_id"]
        assert set(manifest["tasks"]) == set(matrix.task_records)
        for record in manifest["tasks"].values():
            assert record["origin"] in ("computed", "cache")
            assert isinstance(record["wall_time_s"], float)

    def test_store_matrix_without_telemetry_keeps_manifest_shape(
        self, observed_matrix, tmp_path
    ):
        matrix, _, _ = observed_matrix
        run_dir = store_matrix(matrix, str(tmp_path / "plain"))
        manifest = load_manifest(run_dir)
        assert "telemetry" not in manifest
        assert "tasks" not in manifest
