"""Summary and diff reports over telemetry documents."""

import json

import pytest

from repro.errors import TelemetryError
from repro.obs.summary import (
    TELEMETRY_DOCUMENT_NAME,
    cache_stats,
    diff_documents,
    executor_stats,
    load_run_telemetry,
    phase_timing,
    summarize_document,
)
from repro.obs.telemetry import Telemetry


def build_document(cache_hits=2, jobs=2.0):
    t = Telemetry(label="summary")
    campaign = t.add_span("campaign:tiny", "campaign", 0.0, 10e6)
    t.add_span("a", "task", 0.0, 6e6, parent=campaign, track="tasks",
               args={"kind": "matrix-alone", "queue_wait_s": 0.25})
    t.add_span("b", "task", 1e6, 8e6, parent=campaign, track="tasks",
               args={"kind": "matrix-pair", "queue_wait_s": 0.5})
    t.gauge("executor.jobs", jobs)
    t.count("executor.tasks.completed", 2)
    t.count("executor.tasks.cached", cache_hits)
    t.count("cache.probe", 4)
    t.count("cache.hit", cache_hits)
    t.count("cache.miss", 4 - cache_hits)
    t.count("cache.store", 4 - cache_hits)
    t.count("cache.bytes_written", 1234)
    t.count("step.phase.drain.ns", 4e9)
    t.count("step.phase.drain.calls", 100)
    t.count("step.phase.offer.ns", 1e9)
    t.count("step.phase.offer.calls", 50)
    t.count("engine.events.processed", 7)
    return t.to_document(run_id="run")


class TestDerivedStats:
    def test_executor_utilization(self):
        stats = executor_stats(build_document())
        assert stats["n_tasks"] == 2.0
        assert stats["busy_s"] == pytest.approx(14.0)
        assert stats["wall_s"] == pytest.approx(10.0)
        # 14s busy over 10s wall on 2 workers
        assert stats["utilization"] == pytest.approx(0.7)
        assert stats["max_queue_wait_s"] == pytest.approx(0.5)

    def test_a_unit_that_encloses_units_is_not_counted_twice(self):
        """A joint campaign run (a ``bucket`` span) whose rounds map bucket
        units: only the units it encloses are busy time."""
        t = Telemetry(label="joint")
        campaign = t.add_span("campaign:tiny", "campaign", 0.0, 10e6)
        joint = t.add_span("joint:2", "bucket", 1e6, 8e6, parent=campaign,
                           track="tasks")
        for k, start in enumerate((1e6, 1.5e6)):
            t.add_span(f"bucket[{k}]:b9", "bucket", start, 6e6, parent=joint,
                       track="tasks", args={"queue_wait_s": 0.0})
        t.gauge("executor.jobs", 2.0)
        stats = executor_stats(t.to_document(run_id="joint"))
        assert stats["busy_s"] == pytest.approx(12.0)
        assert stats["utilization"] == pytest.approx(0.6)

    def test_executor_stats_without_spans(self):
        stats = executor_stats(Telemetry().to_document())
        assert stats["n_tasks"] == 0.0
        assert stats["utilization"] == 0.0

    def test_phase_timing_sorted_by_cost(self):
        rows = phase_timing(build_document())
        assert [r[0] for r in rows] == ["drain", "offer"]
        assert rows[0][1] == pytest.approx(4000.0)  # ms
        assert rows[0][2] == 100.0

    def test_cache_hit_rate(self):
        stats = cache_stats(build_document(cache_hits=3))
        assert stats["hit_rate"] == pytest.approx(0.75)
        assert stats["bytes_written"] == 1234.0

    def test_cache_hit_rate_without_probes(self):
        assert cache_stats(Telemetry().to_document())["hit_rate"] == 0.0

    def test_batch_stats(self):
        from repro.obs.summary import batch_stats

        t = Telemetry(label="batched")
        t.count("batch.buckets", 2)
        t.count("batch.member_runs", 12)
        t.count("executor.tasks.completed", 14)
        t.count("batch.padded_slots", 32)
        t.count("batch.group_slots", 128)
        t.count("batch.ticks", 400)
        t.count("batch.member_steps", 1000)
        t.count("batch.lane_steps", 1250)
        t.count("batch.requests", 15)
        t.count("batch.repeats", 3)
        t.observe("batch.occupancy", 8.0)
        t.observe("batch.occupancy", 4.0)
        stats = batch_stats(t.to_document())
        assert stats["buckets"] == 2.0
        assert stats["requests"] == 15.0 and stats["repeats"] == 3.0
        assert stats["member_runs"] == 12.0
        assert "fallbacks" not in stats
        assert stats["ticks"] == 400.0
        assert stats["member_steps_per_tick"] == pytest.approx(2.5)
        assert stats["dead_lane_frac"] == pytest.approx(0.2)
        assert stats["mean_occupancy"] == pytest.approx(6.0)
        assert stats["max_occupancy"] == 8.0
        assert stats["padded_slots"] == 32.0
        assert stats["group_slots"] == 128.0
        assert stats["padded_waste"] == pytest.approx(0.25)

    def test_batch_stats_without_batching(self):
        from repro.obs.summary import batch_stats

        stats = batch_stats(Telemetry().to_document())
        assert stats["buckets"] == 0.0
        assert stats["member_steps_per_tick"] == 0.0
        assert stats["dead_lane_frac"] == 0.0
        assert stats["padded_waste"] == 0.0

    def test_kernel_counts_lane_steps(self):
        """Every run publishes the lanes it stepped as ``batch.lane_steps``.
        Finished members are compacted out of the kernel, so a bucket whose
        members finish at different ticks steps exactly its member steps:
        no dead lanes, as alone."""
        from repro.config.presets import make_scenario
        from repro.model.batch import run_bucket
        from repro.model.simulator import simulate_scenario
        from repro.obs.summary import batch_stats
        from repro.obs.telemetry import telemetry_session

        scenario = make_scenario("tiny")
        points = [scenario.with_delay(delta) for delta in (-0.3, 0.0, 0.3)]
        with telemetry_session("lanes") as telemetry:
            results = run_bucket(points)
            document = telemetry.to_document()
        steps = [r.n_steps for r in results]
        assert len(set(steps)) > 1
        counters = document["counters"]
        assert counters["batch.lane_steps"] == counters["batch.member_steps"] == sum(steps)
        bucket = batch_stats(document)
        assert bucket["ticks"] == max(steps)
        assert bucket["dead_lane_frac"] == 0.0
        with telemetry_session("alone") as telemetry:
            simulate_scenario(points[0])
            assert batch_stats(telemetry.to_document())["dead_lane_frac"] == 0.0


class TestSummarizeDocument:
    def test_report_sections(self):
        report = summarize_document(build_document(), run_dir="runs/x")
        assert "telemetry summary: summary (runs/x)" in report
        assert "utilization 70.0%" in report
        assert "2/4 hits (50.0%)" in report
        assert "drain" in report and "offer" in report
        assert "engine.events.processed" in report

    def test_batching_reports_requests_and_repeats(self):
        t = Telemetry(label="repeats")
        t.count("batch.buckets", 2)
        t.count("batch.member_runs", 7)
        t.count("batch.requests", 9)
        t.count("batch.repeats", 2)
        report = summarize_document(t.to_document())
        assert "7 simulations in 2 lockstep buckets" in report
        assert "9 requests, 2 repeats served by an equal request's result" in report
        plain = Telemetry(label="plain")
        plain.count("batch.buckets", 1)
        assert "requests" not in summarize_document(plain.to_document())

    def test_empty_document_reports_placeholders(self):
        report = summarize_document(Telemetry().to_document())
        assert "no cache activity recorded" in report
        assert "no step-phase timing recorded" in report
        assert "no batched simulation recorded" in report
        assert "lake" not in report  # section appears only when the lake ran

    def test_lake_section_reports_reconciliation(self):
        t = Telemetry(label="lake")
        t.count("lake.query", 2)
        t.count("lake.entries", 12)
        t.count("lake.reconcile.ghosts", 1)
        t.count("lake.reconcile.backfilled", 3)
        t.count("lake.reconcile.duplicates", 4)
        t.count("lake.compact.entries", 12)
        t.count("lake.compact.dropped", 5)
        report = summarize_document(t.to_document())
        assert "2 queries over 12 entries" in report
        assert "dropped 1 ghosts" in report
        assert "backfilled 3" in report
        assert "shadowed 4 duplicates" in report
        assert "compaction kept 12 lines, dropped 5" in report

    def test_resilience_section_reports_recovery_paths(self):
        t = Telemetry(label="chaos")
        t.count("executor.retries", 5)
        t.count("executor.timeouts", 1)
        t.count("executor.quarantined", 1)
        t.count("executor.pool_rebuilds", 2)
        t.count("batch.demotions", 3)
        report = summarize_document(t.to_document())
        assert "resilience" in report
        assert "5 retries, 1 timeouts, 1 quarantined, 2 pool rebuilds" in report
        assert "3 bucket members demoted to width-1 buckets" in report

    def test_resilience_section_absent_on_fault_free_runs(self):
        report = summarize_document(Telemetry().to_document())
        assert "resilience" not in report

    def test_lake_section_reports_corrupt_lines(self):
        t = Telemetry(label="lake")
        t.count("lake.entries", 3)
        t.count("lake.reconcile.corrupt_lines", 2)
        report = summarize_document(t.to_document())
        assert "skipped 2 corrupt index lines (compact heals them)" in report

    def test_batching_section_reports_kernel_fullness(self):
        t = Telemetry(label="batched")
        t.count("batch.buckets", 3)
        t.count("batch.member_runs", 13)
        t.count("executor.tasks.completed", 14)
        t.count("batch.padded_slots", 52)
        t.count("batch.group_slots", 520)
        t.count("batch.ticks", 800)
        t.count("batch.member_steps", 2000)
        t.observe("batch.occupancy", 7.0)
        t.observe("batch.occupancy", 4.0)
        t.observe("batch.occupancy", 2.0)
        t.count("batch.lane_steps", 2500)
        report = summarize_document(t.to_document())
        assert "13 simulations in 3 lockstep buckets\n" in report
        assert "fallback" not in report
        assert "kernel 800 ticks, 2.50 member-steps per tick, 20.0% dead lanes" in report
        assert "of executed tasks batched" not in report
        assert "occupancy mean 4.3 max 7 runs/tick per bucket" in report
        assert "padding 52/520 admission slots masked (10.0% waste)" in report


class TestDiffDocuments:
    def test_diff_lists_changed_counters(self):
        cold = build_document(cache_hits=0)
        warm = build_document(cache_hits=4)
        report = diff_documents(cold, warm, "cold", "warm")
        assert "telemetry diff: cold vs warm" in report
        assert "cache.hit" in report
        assert "(+4)" in report

    def test_identical_documents_diff_clean(self):
        doc = build_document()
        report = diff_documents(doc, json.loads(json.dumps(doc)))
        assert "all counters equal" in report


class TestLoadRunTelemetry:
    def test_loads_and_validates(self, tmp_path):
        document = build_document()
        (tmp_path / TELEMETRY_DOCUMENT_NAME).write_text(
            json.dumps(document), encoding="utf-8"
        )
        loaded = load_run_telemetry(tmp_path)
        assert loaded["run_id"] == "run"

    def test_missing_document_names_the_flag(self, tmp_path):
        with pytest.raises(TelemetryError, match="--telemetry"):
            load_run_telemetry(tmp_path)

    def test_unreadable_document_fails(self, tmp_path):
        (tmp_path / TELEMETRY_DOCUMENT_NAME).write_text("{", encoding="utf-8")
        with pytest.raises(TelemetryError, match="unreadable"):
            load_run_telemetry(tmp_path)

    def test_invalid_document_fails_validation(self, tmp_path):
        (tmp_path / TELEMETRY_DOCUMENT_NAME).write_text(
            '{"schema": "other"}', encoding="utf-8"
        )
        with pytest.raises(TelemetryError, match=r"\$\.schema"):
            load_run_telemetry(tmp_path)
