"""Tests of the interference-matrix campaign (runs, cache, reports, store)."""

import json

import pytest

from repro.analysis.interference import (
    MATRIX_SECTION_BEGIN,
    MATRIX_SECTION_END,
    matrix_heatmap_markdown,
    matrix_report_markdown,
    pair_asymmetry,
    severity,
    slowdown,
    update_experiments_section,
)
from repro.analysis.interference import dilation as dilation_metric
from repro.errors import AnalysisError, ConfigurationError, ExperimentError
from repro.runner.store import verify_manifest
from repro.scenarios.matrix import InterferenceMatrix, run_interference_matrix, store_matrix
from repro.scenarios.spec import ScenarioSpec

ARCHES = ["checkpoint", "analytics"]


@pytest.fixture(scope="module")
def tiny_matrix():
    """One cached 2x2 matrix shared by every read-only test."""
    return run_interference_matrix(ARCHES, "tiny")


class TestMetrics:
    def test_slowdown(self):
        assert slowdown(2.0, 1.0) == 2.0
        assert slowdown(0.5, 1.0) == 0.5
        with pytest.raises(AnalysisError):
            slowdown(1.0, 0.0)
        with pytest.raises(AnalysisError):
            slowdown(-1.0, 1.0)

    def test_dilation(self):
        assert dilation_metric(3.0, 1.0, 2.0) == 1.5
        with pytest.raises(AnalysisError):
            dilation_metric(1.0, 0.0, 0.0)

    def test_pair_asymmetry(self):
        assert pair_asymmetry(2.0, 1.5) == pytest.approx(0.5)
        assert pair_asymmetry(1.0, 1.0) == 0.0

    def test_severity_bands(self):
        assert severity(1.0) == "none"
        assert severity(1.1) == "mild"
        assert severity(1.3) == "moderate"
        assert severity(1.7) == "high"
        assert severity(2.5) == "severe"


class TestCampaign:
    def test_matrix_is_complete(self, tiny_matrix):
        m = tiny_matrix
        assert m.names == ARCHES
        assert set(m.alone) == set(ARCHES)
        assert len(m.cells) == 3  # N(N+1)/2 unordered pairs incl. diagonal
        for victim in ARCHES:
            for aggressor in ARCHES:
                assert m.slowdown_of(victim, aggressor) > 0.9

    def test_co_running_hurts(self, tiny_matrix):
        """Both self-pairings on a contended deployment slow each side down."""
        for name in ARCHES:
            assert tiny_matrix.slowdown_of(name, name) > 1.1

    def test_cells_carry_root_cause(self, tiny_matrix):
        for cell in tiny_matrix.cells_in_order():
            assert cell.root_cause
            assert cell.root_cause_scores
            assert cell.window_collapses >= 0
            assert cell.makespan > 0

    def test_worst_pair_and_describe(self, tiny_matrix):
        worst = tiny_matrix.worst_pair()
        peak = max(worst.slowdown_a, worst.slowdown_b)
        for cell in tiny_matrix.cells_in_order():
            assert peak >= max(cell.slowdown_a, cell.slowdown_b)
        assert worst.a in tiny_matrix.describe()

    def test_needs_two_archetypes(self):
        with pytest.raises(ExperimentError):
            run_interference_matrix(["checkpoint"], "tiny")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ExperimentError, match="duplicate"):
            run_interference_matrix(["checkpoint", "checkpoint"], "tiny")

    def test_named_specs_allow_same_archetype_twice(self):
        m = run_interference_matrix(
            [ScenarioSpec("checkpoint"),
             ScenarioSpec("checkpoint", name="ckpt2", procs_per_node=1)],
            "tiny",
        )
        assert m.names == ["checkpoint", "ckpt2"]
        assert m.slowdown_of("ckpt2", "checkpoint") > 0.9

    def test_rejects_unknown_options(self):
        with pytest.raises(ConfigurationError, match="unknown matrix options"):
            run_interference_matrix(ARCHES, "tiny", wormhole=True)

    def test_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        seen = []
        m1 = run_interference_matrix(
            ARCHES, "tiny", cache_dir=cache_dir,
            progress=lambda t, c: seen.append((t, c)),
        )
        assert seen and all(not cached for _, cached in seen)
        seen.clear()
        m2 = run_interference_matrix(
            ARCHES, "tiny", cache_dir=cache_dir,
            progress=lambda t, c: seen.append((t, c)),
        )
        assert seen and all(cached for _, cached in seen)  # 100% warm hits
        assert m1.to_dict() == m2.to_dict()

    def test_options_split_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_interference_matrix(ARCHES, "tiny", cache_dir=cache_dir)
        seen = []
        run_interference_matrix(
            ARCHES, "tiny", cache_dir=cache_dir, delay=0.25,
            progress=lambda t, c: seen.append(c),
        )
        # Alone runs are delay-independent (same fingerprint -> cache hits);
        # every pair run re-executes under the new delay.
        assert seen.count(True) == len(ARCHES)
        assert seen.count(False) == 3

    def test_parallel_equals_serial(self, tmp_path, tiny_matrix):
        parallel = run_interference_matrix(ARCHES, "tiny", jobs=2)
        assert parallel.to_dict() == tiny_matrix.to_dict()


class TestReports:
    def test_heatmap_has_full_grid(self, tiny_matrix):
        heatmap = matrix_heatmap_markdown(tiny_matrix)
        lines = heatmap.splitlines()
        assert len(lines) == 2 + len(ARCHES)
        for name in ARCHES:
            assert name in lines[0]

    def test_report_mentions_everything(self, tiny_matrix):
        text = matrix_report_markdown(tiny_matrix)
        for name in ARCHES:
            assert name in text
        assert "Interference matrix" in text
        assert "dominant root cause" in text
        assert "repro-io matrix --archetypes checkpoint,analytics" in text

    def test_update_creates_file_with_markers(self, tmp_path, tiny_matrix):
        path = tmp_path / "EXPERIMENTS.md"
        section = matrix_report_markdown(tiny_matrix)
        content = update_experiments_section(str(path), section)
        assert path.read_text(encoding="utf-8") == content
        assert content.startswith(MATRIX_SECTION_BEGIN)
        assert MATRIX_SECTION_END in content

    def test_update_is_idempotent(self, tmp_path, tiny_matrix):
        path = tmp_path / "EXPERIMENTS.md"
        section = matrix_report_markdown(tiny_matrix)
        first = update_experiments_section(str(path), section)
        second = update_experiments_section(str(path), section)
        assert first == second  # byte-identical on re-run

    def test_update_preserves_surrounding_report(self, tmp_path, tiny_matrix):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text("# EXPERIMENTS\n\ncampaign prose\n", encoding="utf-8")
        section = matrix_report_markdown(tiny_matrix)
        content = update_experiments_section(str(path), section)
        assert content.startswith("# EXPERIMENTS\n")
        assert "campaign prose" in content
        # Replacing the section again touches only the marked block.
        replaced = update_experiments_section(str(path), "NEW SECTION")
        assert "campaign prose" in replaced
        assert "NEW SECTION" in replaced
        assert section.splitlines()[0] not in replaced


class TestStore:
    def test_store_writes_verifiable_run(self, tmp_path, tiny_matrix):
        run_dir = store_matrix(tiny_matrix, str(tmp_path / "runs"))
        ok, issues = verify_manifest(run_dir)
        assert ok, issues
        with open(f"{run_dir}/matrix.json", "r", encoding="utf-8") as handle:
            document = json.load(handle)
        rebuilt = InterferenceMatrix.from_dict(document)
        assert rebuilt.to_dict() == tiny_matrix.to_dict()

    def test_store_is_deterministic(self, tmp_path, tiny_matrix):
        root = tmp_path / "runs"
        first = store_matrix(tiny_matrix, str(root))
        manifest_1 = (root / first.split("/")[-1] / "manifest.json").read_bytes()
        second = store_matrix(tiny_matrix, str(root))
        assert first == second  # same fingerprint-derived run id
        manifest_2 = (root / second.split("/")[-1] / "manifest.json").read_bytes()
        assert manifest_1 == manifest_2  # byte-identical re-store


class TestDegradationAndResume:
    def test_matrix_run_id_is_deterministic_and_input_only(self):
        from repro.scenarios.matrix import matrix_run_id

        a = matrix_run_id(ARCHES, "tiny", device="hdd")
        assert a == matrix_run_id(ARCHES, "tiny", device="hdd")
        assert a.startswith("matrix_")
        assert a != matrix_run_id(ARCHES, "tiny", device="ssd")
        assert a != matrix_run_id(ARCHES, "reduced", device="hdd")

    def test_transient_bucket_fault_demotes_to_scalar(self, tmp_path):
        """A failing bucket degrades its members to runs alone (width-1
        units).

        The fault fires once per member on attempt 0 (the bucket pass);
        the demoted member's first attempt re-injects, and its retry then
        completes — so the matrix comes out whole, with the demotion and
        retries visible in the counters and no quarantined tasks.
        """
        from repro.obs.telemetry import telemetry_session
        from repro.runner.chaos import FaultPlan, FaultSpec, fault_plan
        from repro.runner.executor import FaultPolicy

        policy = FaultPolicy(max_retries=2, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        plan = FaultPlan.of(
            FaultSpec(match="pair:checkpoint+analytics", times=1)
        )
        with telemetry_session("demotion") as telemetry:
            with fault_plan(plan):
                matrix = run_interference_matrix(
                    ARCHES, "tiny", cache_dir=str(tmp_path / "cache"),
                    fault_policy=policy,
                )
            counters = telemetry.snapshot()["counters"]
        assert counters["batch.demotions"] >= 1
        # Demotions are not quarantines: every member recovered.
        assert counters.get("executor.quarantined", 0) == 0
        assert matrix.failed_tasks == []
        assert matrix.cell("checkpoint", "analytics") is not None

    def test_crash_on_bucket_member_at_jobs1_is_demoted_in_process(
        self, tmp_path, tiny_matrix
    ):
        """At ``--jobs 1`` buckets run inside the supervisor process, so a
        chaos ``crash`` there must become an exception, not an exit: the
        bucket is demoted, the member's retry alone completes, and the
        matrix comes out whole and unchanged."""
        from repro.obs.telemetry import telemetry_session
        from repro.runner.chaos import FaultPlan, FaultSpec, fault_plan
        from repro.runner.executor import FaultPolicy

        policy = FaultPolicy(max_retries=2, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        plan = FaultPlan.of(
            FaultSpec(match="pair:checkpoint+analytics", mode="crash", times=1)
        )
        with telemetry_session("crash") as telemetry:
            with fault_plan(plan):
                matrix = run_interference_matrix(
                    ARCHES, "tiny", jobs=1, cache_dir=str(tmp_path / "cache"),
                    fault_policy=policy,
                )
            counters = telemetry.snapshot()["counters"]
        assert counters["batch.demotions"] >= 1
        assert counters["executor.retries"] >= 1
        assert matrix.failed_tasks == []
        assert matrix.to_dict() == tiny_matrix.to_dict()

    def test_quarantined_pair_yields_partial_matrix(self, tmp_path):
        from repro.runner.chaos import FaultPlan, FaultSpec, fault_plan
        from repro.runner.executor import FaultPolicy

        policy = FaultPolicy(max_retries=0, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        plan = FaultPlan.of(
            FaultSpec(match="pair:checkpoint+analytics", times=99)
        )
        with fault_plan(plan):
            matrix = run_interference_matrix(
                ARCHES, "tiny", cache_dir=str(tmp_path / "cache"),
                fault_policy=policy,
            )
        assert [f["task_id"] for f in matrix.failed_tasks] == [
            "pair:checkpoint+analytics"
        ]
        assert matrix.cell_or_none("checkpoint", "analytics") is None
        with pytest.raises(AnalysisError):
            matrix.cell("checkpoint", "analytics")
        assert "quarantined" in matrix.describe()
        # The report renders the degraded matrix without raising, with a
        # dash for the missing cell and the quarantine table at the end.
        report = matrix_report_markdown(matrix)
        assert "Failed tasks (quarantined)" in report
        assert "—" in matrix_heatmap_markdown(matrix)

    def test_a_quarantine_record_keeps_the_matrix_kind(self, tmp_path):
        """Runs alone are ``bucket`` units, but a quarantined task is
        recorded under its matrix kind, as in ``matrix.json``."""
        from repro.runner.chaos import FaultPlan, FaultSpec, fault_plan
        from repro.runner.executor import FaultPolicy

        policy = FaultPolicy(max_retries=0)
        plan = FaultPlan.of(
            FaultSpec(match="pair:checkpoint+analytics", times=99),
            FaultSpec(match="alone:analytics", times=99),
        )
        with fault_plan(plan):
            matrix = run_interference_matrix(ARCHES, "tiny", fault_policy=policy)
        assert {f["task_id"]: f["kind"] for f in matrix.failed_tasks} == {
            "alone:analytics": "matrix-alone",
            "pair:checkpoint+analytics": "matrix-pair",
        }
        assert all(f["attempts"] == 1 for f in matrix.failed_tasks)

    def test_demoted_members_run_in_task_order(self, monkeypatch):
        """Both buckets of a two-worker plan fail; their members then run
        alone in task order, not in the order their buckets failed."""
        from repro.runner import executor
        from repro.runner.chaos import FaultPlan, FaultSpec, fault_plan
        from repro.runner.executor import FaultPolicy

        submitted = []
        original = executor.ParallelExecutor.map

        def recording(self, tasks, *args, **kwargs):
            submitted.append([task.task_id for task in tasks])
            return original(self, tasks, *args, **kwargs)

        monkeypatch.setattr(executor.ParallelExecutor, "map", recording)
        policy = FaultPolicy(max_retries=1, backoff_base_s=0.001,
                             backoff_cap_s=0.002)
        with fault_plan(FaultPlan.of(FaultSpec(match="", times=1)), env=True):
            matrix = run_interference_matrix(
                ARCHES, "tiny", jobs=2, fault_policy=policy
            )
        units, alone = submitted
        assert len(units) == 2
        assert alone == [
            "alone:checkpoint", "alone:analytics", "pair:checkpoint+checkpoint",
            "pair:checkpoint+analytics", "pair:analytics+analytics",
        ]
        assert matrix.failed_tasks == []
        assert len(matrix.cells) == 3

    def test_every_matrix_run_records_no_trace(self, monkeypatch):
        """What the matrix keeps of a run reads no trace recorder, so its
        runs record nothing, batched or alone."""
        from repro.model import batch
        from repro.sim.tracing import UNTRACED

        runs = []
        run_bucket = batch.run_bucket

        def recording(members):
            results = run_bucket(members)
            runs.extend(results)
            return results

        monkeypatch.setattr(batch, "run_bucket", recording)
        batched = run_interference_matrix(ARCHES, "tiny")
        alone = run_interference_matrix(ARCHES, "tiny", batch=False)
        assert batched.to_dict() == alone.to_dict()
        assert len(runs) == 10
        for run in runs:
            assert run.scenario.control.trace == UNTRACED
            assert run.recorder.series_names() == []
            assert run.recorder.marks == ()

    def test_failed_tasks_round_trip_and_stay_absent_when_clean(self, tiny_matrix):
        document = tiny_matrix.to_dict()
        assert "failed_tasks" not in document  # clean runs keep the old shape
        clone = InterferenceMatrix.from_dict(document)
        assert clone.failed_tasks == []
