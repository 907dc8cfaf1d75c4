"""End-to-end tests of ``repro-io matrix --telemetry`` and ``repro-io obs``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.export import validate_chrome_trace
from repro.obs.schema import validate_events_jsonl, validate_telemetry_document
from repro.runner.store import load_manifest


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    """One cold and one warm telemetry-carrying matrix run (shared cache)."""
    root = tmp_path_factory.mktemp("obsruns")
    cache = str(root / "cache")

    def run(store):
        assert main([
            "matrix", "--archetypes", "streaming,checkpoint",
            "--scale", "tiny", "--cache-dir", cache,
            "--store", str(store), "--telemetry", "--no-output",
        ]) == 0
        return next(p for p in store.iterdir() if p.is_dir())

    cold = run(root / "cold")
    warm = run(root / "warm")
    return cold, warm


class TestMatrixTelemetryFlag:
    def test_run_dir_carries_validated_telemetry(self, telemetry_run, capsys):
        cold, _ = telemetry_run
        capsys.readouterr()
        document = json.loads(
            (cold / "telemetry.json").read_text(encoding="utf-8")
        )
        validate_telemetry_document(document)
        assert document["run_id"] == cold.name
        events = (cold / "telemetry_events.jsonl").read_text(encoding="utf-8")
        validate_events_jsonl(events)

    def test_manifest_references_telemetry_and_tasks(self, telemetry_run):
        cold, _ = telemetry_run
        manifest = load_manifest(cold)
        assert manifest["telemetry"]["document"] == "telemetry.json"
        assert "telemetry.json" in manifest["artifacts"]
        assert "telemetry_events.jsonl" in manifest["artifacts"]
        assert manifest["tasks"]
        for record in manifest["tasks"].values():
            assert record["origin"] in ("computed", "cache")

    def test_warm_rerun_is_all_cache_hits(self, telemetry_run):
        _, warm = telemetry_run
        document = json.loads(
            (warm / "telemetry.json").read_text(encoding="utf-8")
        )
        counters = document["counters"]
        assert counters["cache.probe"] > 0
        assert counters["cache.hit"] == counters["cache.probe"]  # 100% hits
        assert counters.get("cache.miss", 0) == 0
        assert counters["executor.tasks.cached"] == counters["cache.probe"]
        assert "executor.tasks.completed" not in counters
        manifest = load_manifest(warm)
        assert all(
            record["origin"] == "cache"
            for record in manifest["tasks"].values()
        )

    def test_telemetry_with_no_store_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--archetypes", "streaming,checkpoint",
                  "--telemetry", "--no-store", "--no-output"])
        assert excinfo.value.code == 2
        assert "--no-store" in capsys.readouterr().err

    def test_parser_accepts_flag(self):
        args = build_parser().parse_args(
            ["matrix", "--archetypes", "streaming,checkpoint", "--telemetry"]
        )
        assert args.telemetry is True


class TestObsSummary:
    def test_summary_reports_utilization_and_cache(self, telemetry_run, capsys):
        cold, _ = telemetry_run
        assert main(["obs", "summary", str(cold)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "utilization" in out
        assert "step phases" in out
        assert "control.starts" in out

    def test_summary_on_plain_run_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "summary", str(tmp_path)]) == 1
        assert "event=obs_failed" in capsys.readouterr().err


class TestObsExport:
    def test_export_writes_loadable_chrome_trace(self, telemetry_run,
                                                 tmp_path, capsys):
        cold, _ = telemetry_run
        out_file = tmp_path / "trace.json"
        assert main(["obs", "export", str(cold), "--output", str(out_file)]) == 0
        assert "event=trace_written" in capsys.readouterr().err
        trace = json.loads(out_file.read_text(encoding="utf-8"))
        validate_chrome_trace(trace)
        cats = {e.get("cat") for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"campaign", "task", "simulation", "phase"} <= cats

    def test_export_defaults_to_stdout(self, telemetry_run, capsys):
        cold, _ = telemetry_run
        assert main(["obs", "export", str(cold)]) == 0
        trace = json.loads(capsys.readouterr().out)
        validate_chrome_trace(trace)

    def test_export_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "export", "x", "--format", "xml"])


class TestObsDiff:
    def test_diff_cold_vs_warm(self, telemetry_run, capsys):
        cold, warm = telemetry_run
        assert main(["obs", "diff", str(cold), str(warm)]) == 0
        out = capsys.readouterr().out
        assert "telemetry diff" in out
        assert "cache.hit" in out  # cold run had zero hits, warm all hits

    def test_diff_missing_run_fails(self, telemetry_run, tmp_path, capsys):
        cold, _ = telemetry_run
        assert main(["obs", "diff", str(cold), str(tmp_path)]) == 1
        assert "event=obs_failed" in capsys.readouterr().err


class TestVerifyCacheEfficiency:
    def test_verify_reports_cache_efficiency(self, telemetry_run, capsys):
        _, warm = telemetry_run
        assert main(["verify", str(warm)]) == 0
        out = capsys.readouterr().out
        assert "1/1 runs verified" in out
        assert "cache efficiency: " in out
        assert "(100%)" in out
        assert "0.00s spent computing" in out

    def test_verify_stays_quiet_without_task_records(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        main(["matrix", "--archetypes", "streaming,checkpoint",
              "--scale", "tiny", "--store", store, "--no-output",
              "--no-cache"])
        capsys.readouterr()
        assert main(["verify", store]) == 0
        assert "cache efficiency" not in capsys.readouterr().out


class TestVerbosityFlags:
    def test_quiet_silences_progress(self, tmp_path, capsys):
        assert main(["--quiet", "matrix", "--archetypes",
                     "streaming,checkpoint", "--scale", "tiny",
                     "--store", str(tmp_path / "runs"), "--no-output",
                     "--no-cache"]) == 0
        assert capsys.readouterr().err == ""

    def test_progress_prints_by_default(self, tmp_path, capsys):
        assert main(["matrix", "--archetypes", "streaming,checkpoint",
                     "--scale", "tiny", "--store", str(tmp_path / "runs"),
                     "--no-output", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "event=matrix_task" in err
        assert "event=matrix_persisted" in err

    def test_parser_accepts_verbose(self):
        args = build_parser().parse_args(["--verbose", "list"])
        assert args.verbose is True
