"""Tests of the repro.perf package and the ``repro-io perf`` CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import PerfError
from repro.perf import (
    best_of_ns,
    check_regression,
    run_perf,
    scenarios_for_scale,
    validate_bench_document,
)
from repro.perf.compare import format_summary
from repro.perf.harness import CANONICAL_SCENARIOS, REFERENCE_BASELINE

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_stepper.json"


class TestTiming:
    def test_best_of_ns_returns_minimum_and_result(self):
        calls = []

        def runner():
            calls.append(1)
            return "done"

        best, result = best_of_ns(runner, repeats=3)
        assert len(calls) == 3
        assert best > 0
        assert result == "done"

    def test_setup_runs_untimed_per_repeat(self):
        seen = []
        best, result = best_of_ns(seen.append, repeats=2, setup=lambda: len(seen))
        assert seen == [0, 1]
        assert result is None

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            best_of_ns(lambda: None, repeats=0)


class TestHarness:
    def test_scenarios_for_scale(self):
        tiny = scenarios_for_scale("tiny")
        assert tiny and all(spec.scale == "tiny" for spec in tiny)
        assert scenarios_for_scale("reduced") == CANONICAL_SCENARIOS
        with pytest.raises(PerfError):
            scenarios_for_scale("paper")

    def test_run_perf_tiny_produces_valid_document(self):
        document = run_perf(scale="tiny", repeats=1)
        validate_bench_document(document)
        keys = set(document["scenarios"])
        assert keys == {spec.key for spec in scenarios_for_scale("tiny")}
        for key in keys & set(REFERENCE_BASELINE["scenarios"]):
            assert key in document["speedup"]
        assert "steps/s" in format_summary(document)

    def test_run_perf_profile_includes_phase_breakdown(self):
        document = run_perf(scale="tiny", repeats=1, profile=True)
        validate_bench_document(document)
        phases = document["phase_profile"]["phases"]
        assert "offer" in phases and "admission" in phases
        assert all(stats["calls"] > 0 for stats in phases.values())

    def test_rejects_bad_repeats(self):
        with pytest.raises(PerfError):
            run_perf(scale="tiny", repeats=0)


class TestSchema:
    def good_document(self):
        return {
            "schema": "repro-io/bench-stepper/v1",
            "python": "3.11.7",
            "scale": "tiny",
            "repeats": 3,
            "scenarios": {
                "active/x": {
                    "scale": "tiny", "kind": "active", "n_steps": 10,
                    "best_ns": 1000, "steps_per_sec": 100.0,
                },
            },
            "reference": {
                "label": "seed", "scenarios": {"active/x": {"steps_per_sec": 50.0}},
            },
            "speedup": {"active/x": 2.0},
        }

    def test_good_document_passes(self):
        validate_bench_document(self.good_document())

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(schema="nope"), "$.schema"),
        (lambda d: d.pop("python"), "$.python"),
        (lambda d: d.update(repeats=0), "$.repeats"),
        (lambda d: d.update(scenarios={}), "$.scenarios"),
        (lambda d: d["scenarios"]["active/x"].update(kind="weird"), ".kind"),
        (lambda d: d["scenarios"]["active/x"].update(n_steps=0), ".n_steps"),
        (lambda d: d["scenarios"]["active/x"].update(steps_per_sec=-1), ".steps_per_sec"),
        (lambda d: d["reference"].pop("label"), "$.reference.label"),
        (lambda d: d.update(speedup={"missing/key": 1.0}), "$.speedup"),
    ])
    def test_violations_name_the_offending_path(self, mutate, fragment):
        document = self.good_document()
        mutate(document)
        with pytest.raises(PerfError) as err:
            validate_bench_document(document)
        assert fragment in str(err.value)


class TestCompare:
    def document(self, steps_per_sec):
        return {
            "schema": "repro-io/bench-stepper/v1",
            "python": "3.11.7",
            "repeats": 3,
            "scenarios": {
                "active/x": {
                    "scale": "tiny", "kind": "active", "n_steps": 10,
                    "best_ns": 1000, "steps_per_sec": steps_per_sec,
                },
            },
        }

    def test_green_when_within_margin(self):
        assert check_regression(self.document(80.0), self.document(100.0)) == []

    def test_fails_on_regression_beyond_margin(self):
        failures = check_regression(self.document(60.0), self.document(100.0))
        assert len(failures) == 1
        assert "active/x" in failures[0]

    def test_only_shared_scenarios_compared(self):
        current = self.document(10.0)
        baseline = self.document(100.0)
        baseline["scenarios"] = {
            "active/other": baseline["scenarios"]["active/x"],
        }
        assert check_regression(current, baseline) == []

    def test_rejects_bad_ratio(self):
        with pytest.raises(PerfError):
            check_regression(self.document(1.0), self.document(1.0), min_ratio=0.0)


class TestSchemaV2:
    """Batched entries: the v2 additions to the bench document."""

    def batched_document(self):
        return {
            "schema": "repro-io/bench-stepper/v2",
            "python": "3.11.7",
            "scale": "tiny",
            "repeats": 3,
            "scenarios": {
                "active/x": {
                    "scale": "tiny", "kind": "active", "n_steps": 10,
                    "best_ns": 1000, "steps_per_sec": 100.0,
                },
                "batched/x@b8": {
                    "scale": "tiny", "kind": "batched", "batch": 8,
                    "n_steps": 10, "best_ns": 1000, "steps_per_sec": 400.0,
                },
            },
        }

    def test_valid_v2_document_passes(self):
        validate_bench_document(self.batched_document())

    def test_explicit_schema_id_pins_the_version(self):
        document = self.batched_document()
        validate_bench_document(document, "repro-io/bench-stepper/v2")
        with pytest.raises(PerfError, match=r"\$\.schema"):
            validate_bench_document(document, "repro-io/bench-stepper/v1")

    def test_batched_kind_is_not_valid_v1(self):
        document = self.batched_document()
        document["schema"] = "repro-io/bench-stepper/v1"
        with pytest.raises(PerfError, match=r"\.kind"):
            validate_bench_document(document)

    def test_batched_entry_requires_batch_width(self):
        document = self.batched_document()
        del document["scenarios"]["batched/x@b8"]["batch"]
        with pytest.raises(PerfError, match=r"\.batch"):
            validate_bench_document(document)

    def test_unknown_schema_version_rejected(self):
        document = self.batched_document()
        document["schema"] = "repro-io/bench-stepper/v9"
        with pytest.raises(PerfError, match=r"\$\.schema"):
            validate_bench_document(document)


class TestBatchedHarness:
    def test_run_perf_with_batch_sizes(self):
        document = run_perf(scale="tiny", repeats=1, batch_sizes=[1, 2])
        validate_bench_document(document)
        for batch in (1, 2):
            entry = document["scenarios"][f"batched/tiny-hdd-sync-on@b{batch}"]
            assert entry["kind"] == "batched"
            assert entry["batch"] == batch
            assert entry["steps_per_sec"] > 0

    def test_rejects_bad_batch_size(self):
        with pytest.raises(PerfError):
            run_perf(scale="tiny", repeats=1, batch_sizes=[0])

    def test_cli_parses_repeated_batch_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["perf", "--batch", "8", "--batch", "32"])
        assert args.batch == [8, 32]
        assert build_parser().parse_args(["perf"]).batch is None

    def test_cli_rejects_bad_batch(self):
        with pytest.raises(SystemExit) as err:
            main(["perf", "--batch", "0"])
        assert err.value.code == 2


class TestCommittedBaseline:
    """The committed BENCH_stepper.json is the perf trajectory's anchor."""

    def test_committed_document_is_schema_valid(self):
        document = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        validate_bench_document(document, "repro-io/bench-stepper/v2")

    def test_committed_document_records_the_kernel_speedup(self):
        """The tentpole claim: >= 1.8x steps/sec on the canonical
        active-phase scenario, relative to the recorded seed kernel."""
        document = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        assert document["speedup"]["active/reduced-hdd-sync-on"] >= 1.8

    def test_committed_document_covers_the_ci_smoke_scenarios(self):
        document = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        for spec in scenarios_for_scale("tiny"):
            assert spec.key in document["scenarios"]

    def test_committed_batched_curve(self):
        """The batched-kernel claim: the committed curve covers
        B in {1, 8, 32, 128} and B=32 delivers >= 2x per-scenario
        throughput over the scalar active-phase kernel."""
        from repro.perf.harness import DEFAULT_BATCH_SIZES

        document = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        scalar = float(
            document["scenarios"]["active/tiny-hdd-sync-on"]["steps_per_sec"]
        )
        for batch in DEFAULT_BATCH_SIZES:
            entry = document["scenarios"][f"batched/tiny-hdd-sync-on@b{batch}"]
            assert entry["batch"] == batch
        b32 = float(
            document["scenarios"]["batched/tiny-hdd-sync-on@b32"]["steps_per_sec"]
        )
        assert b32 >= 2.0 * scalar


class TestPerfCli:
    def test_parses_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["perf"])
        assert args.repeats == 5
        # The scale/output/baseline defaults are mode-dependent (reduced and
        # BENCH_stepper.json for the stepper bench, BENCH_campaign.json with
        # --campaign, tiny for --explain-buckets), so argparse leaves them
        # None and _command_perf resolves them.
        assert args.scale is None
        assert args.output is None
        assert args.baseline is None
        assert not args.campaign
        assert args.min_ratio == 0.7

    def test_stepper_bench_defaults_to_reduced(self, monkeypatch):
        import repro.perf
        from repro.cli import main

        class Measured(Exception):
            pass

        seen = {}

        def fake_run_perf(**kwargs):
            seen.update(kwargs)
            raise Measured

        monkeypatch.setattr(repro.perf, "run_perf", fake_run_perf)
        with pytest.raises(Measured):
            main(["perf", "--no-output"])
        assert seen["scale"] == "reduced"

    @pytest.mark.parametrize("argv", [
        ["perf", "--repeats", "0"],
        ["perf", "--repeats", "many"],
        ["perf", "--min-ratio", "0"],
        ["perf", "--min-ratio", "1.5"],
        ["perf", "--scale", "paper"],
    ])
    def test_bad_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_writes_and_checks_against_itself(self, tmp_path, capsys):
        output = tmp_path / "BENCH_stepper.json"
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(output),
        ]) == 0
        document = json.loads(output.read_text(encoding="utf-8"))
        validate_bench_document(document)
        # A fresh measurement against its own file must pass the gate.
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(tmp_path / "fresh.json"),
            "--check", "--baseline", str(output), "--min-ratio", "0.1",
        ]) == 0
        assert "event=perf_gate status=green" in capsys.readouterr().err

    def test_check_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        document = run_perf(scale="tiny", repeats=1)
        for entry in document["scenarios"].values():
            entry["steps_per_sec"] = float(entry["steps_per_sec"]) * 1e6
        baseline.write_text(json.dumps(document) + "\n", encoding="utf-8")
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(tmp_path / "fresh.json"),
            "--check", "--baseline", str(baseline),
        ]) == 1
        assert "event=perf_regression" in capsys.readouterr().err

    def test_check_fails_when_baseline_missing(self, tmp_path, capsys):
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(tmp_path / "fresh.json"),
            "--check", "--baseline", str(tmp_path / "absent.json"),
        ]) == 1
        assert "not found" in capsys.readouterr().err

    def test_no_output_prints_document(self, capsys):
        assert main(["perf", "--scale", "tiny", "--repeats", "1", "--no-output"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        validate_bench_document(document)


class TestProfilerReset:
    def test_reset_clears_counters(self):
        from repro.perf.counters import StepProfiler

        profiler = StepProfiler()
        with profiler.phase("x"):
            pass
        assert profiler.phases == ("x",)
        profiler.reset()
        assert profiler.phases == ()
        assert profiler.report() == {}


class TestPerfCliMalformedBaseline:
    def test_check_fails_on_malformed_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"schema": "wrong"}', encoding="utf-8")
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(tmp_path / "fresh.json"),
            "--check", "--baseline", str(baseline),
        ]) == 1
        assert "event=perf_fail" in capsys.readouterr().err


class TestPerfCliBaselineProtection:
    def test_check_does_not_overwrite_the_baseline(self, tmp_path, capsys):
        """The default --output and --baseline are the same committed file; a
        --check run must compare against the original content, not clobber it
        and compare the fresh run with itself."""
        baseline = tmp_path / "BENCH_stepper.json"
        document = run_perf(scale="tiny", repeats=1)
        original = json.dumps(document, indent=2, sort_keys=True) + "\n"
        baseline.write_text(original, encoding="utf-8")
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(baseline),
            "--check", "--baseline", str(baseline), "--min-ratio", "0.1",
        ]) == 0
        assert baseline.read_text(encoding="utf-8") == original
        assert "not overwriting" in capsys.readouterr().err


class TestCheckOverhead:
    """The telemetry-overhead gate (perf --check --max-overhead)."""

    @staticmethod
    def bench(steps_per_sec):
        return {
            "schema": "repro-io/bench-stepper/v1",
            "python": "3.11",
            "repeats": 1,
            "scenarios": {
                "tiny/active": {
                    "scale": "tiny", "kind": "active", "n_steps": 100,
                    "best_ns": 1000, "steps_per_sec": float(steps_per_sec),
                },
            },
        }

    def test_within_bound_passes(self):
        from repro.perf import check_overhead

        assert check_overhead(self.bench(99.0), self.bench(100.0), 0.02) == []

    def test_beyond_bound_fails_with_percentages(self):
        from repro.perf import check_overhead

        failures = check_overhead(self.bench(90.0), self.bench(100.0), 0.02)
        assert len(failures) == 1
        assert "tiny/active" in failures[0]
        assert "10.0%" in failures[0]
        assert "2.0%" in failures[0]

    def test_faster_than_baseline_passes(self):
        from repro.perf import check_overhead

        assert check_overhead(self.bench(120.0), self.bench(100.0), 0.0) == []

    def test_only_shared_scenarios_gate(self):
        from repro.perf import check_overhead

        current = self.bench(50.0)
        current["scenarios"]["other/active"] = current["scenarios"].pop(
            "tiny/active"
        )
        assert check_overhead(current, self.bench(100.0), 0.02) == []

    def test_rejects_bad_bound(self):
        from repro.perf import check_overhead

        for bound in (-0.1, 1.0, 2.0):
            with pytest.raises(PerfError, match="max_overhead"):
                check_overhead(self.bench(1.0), self.bench(1.0), bound)

    def test_cli_requires_check_with_max_overhead(self, capsys):
        assert main(["perf", "--scale", "tiny", "--repeats", "1",
                     "--no-output", "--max-overhead", "0.02"]) == 2
        assert "requires --check" in capsys.readouterr().err

    def test_cli_rejects_out_of_range_max_overhead(self):
        with pytest.raises(SystemExit):
            main(["perf", "--check", "--max-overhead", "1.5"])

    def test_cli_gate_with_overhead_bound(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        document = run_perf(scale="tiny", repeats=1)
        # A generous bound against a self-measured baseline must pass...
        for entry in document["scenarios"].values():
            entry["steps_per_sec"] = float(entry["steps_per_sec"]) * 0.5
        baseline.write_text(json.dumps(document) + "\n", encoding="utf-8")
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(tmp_path / "fresh.json"),
            "--check", "--baseline", str(baseline),
            "--min-ratio", "0.1", "--max-overhead", "0.99",
        ]) == 0
        err = capsys.readouterr().err
        assert "event=perf_gate status=green" in err
        assert "overhead" in err

    def test_cli_gate_fails_beyond_overhead_bound(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        document = run_perf(scale="tiny", repeats=1)
        # ...and an impossible baseline must trip the overhead gate.
        for entry in document["scenarios"].values():
            entry["steps_per_sec"] = float(entry["steps_per_sec"]) * 1e6
        baseline.write_text(json.dumps(document) + "\n", encoding="utf-8")
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(tmp_path / "fresh.json"),
            "--check", "--baseline", str(baseline),
            "--min-ratio", "0.0000001", "--max-overhead", "0.5",
        ]) == 1
        assert "event=perf_regression" in capsys.readouterr().err
