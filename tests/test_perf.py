"""Tests of the repro.perf package and the ``repro-io perf`` CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import PerfError
from repro.perf import (
    BENCH_SCHEMA_ID,
    best_of_ns,
    check_ratios,
    format_summary,
    run_perf,
    scenarios_for_scale,
    validate_bench_document,
)
from repro.perf.harness import (
    BATCH_FLOOR,
    CANONICAL_SCENARIOS,
    REFERENCE_BASELINE,
    TELEMETRY_FLOOR,
    TELEMETRY_SUFFIX,
)

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
        tiny = {spec.key for spec in scenarios_for_scale("tiny")}
        assert keys == tiny | {"e2e/tiny-hdd-sync-on" + TELEMETRY_SUFFIX}
        twin = document["scenarios"]["e2e/tiny-hdd-sync-on" + TELEMETRY_SUFFIX]
        assert twin["kind"] == "e2e"
        assert twin["n_steps"] == document["scenarios"]["e2e/tiny-hdd-sync-on"]["n_steps"]
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

    def test_rounds_interleave_the_entries_and_keep_each_fastest(self, monkeypatch):
        """Each round times every entry once, so a busy spell slows both
        sides of a gated ratio alike; each entry keeps its fastest round."""
        import repro.perf.harness as harness
        from repro.obs.telemetry import get_telemetry

        rounds = {"active": [3, 1, 2], "e2e": [2, 3, 1], "telemetry": [1, 2, 3]}
        calls = []

        def timed(label):
            calls.append(label)
            best_ns = rounds[label][sum(1 for c in calls if c == label) - 1]
            return {"scale": "tiny", "kind": "active", "n_steps": 10,
                    "best_ns": best_ns, "steps_per_sec": 10 / best_ns}

        monkeypatch.setattr(harness, "_measure_batched", lambda *args: timed("active"))
        monkeypatch.setattr(harness, "_measure_e2e", lambda spec: timed(
            "telemetry" if get_telemetry().enabled else "e2e"
        ))
        document = run_perf(scale="tiny", repeats=3)
        assert calls == ["active", "e2e", "telemetry"] * 3
        assert {key: entry["best_ns"] for key, entry in document["scenarios"].items()} == {
            "active/tiny-hdd-sync-on": 1,
            "e2e/tiny-hdd-sync-on": 1,
            "e2e/tiny-hdd-sync-on" + TELEMETRY_SUFFIX: 1,
        }


class TestSchema:
    def good_document(self):
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
        (lambda d: d.update(schema="repro-io/bench-stepper/v1"), "$.schema"),
        (lambda d: d.pop("python"), "$.python"),
        (lambda d: d.update(repeats=0), "$.repeats"),
        (lambda d: d.update(scenarios={}), "$.scenarios"),
        (lambda d: d["scenarios"].update({"active/x": 3}), "$.scenarios['active/x']"),
        (lambda d: d["scenarios"]["active/x"].update(scale=1), ".scale"),
        (lambda d: d["scenarios"]["active/x"].update(kind="weird"), ".kind"),
        (lambda d: d["scenarios"]["active/x"].update(n_steps=0), ".n_steps"),
        (lambda d: d["scenarios"]["active/x"].update(best_ns=0), ".best_ns"),
        (lambda d: d["scenarios"]["active/x"].update(steps_per_sec=-1), ".steps_per_sec"),
        (lambda d: d.update(reference=[]), "$.reference"),
        (lambda d: d["reference"].pop("label"), "$.reference.label"),
        (lambda d: d["reference"].update(scenarios=[]), "$.reference.scenarios"),
        (lambda d: d["reference"]["scenarios"]["active/x"].update(steps_per_sec=0),
         "$.reference.scenarios['active/x'].steps_per_sec"),
        (lambda d: d.update(speedup=[]), "$.speedup"),
        (lambda d: d["speedup"].update({"active/x": 0}), "$.speedup['active/x']"),
        (lambda d: d.update(speedup={"missing/key": 1.0}), "$.speedup"),
    ])
    def test_violations_name_the_offending_path(self, mutate, fragment):
        document = self.good_document()
        mutate(document)
        with pytest.raises(PerfError) as err:
            validate_bench_document(document)
        assert fragment in str(err.value)


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
        validate_bench_document(document)
        assert document["schema"] == BENCH_SCHEMA_ID

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
        # The scale default depends on the mode (reduced for the stepper
        # bench, tiny for --explain-buckets), so argparse leaves it None
        # and _command_perf resolves it.
        assert args.scale is None
        assert args.output == "BENCH_stepper.json"
        assert args.archetypes == ["checkpoint", "analytics", "smallfile", "incast"]
        assert not args.check

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
        ["perf", "--scale", "paper"],
        # The cross-machine gates are gone, not silently ignored.
        ["perf", "--campaign"],
        ["perf", "--check", "--baseline", "BENCH_stepper.json"],
        ["perf", "--check", "--min-ratio", "0.7"],
        ["perf", "--check", "--max-overhead", "0.02"],
    ])
    def test_bad_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_writes_the_document(self, tmp_path):
        output = tmp_path / "BENCH_stepper.json"
        assert main([
            "perf", "--scale", "tiny", "--repeats", "1",
            "--output", str(output),
        ]) == 0
        validate_bench_document(json.loads(output.read_text(encoding="utf-8")))

    def test_no_output_prints_document(self, capsys):
        assert main(["perf", "--scale", "tiny", "--repeats", "1", "--no-output"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        validate_bench_document(document)


def ratio_document(b8=4.0, telemetry=0.8):
    """A bench document whose b8 / B=1 ratio is ``b8`` and whose tiny
    end-to-end run keeps ``telemetry`` of its throughput with telemetry on."""

    def entry(kind, steps_per_sec, **extra):
        return {"scale": "tiny", "kind": kind, "n_steps": 150, "best_ns": 1000,
                "steps_per_sec": float(steps_per_sec), **extra}

    return {
        "schema": BENCH_SCHEMA_ID,
        "python": "3.11.7",
        "repeats": 5,
        "scenarios": {
            "active/tiny-hdd-sync-on": entry("active", 1000.0),
            "batched/tiny-hdd-sync-on@b8": entry("batched", 1000.0 * b8, batch=8),
            "e2e/tiny-hdd-sync-on": entry("e2e", 900.0),
            "e2e/tiny-hdd-sync-on@telemetry": entry("e2e", 900.0 * telemetry),
        },
    }


class TestRatioGate:
    """``perf --check``: ratios of entries measured in one run."""

    def test_passes_at_both_floors(self):
        assert check_ratios(ratio_document(BATCH_FLOOR, TELEMETRY_FLOOR)) == []

    @pytest.mark.parametrize("b8, telemetry, pair", [
        (BATCH_FLOOR - 0.01, TELEMETRY_FLOOR,
         "batched/tiny-hdd-sync-on@b8 / active/tiny-hdd-sync-on = 2.49"),
        (BATCH_FLOOR, TELEMETRY_FLOOR - 0.01,
         "e2e/tiny-hdd-sync-on@telemetry / e2e/tiny-hdd-sync-on = 0.59"),
    ], ids=["batched", "telemetry"])
    def test_each_floor_fails_naming_its_pair_and_ratio(self, b8, telemetry, pair):
        (failure,) = check_ratios(ratio_document(b8, telemetry))
        assert failure.startswith(pair)

    @pytest.mark.parametrize("width, gated", [
        (1, False), (4, False), (8, True), (32, True), (128, True),
    ])
    def test_every_width_from_8_is_gated(self, width, gated):
        document = ratio_document()
        document["scenarios"][f"batched/tiny-hdd-sync-on@b{width}"] = dict(
            document["scenarios"]["batched/tiny-hdd-sync-on@b8"],
            batch=width, steps_per_sec=1000.0 * (BATCH_FLOOR - 0.5),
        )
        assert len(check_ratios(document)) == int(gated)

    @pytest.mark.parametrize("missing, message", [
        ("batched/tiny-hdd-sync-on@b8", "to gate"),
        ("e2e/tiny-hdd-sync-on@telemetry", "to gate"),
        ("active/tiny-hdd-sync-on", "no active/tiny-hdd-sync-on entry"),
        ("e2e/tiny-hdd-sync-on", "no e2e/tiny-hdd-sync-on entry"),
    ])
    def test_a_document_without_a_gated_pair_raises(self, missing, message):
        document = ratio_document()
        del document["scenarios"][missing]
        with pytest.raises(PerfError, match=message):
            check_ratios(document)

    @pytest.mark.parametrize("b8, telemetry, code", [
        (4.0, 0.8, 0), (2.0, 0.8, 1), (4.0, 0.5, 1),
    ])
    def test_cli_exit_codes(self, monkeypatch, capsys, b8, telemetry, code):
        import repro.perf

        monkeypatch.setattr(
            repro.perf, "run_perf", lambda **kwargs: ratio_document(b8, telemetry)
        )
        assert main(["perf", "--batch", "8", "--check", "--no-output"]) == code
        err = capsys.readouterr().err
        if code:
            assert "event=perf_regression" in err and "below the floor" in err
        else:
            assert "event=perf_gate status=green" in err

    @pytest.mark.parametrize("argv", [
        ["perf", "--check"], ["perf", "--check", "--batch", "1", "--batch", "4"],
    ])
    def test_check_without_a_wide_batch_is_a_usage_error(self, monkeypatch, capsys, argv):
        import repro.perf

        def measure(**kwargs):
            raise AssertionError("a usage error must not measure")

        monkeypatch.setattr(repro.perf, "run_perf", measure)
        assert main(argv) == 2
        assert "event=perf_usage" in capsys.readouterr().err


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


class TestTelemetryProfiler:
    def test_telemetry_times_phases_without_allocation_probes(self, monkeypatch):
        """Telemetry times every kernel phase, and never calls the
        allocation probe that only ``perf --profile`` pays for."""
        import sys

        from repro.config.presets import make_scenario
        from repro.model.batch import simulate_many
        from repro.model.stepper import ModelStepper
        from repro.obs.telemetry import telemetry_session

        def probe():
            raise AssertionError("telemetry probed allocations")

        scenario = make_scenario("tiny", device="hdd", sync_mode="sync-on")
        monkeypatch.setattr(sys, "getallocatedblocks", probe)
        with telemetry_session("no-probe") as telemetry:
            (result,) = simulate_many([scenario])
            counters = telemetry.snapshot()["counters"]
        for phase in ModelStepper.PHASES:
            assert counters[f"step.phase.{phase}.calls"] == result.n_steps
            assert counters[f"step.phase.{phase}.ns"] > 0
