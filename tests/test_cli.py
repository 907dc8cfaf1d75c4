"""Tests for the command-line interface."""

import importlib
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestConsoleScript:
    def test_pyproject_declares_the_package_and_its_command(self):
        """``pip install -e .`` installs ``repro-io``: ``pyproject.toml``
        names the package, reads its version from ``repro._version`` and
        points the ``repro-io`` command at :func:`repro.cli.main`."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python < 3.11, where pytest needs tomli
            import tomli as tomllib

        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            config = tomllib.load(handle)
        project = config["project"]
        assert project["name"] == "repro-io"
        assert project["dependencies"] == ["numpy"]
        module, _, name = project["scripts"]["repro-io"].partition(":")
        assert getattr(importlib.import_module(module), name) is main
        setuptools = config["tool"]["setuptools"]
        assert setuptools["packages"]["find"]["where"] == ["src"]
        module, _, name = setuptools["dynamic"]["version"]["attr"].rpartition(".")
        assert getattr(importlib.import_module(module), name) == __version__


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run(self):
        args = build_parser().parse_args(["run", "table1", "--scale", "tiny", "--quick"])
        assert args.experiment == "table1"
        assert args.scale == "tiny"
        assert args.quick

    def test_parses_sweep(self):
        args = build_parser().parse_args(
            ["sweep", "--device", "ram", "--sync", "sync-off", "--points", "3"]
        )
        assert args.device == "ram"
        assert args.points == 3

    def test_parses_stepping_flags(self):
        for command in ("sweep", "campaign"):
            args = build_parser().parse_args(
                [command, "--stepping", "adaptive", "--step-tolerance", "0.1"]
            )
            assert args.stepping == "adaptive"
            assert args.step_tolerance == 0.1
            assert build_parser().parse_args([command]).stepping == "fixed"

    def test_rejects_unknown_stepping_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--stepping", "sometimes"])

    def test_rejects_out_of_range_tolerance(self):
        for bad in ("0", "-0.5", "1.5", "nan"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["sweep", "--stepping", "adaptive", "--step-tolerance", bad]
                )

    def test_rejects_tolerance_without_adaptive(self, capsys):
        for argv in (
            ["sweep", "--scale", "tiny", "--points", "3", "--step-tolerance", "0.1"],
            ["campaign", "--scale", "tiny", "--quick", "--step-tolerance", "0.1"],
            ["sweep", "--scale", "tiny", "--points", "3", "--stepping", "fixed",
             "--step-tolerance", "0.1"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
            assert "--stepping adaptive" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure12" in out

    def test_run_table1_quick(self, capsys):
        assert main(["run", "table1", "--scale", "tiny", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_run_csv_export(self, capsys):
        assert main(["run", "table1", "--scale", "tiny", "--quick", "--csv", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("device,")

    def test_sweep_tiny(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scale",
                    "tiny",
                    "--device",
                    "ram",
                    "--sync",
                    "sync-off",
                    "--points",
                    "3",
                    "--plot",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "peak interference factor" in out
        assert "write time" in out

    def test_sweep_csv(self, capsys):
        assert (
            main(["sweep", "--scale", "tiny", "--device", "ram", "--sync", "sync-off",
                  "--points", "3", "--csv"]) == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("delta")

    def test_sweep_adaptive_stepping(self, capsys):
        assert (
            main(["sweep", "--scale", "tiny", "--device", "ram", "--sync", "sync-off",
                  "--points", "3", "--stepping", "adaptive",
                  "--step-tolerance", "0.05", "--csv"]) == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("delta")


class TestExplainBuckets:
    def test_prints_the_bucket_plan(self, capsys):
        assert main([
            "perf", "--explain-buckets", "--scale", "tiny",
            "--archetypes", "checkpoint,analytics",
        ]) == 0
        out = capsys.readouterr().out
        assert "bucket plan: 5 tasks over checkpoint+analytics" in out
        assert "@ tiny -> 1 buckets\n" in out
        # 2 alone runs (64 + 32 lanes) and 3 pairs (128 + 96 + 64 lanes).
        assert "B=5  lanes=384  steps={" in out
        assert "group_widths=" in out
        assert "alone:checkpoint" in out

    def test_fleet_plans_one_refilled_bucket(self, capsys):
        # 4,800 lanes of one deployment: one bucket, whose live lanes stay
        # under the budget while it refills as runs finish.
        assert main([
            "perf", "--explain-buckets", "--scale", "tiny", "--archetypes",
            "analytics,checkpoint,incast,mixed,randomread,smallfile,staggered,streaming",
        ]) == 0
        out = capsys.readouterr().out
        assert "44 tasks" in out and "@ tiny -> 1 buckets\n" in out
        assert out.count("B=44  lanes=4800  ") == 1
        assert "live<=4096 (refills)" in out

    def test_padded_buckets_are_labelled(self, capsys):
        # smallfile (w32) and analytics (w8) share a deployment: mixed
        # widths pad into one bucket rather than falling back.
        assert main([
            "perf", "--explain-buckets", "--scale", "tiny",
            "--archetypes", "analytics,smallfile,incast",
        ]) == 0
        out = capsys.readouterr().out
        assert "(padded)" in out

    def test_rejects_unknown_archetypes(self):
        with pytest.raises(SystemExit) as err:
            main(["perf", "--explain-buckets", "--archetypes", "nope,nah"])
        assert err.value.code == 2

    def test_defaults_to_the_tiny_matrix(self, capsys):
        # repro-io matrix defaults to tiny, so the default explanation must
        # describe that plan, not the stepper bench's reduced default.
        assert main(["perf", "--explain-buckets"]) == 0
        default = capsys.readouterr().out
        assert "@ tiny ->" in default
        assert main(["perf", "--explain-buckets", "--scale", "tiny"]) == 0
        assert capsys.readouterr().out == default


class TestCacheMigrateCli:
    def test_migrates_flat_entries_and_reports(self, tmp_path, capsys):
        import shutil

        from repro.runner.cache import ResultCache, fingerprint

        fp = fingerprint("table1", "tiny", False)
        donor = ResultCache(str(tmp_path / "donor"))
        stored = donor.put(fp, {"v": 1})
        legacy = tmp_path / "legacy"
        (legacy / "objects").mkdir(parents=True)
        shutil.copy(stored, legacy / "objects" / f"{fp}.json")
        (legacy / "objects" / "dead.tmp").write_text("x", encoding="utf-8")

        assert main(["cache", "migrate", "--cache-dir", str(legacy)]) == 0
        err = capsys.readouterr().err
        assert "event=cache_migrated" in err
        assert "moved=1" in err
        assert "swept_tmp=1" in err
        assert ResultCache(str(legacy)).get(fp) == {"v": 1}

    def test_idempotent_second_run(self, tmp_path, capsys):
        assert main(["cache", "migrate", "--cache-dir", str(tmp_path)]) == 0
        assert main(["cache", "migrate", "--cache-dir", str(tmp_path)]) == 0
        assert "moved=0" in capsys.readouterr().err
