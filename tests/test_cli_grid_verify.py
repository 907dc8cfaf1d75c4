"""Tests for the ``repro-io grid`` and ``repro-io verify`` commands, plus the
``--version`` flag and the new campaign options."""

import pytest

from repro._version import __version__
from repro.cli import build_parser, main


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestSweepPointsValidation:
    def test_rejects_one_point(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--points", "1"])

    def test_rejects_non_integer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--points", "many"])

    def test_accepts_three(self):
        args = build_parser().parse_args(["sweep", "--points", "3"])
        assert args.points == 3


class TestCampaignParserOptions:
    def test_new_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.resume is False
        assert args.timing is False

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--jobs", "0"])

    def test_options_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--jobs", "4", "--cache-dir", "c", "--resume", "--timing"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "c"
        assert args.resume and args.timing


class TestCampaignCacheCli:
    def test_repeat_run_reports_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["campaign", "--scale", "tiny", "--quick", "--only", "table1",
                "--cache-dir", cache]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "origin=cached" not in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "origin=cached" in second.err
        assert second.out == first.out  # byte-identical report

    def test_resume_defaults_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["campaign", "--scale", "tiny", "--quick", "--only", "table1",
                "--resume"]
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / ".repro-cache").is_dir()
        assert main(argv) == 0
        assert "origin=cached" in capsys.readouterr().err


class TestGridCli:
    def test_grid_runs_and_persists(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        rc = main([
            "grid", "--axis", "device=hdd,ram", "--axis", "sync=sync-on,sync-off",
            "--scale", "tiny", "--points", "3", "--jobs", "2", "--store", store,
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "| device |" in captured.out
        assert "event=grid_persisted runs=4" in captured.err
        # every persisted run verifies
        assert main(["verify", store]) == 0
        assert "4/4 runs verified" in capsys.readouterr().out

    def test_grid_csv_output(self, capsys):
        rc = main(["grid", "--axis", "device=ram", "--scale", "tiny",
                   "--points", "3", "--no-store", "--csv"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("device,")

    def test_grid_rejects_bad_axis(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["grid", "--axis", "warp=9", "--scale", "tiny", "--no-store"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("axes, message", [
        (["flux=1"], "unknown grid axis 'flux'"),
        (["device=ram", "device=ssd"], "axis 'device' is given more than once"),
        (["device=ram,ram"], "grid axis 'device' repeats values"),
    ], ids=["unknown-name", "repeated-axis", "repeated-value"])
    def test_grid_axis_is_a_usage_error(self, axes, message, capsys):
        argv = ["grid", "--scale", "tiny", "--points", "3", "--no-store"]
        for axis in axes:
            argv += ["--axis", axis]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestVerifyCli:
    def test_verify_fails_on_tampered_run(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        main(["grid", "--axis", "device=ram", "--scale", "tiny", "--points", "3",
              "--store", store])
        capsys.readouterr()
        sweep_file = next((tmp_path / "runs").glob("*/sweep.json"))
        sweep_file.write_text("{}", encoding="utf-8")
        assert main(["verify", store]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "checksum mismatch" in out

    def test_verify_missing_path_fails(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_single_run_dir(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        main(["grid", "--axis", "device=ram", "--scale", "tiny", "--points", "3",
              "--store", store])
        capsys.readouterr()
        run_dir = next(p for p in (tmp_path / "runs").iterdir() if p.is_dir())
        assert main(["verify", str(run_dir)]) == 0
        assert "1/1 runs verified" in capsys.readouterr().out
