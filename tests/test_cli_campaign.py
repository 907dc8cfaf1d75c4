"""Tests for the ``repro-io campaign`` CLI command."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.scale == "reduced"
        assert args.only is None
        assert args.output is None
        assert args.quick is False

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "--scale", "tiny", "--quick", "--only", "table1", "figure5",
             "--output", "report.md"]
        )
        assert args.scale == "tiny"
        assert args.quick
        assert args.only == ["table1", "figure5"]
        assert args.output == "report.md"

    def test_campaign_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--scale", "huge"])


class TestExecution:
    def test_campaign_prints_markdown_to_stdout(self, capsys):
        rc = main(["campaign", "--scale", "tiny", "--quick", "--only", "table1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "# EXPERIMENTS" in captured.out
        assert "Table I" in captured.out
        assert "event=campaign experiment=table1" in captured.err

    def test_campaign_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        rc = main(["campaign", "--scale", "tiny", "--quick", "--only", "table1",
                   "--output", str(target)])
        captured = capsys.readouterr()
        assert rc == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# EXPERIMENTS")
        assert "event=report_written" in captured.err
        # stdout stays clean when writing to a file
        assert "# EXPERIMENTS" not in captured.out

    def test_campaign_unknown_experiment_fails_loudly(self):
        with pytest.raises(Exception):
            main(["campaign", "--scale", "tiny", "--only", "figure99"])


class TestCampaignTelemetry:
    def test_telemetry_dir_writes_validated_documents(self, tmp_path, capsys):
        import json

        from repro.obs.schema import validate_telemetry_document

        tel = tmp_path / "tel"
        rc = main(["campaign", "--scale", "tiny", "--quick", "--only", "table1",
                   "--output", str(tmp_path / "r.md"),
                   "--telemetry-dir", str(tel)])
        assert rc == 0
        assert "event=telemetry_written" in capsys.readouterr().err
        document = json.loads(
            (tel / "telemetry.json").read_text(encoding="utf-8")
        )
        validate_telemetry_document(document)
        assert document["counters"]["executor.tasks.completed"] == 1
        assert document["counters"]["engine.events.processed"] > 0
        categories = {s["category"] for s in document["spans"]}
        assert {"campaign", "task", "simulation"} <= categories
        campaign = next(
            s for s in document["spans"] if s["category"] == "campaign"
        )
        assert campaign["name"] == "campaign:tiny"
        assert (tel / "telemetry_events.jsonl").is_file()

    def test_joint_run_reports_shared_time_and_repeats(self, tmp_path, capsys):
        """figure10 and figure11 run together; both trace the same alone run,
        which is simulated once."""
        import json

        tel = tmp_path / "tel"
        rc = main(["campaign", "--scale", "tiny", "--quick",
                   "--only", "figure10", "figure11",
                   "--output", str(tmp_path / "r.md"), "--telemetry-dir", str(tel)])
        assert rc == 0
        err = capsys.readouterr().err
        assert 'event=campaign experiment=figure10 agree=1/1 origin="joint ' in err
        assert 'event=campaign experiment=figure11 agree=1/1 origin="joint ' in err
        document = json.loads((tel / "telemetry.json").read_text(encoding="utf-8"))
        assert document["counters"]["batch.requests"] == 4
        assert document["counters"]["batch.repeats"] == 1
        assert document["counters"]["batch.member_runs"] == 3
        joint = [s for s in document["spans"] if s["category"] == "bucket"]
        assert [s["name"] for s in joint] == ["joint:2"]
        assert main(["obs", "summary", str(tel)]) == 0
        assert "4 requests, 1 repeats" in capsys.readouterr().out

    def test_without_flag_no_telemetry_files(self, tmp_path, capsys):
        rc = main(["campaign", "--scale", "tiny", "--quick", "--only", "table1",
                   "--output", str(tmp_path / "r.md")])
        assert rc == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("**/telemetry.json"))
