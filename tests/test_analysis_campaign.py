"""Tests for the campaign runner and the EXPERIMENTS.md renderer."""

import pytest

from repro.analysis.campaign import (
    CampaignResult,
    ExperimentRecord,
    campaign_to_markdown,
    run_campaign,
    write_experiments_md,
)
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def table1_campaign():
    """A small real campaign: only Table I, at the quick setting."""
    return run_campaign(scale="tiny", quick=True, experiments=["table1"])


class TestRunCampaign:
    def test_runs_requested_experiments_only(self, table1_campaign):
        assert [r.experiment_id for r in table1_campaign.records] == ["table1"]
        assert table1_campaign.n_experiments == 1

    def test_claims_are_evaluated(self, table1_campaign):
        record = table1_campaign.record("table1")
        assert record.n_claims >= 2
        assert 0 <= record.n_agreeing <= record.n_claims

    def test_wall_times_recorded(self, table1_campaign):
        assert table1_campaign.wall_time > 0
        assert table1_campaign.record("table1").wall_time > 0

    def test_unknown_experiment_id_rejected(self):
        with pytest.raises(ExperimentError):
            run_campaign(scale="tiny", experiments=["figure99"])

    def test_fault_plan_fails_the_campaign_naming_the_experiment(self):
        from repro.runner.chaos import ChaosError, FaultPlan, FaultSpec, fault_plan

        plan = FaultPlan.of(FaultSpec(match="table1", times=99))
        with fault_plan(plan):
            with pytest.raises(ExperimentError, match="'table1'") as excinfo:
                run_campaign(scale="tiny", quick=True,
                             experiments=["table1", "figure10"])
        assert isinstance(excinfo.value.__cause__, ChaosError)

    def test_progress_callback_invoked(self):
        seen = []
        run_campaign(
            scale="tiny", quick=True, experiments=["table1"],
            progress=lambda eid, record: seen.append((eid, record.n_claims)),
        )
        assert seen and seen[0][0] == "table1"

    def test_record_lookup_unknown_raises(self, table1_campaign):
        with pytest.raises(ExperimentError):
            table1_campaign.record("figure2")

    def test_summary_rows_shape(self, table1_campaign):
        rows = table1_campaign.summary_rows()
        assert len(rows) == 1
        assert rows[0]["experiment"] == "table1"
        assert "/" in rows[0]["claims agreeing"]

    def test_describe_mentions_scale_and_claims(self, table1_campaign):
        text = table1_campaign.describe()
        assert "tiny" in text
        assert "claims" in text


class TestMarkdownRendering:
    def test_markdown_contains_key_sections(self, table1_campaign):
        text = campaign_to_markdown(table1_campaign)
        assert text.startswith("# EXPERIMENTS")
        assert "## Summary" in text
        assert "## Table I" in text
        assert "Paper-reported values (Table I):" in text
        assert "Agreement with the paper:" in text
        assert "| --- |" in text  # markdown tables present

    def test_markdown_reports_measured_tables(self, table1_campaign):
        text = campaign_to_markdown(table1_campaign)
        assert "Measured — `table1`" in text
        assert "HDD" in text and "SSD" in text and "RAM" in text

    def test_write_experiments_md(self, tmp_path, table1_campaign):
        path = tmp_path / "EXPERIMENTS.md"
        text = write_experiments_md(str(path), table1_campaign)
        assert path.read_text(encoding="utf-8") == text

    def test_empty_campaign_still_renders(self):
        campaign = CampaignResult(scale="tiny")
        campaign.records = []
        with pytest.raises(Exception):
            # zero experiments means zero summary rows, which the markdown
            # table renderer rejects loudly rather than writing a bogus report
            campaign_to_markdown(campaign)


class TestExperimentRecordProperties:
    def test_title_falls_back_to_result_title(self, table1_campaign):
        record = table1_campaign.record("table1")
        assert "Table I" in record.title

    def test_counts_match_checks(self, table1_campaign):
        record = table1_campaign.record("table1")
        assert record.n_agreeing == sum(1 for c in record.checks if c.passed)
