"""Tests for the parallel, joint and cached campaign paths.

Uses the three cheapest experiments (table1, figure10, figure11) so the
campaign runs in well under a second per pass; at every ``jobs`` figure10
and figure11 run together as one joint run.
"""

from collections import Counter

import pytest

from repro.analysis.campaign import (
    CampaignResult,
    ExperimentRecord,
    campaign_to_markdown,
    run_campaign,
)
from repro.errors import ExperimentError
from repro.obs.summary import executor_stats
from repro.obs.telemetry import telemetry_session

CHEAP_IDS = ["table1", "figure10", "figure11"]


def _per_experiment(ids, stepping=None):
    """The campaign of ``ids`` run one experiment at a time, each through
    its own ``run`` under the campaign's stepping policy."""
    from repro.analysis.comparison import check_experiment
    from repro.config.control import stepping_policy
    from repro.experiments.registry import get_experiment

    records = []
    with stepping_policy(stepping):
        for e in ids:
            result = get_experiment(e).run(scale="tiny", quick=True)
            records.append(ExperimentRecord(e, result, check_experiment(result), 0.0))
    return CampaignResult(scale="tiny", records=records)


@pytest.fixture(scope="module")
def serial_campaign():
    return run_campaign(scale="tiny", quick=True, experiments=CHEAP_IDS)


class TestParallelCampaign:
    def test_two_workers_byte_identical_markdown(self, serial_campaign):
        parallel = run_campaign(
            scale="tiny", quick=True, experiments=CHEAP_IDS, jobs=2
        )
        assert campaign_to_markdown(parallel) == campaign_to_markdown(serial_campaign)

    def test_records_keep_presentation_order(self):
        campaign = run_campaign(
            scale="tiny", quick=True, experiments=["figure11", "table1"], jobs=2
        )
        assert [r.experiment_id for r in campaign.records] == ["figure11", "table1"]

    def test_progress_fires_once_per_experiment(self):
        seen = []
        run_campaign(
            scale="tiny", quick=True, experiments=CHEAP_IDS, jobs=2,
            progress=lambda eid, record: seen.append(eid),
        )
        assert sorted(seen) == sorted(CHEAP_IDS)


class TestCachedCampaign:
    def test_second_run_served_entirely_from_cache(self, tmp_path, serial_campaign):
        cache_dir = str(tmp_path / "cache")
        first = run_campaign(
            scale="tiny", quick=True, experiments=CHEAP_IDS, cache_dir=cache_dir
        )
        assert first.n_cached == 0
        second = run_campaign(
            scale="tiny", quick=True, experiments=CHEAP_IDS, cache_dir=cache_dir
        )
        assert second.n_cached == len(CHEAP_IDS)
        assert all(record.from_cache for record in second.records)
        # and the cached rendering is byte-identical to the fresh one
        assert campaign_to_markdown(second) == campaign_to_markdown(serial_campaign)

    def test_cache_key_respects_quick_flag(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(scale="tiny", quick=True, experiments=["table1"],
                     cache_dir=cache_dir)
        other = run_campaign(scale="tiny", quick=False, experiments=["table1"],
                             cache_dir=cache_dir)
        assert other.n_cached == 0

    def test_partial_cache_resumes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(scale="tiny", quick=True, experiments=["table1"],
                     cache_dir=cache_dir)
        resumed = run_campaign(scale="tiny", quick=True,
                               experiments=["table1", "figure10"],
                               cache_dir=cache_dir)
        assert resumed.record("table1").from_cache
        assert not resumed.record("figure10").from_cache

    def test_describe_reports_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(scale="tiny", quick=True, experiments=["table1"],
                     cache_dir=cache_dir)
        again = run_campaign(scale="tiny", quick=True, experiments=["table1"],
                             cache_dir=cache_dir)
        assert "(1 from cache)" in again.describe()


class TestJointCampaign:
    """At every ``jobs`` the staged experiments run together in two rounds,
    each distinct simulation once."""

    IDS = ["figure4", "figure7", "figure10", "figure11"]

    def test_joint_equals_per_experiment(self, monkeypatch):
        from repro.core.delta import delta_points
        from repro.core.experiment import TwoApplicationExperiment
        from repro.model import batch

        simulated = Counter()
        run_bucket = batch.run_bucket

        def recording(members):
            # simulate_many passes (scenario, seed) requests, seeds resolved.
            simulated.update((scenario, seed) for scenario, seed in members)
            return run_bucket(members)

        monkeypatch.setattr(batch, "run_bucket", recording)
        joint = run_campaign(scale="tiny", quick=True, experiments=self.IDS)
        monkeypatch.setattr(batch, "run_bucket", run_bucket)
        assert all(record.joint for record in joint.records)
        # No simulation ran twice, and the HDD sync-on sweep that figure4
        # and figure7 both declare ran once.
        assert set(simulated.values()) == {1}
        shared = TwoApplicationExperiment(
            "tiny", device="hdd", sync_mode="sync-on", pattern="contiguous"
        )
        seed = shared.scenario.control.seed
        alone = shared.scenario.with_applications(shared.scenario.applications[:1])
        points = delta_points(shared.scenario, shared.pick_deltas(n_points=5))
        assert all((s, seed) in simulated for s in [alone, *points])

        per_experiment = _per_experiment(self.IDS)
        assert campaign_to_markdown(joint) == campaign_to_markdown(per_experiment)

    def test_joint_run_applies_the_campaign_stepping_policy(self):
        from repro.config.control import SteppingPolicy

        ids = ["figure10", "figure11"]
        adaptive = SteppingPolicy.adaptive()
        joint = run_campaign(scale="tiny", quick=True, experiments=ids, stepping=adaptive)
        assert all(record.joint for record in joint.records)
        per_experiment = _per_experiment(ids, stepping=adaptive)
        fixed = run_campaign(scale="tiny", quick=True, experiments=ids)
        assert campaign_to_markdown(joint) == campaign_to_markdown(per_experiment)
        assert campaign_to_markdown(joint) != campaign_to_markdown(fixed)

    def test_a_configuration_reports_the_same_numbers_in_every_figure(self):
        """The default HDD sync-on configuration is figure2's hdd.sync-on,
        figure4's all-cores, figure5's 10G sync-on and figure7's HDD shared
        sweep: one baseline, one set of points."""
        campaign = run_campaign(
            scale="tiny", quick=True,
            experiments=["figure2", "figure4", "figure5", "figure7"],
        )
        sweeps = [
            campaign.record("figure2").result.sweep("hdd.sync-on"),
            campaign.record("figure4").result.sweep("all_cores"),
            campaign.record("figure5").result.sweep("10g.sync-on"),
            campaign.record("figure7").result.sweep("hdd.shared"),
        ]
        assert all(s.alone_times == sweeps[0].alone_times for s in sweeps)
        assert all(s.points == sweeps[0].points for s in sweeps)
        alone_s = {
            campaign.record("figure2").result.table("figure2_summary")[0]["alone_s"],
            campaign.record("figure4").result.table("figure4_summary")[0]["alone_s"],
            campaign.record("figure5").result.table("figure5_summary")[0]["alone_s"],
            campaign.record("figure7").result.table("figure7_summary")[0]["shared_alone_s"],
        }
        assert len(alone_s) == 1

    def test_records_of_a_joint_run_share_its_wall_time(self, serial_campaign):
        joint = [r for r in serial_campaign.records if r.joint]
        assert [r.experiment_id for r in joint] == ["figure10", "figure11"]
        assert len({r.wall_time for r in joint}) == 1
        assert not serial_campaign.record("table1").joint
        assert joint[0].runtime == f"joint {joint[0].wall_time:.1f}"
        text = campaign_to_markdown(serial_campaign, include_timing=True)
        assert f"runtime joint {joint[0].wall_time:.1f} s" in text
        parallel = run_campaign(scale="tiny", quick=True, experiments=CHEAP_IDS, jobs=2)
        assert [r.joint for r in parallel.records] == [False, True, True]
        assert len({r.wall_time for r in parallel.records if r.joint}) == 1

    def test_two_workers_simulate_each_distinct_run_once(self):
        """At ``jobs=2`` the joint plan's rounds spread over two workers as
        bucket units: the same runs as at ``jobs=1``, none simulated twice,
        and the joint span that encloses the units is not busy time of its
        own."""
        documents = {}
        for jobs in (1, 2):
            with telemetry_session(f"campaign-jobs{jobs}") as telemetry:
                with telemetry.span("campaign:tiny", category="campaign"):
                    campaign = run_campaign(
                        scale="tiny", quick=True, experiments=self.IDS, jobs=jobs
                    )
                documents[jobs] = telemetry.snapshot()
            assert all(record.joint for record in campaign.records)
        serial, parallel = (documents[jobs]["counters"] for jobs in (1, 2))
        assert parallel["batch.member_runs"] == serial["batch.member_runs"]
        assert parallel["batch.repeats"] == serial["batch.repeats"] > 0
        assert parallel["batch.buckets"] > serial["batch.buckets"]
        stats = executor_stats(documents[2])
        assert stats["jobs"] == 2.0
        assert 0.0 < stats["utilization"] <= 1.0

    def test_joint_flag_survives_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(scale="tiny", quick=True, experiments=CHEAP_IDS,
                     cache_dir=cache_dir)
        again = run_campaign(scale="tiny", quick=True, experiments=CHEAP_IDS,
                             cache_dir=cache_dir)
        assert [r.joint for r in again.records] == [False, True, True]

    def test_a_fault_plan_on_a_joint_member_names_it(self):
        from repro.runner.chaos import ChaosError, FaultPlan, FaultSpec, fault_plan

        plan = FaultPlan.of(FaultSpec(match="figure10", times=99))
        with fault_plan(plan):
            with pytest.raises(ExperimentError, match="'figure10'") as excinfo:
                run_campaign(scale="tiny", quick=True,
                             experiments=["figure10", "figure11"])
        assert isinstance(excinfo.value.__cause__, ChaosError)

    def test_a_failing_joint_run_names_its_experiments(self, monkeypatch):
        from repro.core import delta

        def failing_gather(stages):
            raise RuntimeError("joint run failed")

        monkeypatch.setattr(delta, "gather", failing_gather)
        with pytest.raises(
            ExperimentError,
            match="experiments 'figure10', 'figure11' failed: joint run failed",
        ) as excinfo:
            run_campaign(scale="tiny", quick=True, experiments=CHEAP_IDS)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_a_lone_staged_experiment_spreads_over_the_workers(self):
        """A lone staged experiment runs its rounds through the staged
        runner at every ``jobs``: more buckets at ``jobs=2``, the same
        report."""
        documents, reports = {}, {}
        for jobs in (1, 2):
            with telemetry_session(f"lone-jobs{jobs}") as telemetry:
                campaign = run_campaign(
                    scale="tiny", quick=True, experiments=["figure2"], jobs=jobs
                )
                documents[jobs] = telemetry.snapshot()["counters"]
            assert not campaign.records[0].joint
            reports[jobs] = campaign_to_markdown(campaign)
        assert reports[2] == reports[1]
        assert documents[2]["batch.buckets"] > documents[1]["batch.buckets"]
        assert documents[2]["batch.member_runs"] == documents[1]["batch.member_runs"]
        assert documents[1]["executor.tasks.completed"] == 1


class TestRecordPayloadRoundTrip:
    def test_round_trip(self, serial_campaign):
        record = serial_campaign.record("table1")
        restored = ExperimentRecord.from_payload(record.to_payload())
        assert restored.experiment_id == record.experiment_id
        assert restored.n_claims == record.n_claims
        assert restored.n_agreeing == record.n_agreeing
        assert restored.result.to_dict() == record.result.to_dict()
        assert not restored.from_cache
        cached = ExperimentRecord.from_payload(record.to_payload(), from_cache=True)
        assert cached.from_cache


class TestMarkdownTiming:
    def test_default_markdown_has_no_timing(self, serial_campaign):
        text = campaign_to_markdown(serial_campaign)
        assert "runtime" not in text
        assert "wall time" not in text

    def test_opt_in_timing(self, serial_campaign):
        text = campaign_to_markdown(serial_campaign, include_timing=True)
        assert "runtime" in text
        assert "campaign wall time" in text
