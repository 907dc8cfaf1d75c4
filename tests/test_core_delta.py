"""Tests for Δ-graph sweeps and the two-application experiment wrapper."""

import pytest

from repro.config.presets import make_scenario
from repro.core.delta import DeltaPoint, DeltaSweep, default_deltas, run_delta_sweep
from repro.core.experiment import TwoApplicationExperiment
from repro.errors import AnalysisError, ExperimentError


def make_synthetic_sweep():
    """A hand-built sweep with a known shape (no simulation)."""
    alone = {"A": 10.0, "B": 10.0}
    points = []
    for delta, t_a, t_b in [
        (-10.0, 10.0, 10.0),
        (-5.0, 15.0, 17.0),
        (0.0, 20.0, 20.0),
        (5.0, 17.0, 15.0),
        (10.0, 10.0, 10.0),
    ]:
        points.append(
            DeltaPoint(
                delta=delta,
                write_times={"A": t_a, "B": t_b},
                throughputs={"A": 1.0, "B": 1.0},
                window_collapses={"A": 0, "B": 0},
                simulated_time=max(t_a, t_b),
            )
        )
    return DeltaSweep(points=points, alone_times=alone, label="synthetic")


class TestDeltaSweepMetrics:
    def test_accessors(self):
        sweep = make_synthetic_sweep()
        assert sweep.applications == ("A", "B")
        assert sweep.deltas.tolist() == [-10.0, -5.0, 0.0, 5.0, 10.0]
        assert sweep.write_times("A").tolist() == [10.0, 15.0, 20.0, 17.0, 10.0]
        assert sweep.alone_time("A") == 10.0
        assert sweep.interference_factors("A").max() == 2.0

    def test_peak_and_flatness(self):
        sweep = make_synthetic_sweep()
        assert sweep.peak_interference_factor() == 2.0
        assert sweep.flatness_index() == pytest.approx(1.0)
        assert not sweep.is_flat()

    def test_asymmetry_positive_for_second_app_penalty(self):
        sweep = make_synthetic_sweep()
        # At dt=-5 B starts first and A=15 < B=17?? -> B is first so first=B=17, second=A=15
        # At dt=+5 A first: first=A=17, second=B=15 ... so the synthetic sweep
        # actually favours the *second* application; asymmetry must be negative.
        assert sweep.asymmetry_index() < 0

    def test_point_helpers(self):
        sweep = make_synthetic_sweep()
        point = sweep.point_at(0.4)
        assert point.delta == 0.0
        assert point.first_application() == "A"
        assert point.second_application() == "B"
        neg = sweep.point_at(-5.0)
        assert neg.first_application() == "B"
        assert neg.second_application() == "A"

    def test_rows_and_summary(self):
        sweep = make_synthetic_sweep()
        rows = sweep.rows()
        assert len(rows) == 5
        assert rows[2]["interference_factor.A"] == 2.0
        summary = sweep.summary()
        assert summary["peak_interference_factor"] == 2.0
        assert "alone_time.A" in summary

    def test_unknown_app_raises(self):
        sweep = make_synthetic_sweep()
        with pytest.raises(AnalysisError):
            sweep.write_times("Z")
        with pytest.raises(AnalysisError):
            sweep.alone_time("Z")


class TestDefaultDeltas:
    def test_symmetric_and_includes_zero(self):
        deltas = default_deltas(10.0, n_points=9)
        assert len(deltas) == 9
        assert 0.0 in deltas
        assert deltas[0] == -deltas[-1]

    def test_even_point_count_promoted_to_odd(self):
        assert len(default_deltas(10.0, n_points=4)) == 5

    def test_validation(self):
        with pytest.raises(ExperimentError):
            default_deltas(0.0)
        with pytest.raises(ExperimentError):
            default_deltas(10.0, n_points=2)


class TestRunDeltaSweep:
    def test_tiny_sweep_end_to_end(self):
        scenario = make_scenario("tiny", device="hdd", sync_mode="sync-on")
        sweep = run_delta_sweep(scenario, deltas=[-0.2, 0.0, 0.2], label="tiny test")
        assert len(sweep.points) == 3
        assert sweep.peak_interference_factor() > 1.3
        assert sweep.label == "tiny test"
        # The delta points are sorted ascending.
        assert list(sweep.deltas) == sorted(sweep.deltas)

    def test_single_app_scenario_rejected(self):
        scenario = make_scenario("tiny")
        alone = scenario.with_applications(scenario.applications[:1])
        with pytest.raises(ExperimentError):
            run_delta_sweep(alone, deltas=[0.0])


class TestTwoApplicationExperiment:
    def test_baseline_and_sweep(self):
        exp = TwoApplicationExperiment("tiny", device="hdd", sync_mode="sync-on")
        alone = exp.alone_time()
        assert alone > 0
        deltas = exp.pick_deltas(n_points=3)
        assert len(deltas) == 3
        sweep = exp.run_sweep(deltas=[0.0])
        assert sweep.peak_interference_factor() > 1.0
        metrics = exp.headline_metrics(deltas=[0.0])
        assert "peak_interference_factor" in metrics
        assert "alone_time" in metrics

    def test_describe(self):
        exp = TwoApplicationExperiment("tiny")
        assert "scenario" in exp.describe()

    def test_prebuilt_scenario(self):
        scenario = make_scenario("tiny", device="ram", sync_mode="sync-off")
        exp = TwoApplicationExperiment(scenario=scenario)
        assert exp.scenario is scenario
        with pytest.raises(ExperimentError):
            TwoApplicationExperiment(
                scenario=scenario.with_applications(scenario.applications[:1])
            )
