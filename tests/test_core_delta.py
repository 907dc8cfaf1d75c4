"""Tests for Δ-graph sweeps and the two-application experiment wrapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import make_scenario
from repro.core.delta import (
    DeltaPoint,
    DeltaSweep,
    default_deltas,
    delta_points,
    delta_stages,
    gather,
    run_delta_sweep,
    run_staged,
)
from repro.core.experiment import TwoApplicationExperiment
from repro.errors import AnalysisError, ExperimentError
from repro.model.simulator import simulate_scenario


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


def _record_kernel_runs(monkeypatch):
    """Record every kernel run (a ``BatchSimulator.run`` call) as the list of
    its ticks' widths: compaction builds a new kernel per generation, so a
    run, not a stepper, is the unit."""
    from repro.model.batch import BatchedStepper, BatchSimulator

    runs = []
    run, step_batch = BatchSimulator.run, BatchedStepper.step_batch

    def recording_run(self):
        runs.append([])
        return run(self)

    def recording_step(self, now):
        runs[-1].append(len(self._members))
        return step_batch(self, now)

    monkeypatch.setattr(BatchSimulator, "run", recording_run)
    monkeypatch.setattr(BatchedStepper, "step_batch", recording_step)
    return runs


class TestSweepBatching:
    DELTAS = [-0.3, -0.1, 0.0, 0.2]

    def _alone_result(self, scenario):
        from repro.model.simulator import simulate_scenario

        return simulate_scenario(scenario.with_applications(scenario.applications[:1]))

    def test_fixed_step_sweep_is_one_bucket(self, monkeypatch):
        scenario = make_scenario("tiny")
        alone = self._alone_result(scenario)
        runs = _record_kernel_runs(monkeypatch)
        sweep = run_delta_sweep(scenario, self.DELTAS, alone_result=alone)
        assert len(runs) == 1
        (widths,) = runs
        assert widths[0] == len(self.DELTAS)
        assert widths == sorted(widths, reverse=True)
        assert len(sweep.points) == len(self.DELTAS)

    def test_adaptive_sweep_is_one_bucket(self, monkeypatch):
        from repro.config.control import SteppingPolicy

        scenario = make_scenario("tiny", stepping=SteppingPolicy(mode="adaptive"))
        alone = self._alone_result(scenario)
        runs = _record_kernel_runs(monkeypatch)
        sweep = run_delta_sweep(scenario, self.DELTAS, alone_result=alone)
        assert len(runs) == 1
        (widths,) = runs
        assert widths[0] == len(self.DELTAS)
        assert widths == sorted(widths, reverse=True)
        assert len(sweep.points) == len(self.DELTAS)
        assert sweep.peak_interference_factor() > 1.0


def _echo(rounds):
    """A staged computation that yields ``rounds`` and returns what it was
    sent for each."""
    sent = []
    for requests in rounds:
        sent.append((yield list(requests)))
    return sent


def _drive(stage):
    """Drive ``stage`` with a fake simulator answering ``r`` with ``"=r"``;
    returns ``(rounds, result)``."""
    rounds, sent = [], None
    while True:
        try:
            requests = stage.send(sent)
        except StopIteration as stop:
            return rounds, stop.value
        rounds.append(requests)
        sent = [f"={request}" for request in requests]


class TestStaged:
    def test_gather_merges_rounds_and_routes_results_in_order(self):
        rounds, results = _drive(gather([
            _echo([["a1", "a2"], ["a3"]]),
            _echo([["b1"]]),
            _echo([["c1"], ["c2", "c3"], ["c4"]]),
        ]))
        assert rounds == [["a1", "a2", "b1", "c1"], ["a3", "c2", "c3"], ["c4"]]
        assert results == [
            [["=a1", "=a2"], ["=a3"]],
            [["=b1"]],
            [["=c1"], ["=c2", "=c3"], ["=c4"]],
        ]

    def test_zero_round_computations_return_at_once(self):
        assert _drive(gather([])) == ([], [])
        assert _drive(gather([_echo([]), _echo([])])) == ([], [[], []])

    def test_nested_gather(self):
        rounds, results = _drive(gather([
            gather([_echo([["a1"]]), _echo([["b1"], ["b2"]])]),
            _echo([["c1"]]),
        ]))
        assert rounds == [["a1", "b1", "c1"], ["b2"]]
        assert results == [[[["=a1"]], [["=b1"], ["=b2"]]], [["=c1"]]]

    def test_an_exception_in_a_member_propagates(self):
        def failing():
            yield ["x"]
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            _drive(gather([_echo([["a1"], ["a2"]]), failing()]))

    def test_run_staged_makes_one_simulate_many_call_per_round(self, monkeypatch):
        from repro.model import batch

        calls = []
        simulate_many = batch.simulate_many

        def recording(scenarios, seeds=None, **kwargs):
            calls.append(len(scenarios))
            return simulate_many(scenarios, seeds, **kwargs)

        monkeypatch.setattr(batch, "simulate_many", recording)
        scenario = make_scenario("tiny")
        sweep = run_staged(delta_stages(scenario, [-0.2, 0.0, 0.2], seed=5))
        assert calls == [1, 3]
        assert sweep == run_delta_sweep(scenario, [-0.2, 0.0, 0.2], seed=5)


class TestUntracedPoints:
    @given(
        delta=st.floats(-0.5, 0.5, allow_nan=False),
        device=st.sampled_from(["hdd", "ssd", "ram"]),
        sync_mode=st.sampled_from(["sync-on", "sync-off"]),
    )
    @settings(max_examples=6, deadline=None)
    def test_untraced_point_equals_traced(self, delta, device, sync_mode):
        """A Δ-point reads nothing the recorder holds, so recording nothing
        leaves it unchanged."""
        scenario = make_scenario("tiny", device=device, sync_mode=sync_mode)
        (point,) = delta_points(scenario, [delta])
        trace = point.control.trace
        assert not (trace.records_series or trace.record_marks)
        untraced = simulate_scenario(point)
        assert not untraced.recorder.marks and not untraced.recorder.series_names()
        traced = simulate_scenario(scenario.with_delay(delta))
        assert traced.recorder.marks
        assert DeltaPoint.from_run_result(delta, untraced) == (
            DeltaPoint.from_run_result(delta, traced)
        )


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

    def test_sweep_stages_skip_a_cached_baseline(self, monkeypatch):
        from repro.model import batch

        calls = []
        simulate_many = batch.simulate_many

        def recording(scenarios, seeds=None, **kwargs):
            calls.append(len(scenarios))
            return simulate_many(scenarios, seeds, **kwargs)

        monkeypatch.setattr(batch, "simulate_many", recording)
        exp = TwoApplicationExperiment("tiny")
        first = exp.run_sweep(n_points=3)
        assert calls == [1, 3]
        again = run_staged(exp.sweep_stages(n_points=3))
        assert calls == [1, 3, 3]
        assert again == first

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
