"""Tests for declarative parameter grids and their execution."""

from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.runner.grid import GRID_AXES, ParameterGrid, run_grid
from repro.runner.store import RunStore, load_manifest, verify_manifest


class TestParameterGrid:
    def test_cartesian_size_and_order(self):
        grid = ParameterGrid({"device": ["hdd", "ssd"], "sync": ["sync-on", "sync-off"]})
        assert len(grid) == 4
        points = grid.points()
        assert points[0] == {"device": "hdd", "sync": "sync-on"}
        assert points[-1] == {"device": "ssd", "sync": "sync-off"}

    def test_rejects_unknown_axis(self):
        with pytest.raises(ExperimentError):
            ParameterGrid({"flux_capacitor": ["on"]})

    def test_rejects_empty(self):
        with pytest.raises(ExperimentError):
            ParameterGrid({})
        with pytest.raises(ExperimentError):
            ParameterGrid({"device": []})

    def test_from_specs(self):
        grid = ParameterGrid.from_specs(["device=hdd,ssd", "stripe_kib=64,256"])
        assert len(grid) == 4
        assert grid.axes["stripe_kib"] == ["64", "256"]

    def test_rejects_repeated_values(self):
        with pytest.raises(ExperimentError, match="repeats values"):
            ParameterGrid({"device": ["ram", "ram"]})

    def test_from_specs_rejects_a_repeated_axis(self):
        with pytest.raises(ExperimentError, match="more than once"):
            ParameterGrid.from_specs(["device=ram", "device=ssd"])

    def test_from_specs_rejects_malformed(self):
        with pytest.raises(ExperimentError):
            ParameterGrid.from_specs(["devicehdd"])
        with pytest.raises(ExperimentError):
            ParameterGrid.from_specs(["device="])

    def test_point_id_stable_and_safe(self):
        pid = ParameterGrid.point_id({"device": "hdd", "sync": "sync-on"})
        assert pid == "hdd_sync-on"
        assert "/" not in ParameterGrid.point_id({"device": "a/b"})

    def test_every_axis_maps_to_scenario_kwarg(self):
        assert set(GRID_AXES) == {
            "device", "sync", "pattern", "network", "stripe_kib", "request_kib"
        }


class TestRunGrid:
    @pytest.fixture(scope="class")
    def executed(self, tmp_path_factory):
        """A 2x2 grid executed with 2 workers and a persistent store."""
        store_dir = tmp_path_factory.mktemp("runs")
        grid = ParameterGrid({"device": ["hdd", "ram"], "sync": ["sync-on", "sync-off"]})
        result = run_grid(
            grid, scale="tiny", n_points=3, jobs=2, store_dir=str(store_dir)
        )
        return result, store_dir

    def test_one_result_per_point_in_grid_order(self, executed):
        result, _ = executed
        assert [pt.point_id for pt in result.points] == [
            "hdd_sync-on", "hdd_sync-off", "ram_sync-on", "ram_sync-off"
        ]

    def test_summaries_are_sane(self, executed):
        result, _ = executed
        for pt in result.points:
            assert pt.summary["peak_interference_factor"] >= 1.0
            assert len(pt.sweep.points) == 3

    def test_manifests_written_and_verify(self, executed):
        result, store_dir = executed
        store = RunStore(store_dir)
        assert len(store.runs()) == 4
        for pt in result.points:
            ok, issues = verify_manifest(pt.run_dir)
            assert ok, issues
            manifest = load_manifest(pt.run_dir)
            assert manifest["config"]["params"] == pt.params
            assert manifest["seed"] == pt.seed
            assert set(manifest["artifacts"]) == {"sweep.json", "summary.json", "sweep.csv"}

    def test_per_point_seeds_differ_but_are_deterministic(self, executed):
        result, _ = executed
        seeds = [pt.point_id and pt.seed for pt in result.points]
        assert len(set(seeds)) == len(seeds)
        rerun = run_grid(
            ParameterGrid({"device": ["hdd", "ram"], "sync": ["sync-on", "sync-off"]}),
            scale="tiny", n_points=3, jobs=1,
        )
        assert [pt.seed for pt in rerun.points] == [pt.seed for pt in result.points]

    def test_rows_cover_every_point(self, executed):
        result, _ = executed
        rows = result.to_rows()
        assert len(rows) == 4
        assert {"peak_IF", "asymmetry", "flatness", "collapses"} <= set(rows[0])

    def test_point_lookup(self, executed):
        result, _ = executed
        assert result.point("hdd_sync-on").params["device"] == "hdd"
        with pytest.raises(ExperimentError):
            result.point("nope")

    def test_two_workers_equal_one(self, executed, tmp_path, monkeypatch):
        """The whole grid is one staged computation: two ``simulate_many``
        rounds (every baseline, then every point), whose buckets spread
        over the workers without changing a sweep, a summary or a stored
        artifact."""
        from repro.model import batch

        result, _ = executed
        rounds = []
        simulate_many = batch.simulate_many

        def recording(scenarios, seeds=None, **kwargs):
            rounds.append((len(scenarios), kwargs.get("jobs")))
            return simulate_many(scenarios, seeds, **kwargs)

        monkeypatch.setattr(batch, "simulate_many", recording)
        serial = run_grid(
            ParameterGrid({"device": ["hdd", "ram"], "sync": ["sync-on", "sync-off"]}),
            scale="tiny", n_points=3, jobs=1, store_dir=str(tmp_path),
        )
        assert rounds == [(4, 1), (12, 1)]
        for one, two in zip(serial.points, result.points):
            assert (one.point_id, one.seed) == (two.point_id, two.seed)
            assert one.sweep == two.sweep
            assert one.summary == two.summary
            for name in ("sweep.json", "summary.json", "sweep.csv"):
                assert (Path(one.run_dir) / name).read_bytes() == (
                    Path(two.run_dir) / name
                ).read_bytes()

    def test_no_store_means_no_run_dirs(self):
        result = run_grid(
            ParameterGrid({"device": ["ram"]}), scale="tiny", n_points=3
        )
        assert result.points[0].run_dir is None
        assert result.store_root is None
