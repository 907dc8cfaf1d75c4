"""Integration tests of the full I/O-path model (tiny scale)."""

import gc
import weakref

import numpy as np
import pytest

from repro import units
from repro.config.presets import make_scenario, make_single_app_scenario
from repro.model.simulator import IOPathSimulator, simulate_scenario
from repro.model.state import ModelState
from repro.sim.rng import RandomStreams


class TestModelState:
    def test_connection_layout(self, tiny_scenario):
        state = ModelState(tiny_scenario, RandomStreams(0))
        n_procs = sum(a.n_processes for a in tiny_scenario.applications)
        assert state.n_processes == n_procs
        assert state.n_connections == n_procs * tiny_scenario.filesystem.n_servers
        # Every connection maps back to a valid process and server.
        assert state.conn_proc.max() < n_procs
        assert state.conn_server.max() < tiny_scenario.filesystem.n_servers
        # conn_matrix is consistent with the flat arrays.
        for conn in range(0, state.n_connections, 7):
            proc = state.conn_proc[conn]
            server = state.conn_server[conn]
            assert state.conn_matrix[proc, server] == conn

    def test_issue_operation_loads_connections(self, tiny_scenario):
        state = ModelState(tiny_scenario, RandomStreams(0))
        app = state.applications[0]
        issued = state.issue_operation(app, 0)
        assert issued == pytest.approx(app.total_bytes)
        assert state.outstanding_per_app()[0] == pytest.approx(app.total_bytes)
        assert state.outstanding_per_app()[1] == 0.0

    def test_issue_process_operation(self, tiny_scenario):
        state = ModelState(tiny_scenario, RandomStreams(0))
        app = state.applications[0]
        issued = state.issue_process_operations(app, app.proc_ids()[:1], [0])
        assert issued.tolist() == [pytest.approx(app.spec.pattern.bytes_per_process)]


class TestEndToEnd:
    def test_single_app_completes(self, tiny_alone_result):
        result = tiny_alone_result
        app = result.app("A")
        assert app.write_time > 0
        assert app.bytes_written == pytest.approx(
            result.scenario.applications[0].total_bytes
        )
        assert result.n_steps > 10
        assert result.simulated_time >= app.end_time

    def test_contended_run_completes_both(self, tiny_contended_result):
        result = tiny_contended_result
        assert set(result.applications) == {"A", "B"}
        for app in result.applications.values():
            assert app.write_time > 0
            assert app.throughput > 0

    def test_contention_slows_applications_down(self, tiny_alone_result, tiny_contended_result):
        alone = tiny_alone_result.write_time("A")
        contended = tiny_contended_result.write_time("A")
        assert contended > 1.5 * alone

    def test_mass_conservation(self, tiny_contended_result):
        result = tiny_contended_result
        total_written = sum(a.bytes_written for a in result.applications.values())
        expected = result.scenario.total_bytes()
        assert total_written == pytest.approx(expected, rel=1e-6)

    def test_component_stats_populated(self, tiny_contended_result):
        comp = tiny_contended_result.components
        assert 0 <= comp.mean_server_utilization() <= 1
        assert 0 <= comp.mean_buffer_pressure() <= 1
        assert comp.server_utilization.shape[0] == 4
        assert comp.mean_device_utilization() > 0  # sync ON writes reach the device

    def test_summary_and_describe(self, tiny_contended_result):
        summary = tiny_contended_result.summary()
        assert "write_time.A" in summary
        assert "aggregate_throughput" in summary
        assert "A" in tiny_contended_result.describe()

    def test_determinism_same_seed(self):
        scenario = make_scenario("tiny", device="hdd", sync_mode="sync-on", delay=0.05)
        r1 = simulate_scenario(scenario, seed=5)
        r2 = simulate_scenario(scenario, seed=5)
        assert r1.write_time("A") == pytest.approx(r2.write_time("A"))
        assert r1.write_time("B") == pytest.approx(r2.write_time("B"))

    def test_negative_delay_mirrors_positive(self):
        base = make_scenario("tiny", device="hdd", sync_mode="sync-on")
        plus = simulate_scenario(base.with_delay(+0.2), seed=3)
        minus = simulate_scenario(base.with_delay(-0.2), seed=3)
        # Swapping which application starts first should (approximately) swap
        # the write times.
        assert plus.write_time("A") == pytest.approx(minus.write_time("B"), rel=0.25)
        assert plus.write_time("B") == pytest.approx(minus.write_time("A"), rel=0.25)

    def test_progress_traces_recorded(self, tiny_traced_result):
        result = tiny_traced_result
        progress = result.progress_series("A")
        assert len(progress) > 3
        assert progress.values[-1] == pytest.approx(1.0, abs=0.01)
        assert result.window_series_names()

    def test_step_size_resolution(self):
        scenario = make_scenario("tiny")
        sim = IOPathSimulator(scenario)
        assert scenario.control.min_step <= sim.step_size <= scenario.control.max_step

    def test_non_collective_mode_completes(self):
        from repro.config.workload import PatternSpec

        pattern = PatternSpec.strided(
            bytes_per_process=2 * units.MiB, request_size=512 * units.KiB, collective=False
        )
        scenario = make_scenario("tiny", pattern=pattern, device="ram", sync_mode="sync-off")
        result = simulate_scenario(scenario)
        assert result.write_time("A") > 0
        assert result.write_time("B") > 0

    def test_strided_collective_completes(self):
        scenario = make_scenario(
            "tiny", pattern="strided", request_size=512 * units.KiB,
            device="hdd", sync_mode="sync-off",
        )
        result = simulate_scenario(scenario)
        total = sum(a.bytes_written for a in result.applications.values())
        assert total == pytest.approx(scenario.total_bytes(), rel=1e-6)

    def test_partitioned_servers_reduce_interference(self):
        shared = make_scenario("tiny", device="hdd", sync_mode="sync-on")
        partitioned = make_scenario("tiny", device="hdd", sync_mode="sync-on",
                                    partition_servers=True)
        alone = simulate_scenario(make_single_app_scenario("tiny", device="hdd",
                                                           sync_mode="sync-on"))
        shared_result = simulate_scenario(shared)
        part_result = simulate_scenario(partitioned)
        # Partitioned interference factor relative to its own (half-capacity)
        # baseline should be close to 1; shared should be clearly above it.
        part_alone = simulate_scenario(
            make_single_app_scenario("tiny", device="hdd", sync_mode="sync-on",
                                     partition_servers=True)
        )
        shared_if = shared_result.write_time("A") / alone.write_time("A")
        part_if = part_result.write_time("A") / part_alone.write_time("A")
        assert part_if < shared_if
        assert part_if < 1.4


class TestPromptRelease:
    """A finished run is freed by reference counting alone: nothing it
    built forms a reference cycle, so its arrays do not wait for the cyclic
    garbage collector."""

    @pytest.fixture
    def states(self, monkeypatch):
        """Weak references to every ModelState built, with gc disabled."""
        refs = []
        original = ModelState.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(ModelState, "__init__", recording)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            yield refs
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("stepping", ["fixed", "adaptive"])
    def test_simulate_scenario_frees_its_state(self, states, stepping):
        from repro.config.control import SteppingPolicy

        result = simulate_scenario(
            make_scenario("tiny", stepping=SteppingPolicy(mode=stepping))
        )
        assert result.n_steps > 0 and result.recorder.series_names()
        assert len(states) == 1
        assert states[0]() is None

    def test_batch_of_one_frees_its_state(self, states):
        from repro.model.batch import BatchSimulator

        (result,) = BatchSimulator([make_scenario("tiny")]).run()
        assert result.n_steps > 0
        assert len(states) == 1
        assert states[0]() is None
