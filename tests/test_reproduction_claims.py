"""Qualitative reproduction claims, validated at the test (tiny) scale.

These tests assert the *shape* results of the paper that the simulator is
designed to reproduce and that do not require the reduced/paper scale:

* Table I device ordering (HDD > SSD > RAM slowdowns),
* contention costs roughly a 2x slowdown when both applications overlap,
* removing the shared component (partitioned servers, null-aio backend)
  removes the interference,
* the Incast regime produces window collapses under contention but not when
  an application runs alone,
* interference disappears when the bursts no longer overlap (large |dt|).

The figure-by-figure shapes at the reduced scale are asserted by
``tests/reduced_shapes.py``, which tier-1 does not collect and CI runs by
path; ``repro-io campaign --scale reduced`` reports every claim's verdict.
"""

import pytest

from repro import units
from repro.config.presets import make_scenario, make_single_app_scenario
from repro.core.experiment import TwoApplicationExperiment
from repro.model.local import simulate_local_writes
from repro.model.simulator import simulate_scenario
from repro.storage import device_by_name


@pytest.fixture(scope="module")
def hdd_experiment():
    return TwoApplicationExperiment("tiny", device="hdd", sync_mode="sync-on")


class TestTableIClaims:
    def test_slowdown_ordering_and_magnitudes(self):
        slowdowns = {}
        for name in ("hdd", "ssd", "ram"):
            device = device_by_name(name)
            alone = simulate_local_writes(device, 1, bytes_per_app=512 * units.MiB)
            both = simulate_local_writes(device, 2, bytes_per_app=512 * units.MiB)
            slowdowns[name] = both.slowdown_versus(alone)
        # Paper: 2.49x / 1.96x / 1.58x.
        assert slowdowns["hdd"] > 2.2
        assert 1.7 < slowdowns["ssd"] < 2.2
        assert 1.3 < slowdowns["ram"] < 1.8
        assert slowdowns["hdd"] > slowdowns["ssd"] > slowdowns["ram"]


class TestContentionClaims:
    def test_simultaneous_start_costs_about_two_x(self, hdd_experiment):
        result = hdd_experiment.run_point(0.0)
        alone = hdd_experiment.alone_time()
        factor = result.write_time("A") / alone
        assert 1.6 < factor < 3.0

    def test_interference_vanishes_without_overlap(self, hdd_experiment):
        alone = hdd_experiment.alone_time()
        result = hdd_experiment.run_point(delay=4.0 * alone)
        assert result.write_time("A") < 1.15 * alone
        assert result.write_time("B") < 1.15 * alone

    def test_incast_collapses_only_under_contention(self, hdd_experiment):
        contended = hdd_experiment.run_point(0.05)
        alone = hdd_experiment.baseline()
        assert contended.total_window_collapses() > 0
        assert alone.total_window_collapses() == 0


class TestRuleOutClaims:
    def test_null_aio_removes_interference(self):
        exp = TwoApplicationExperiment("tiny", device="hdd", sync_mode="null-aio")
        result = exp.run_point(0.0)
        factor = result.write_time("A") / exp.alone_time()
        assert factor < 1.2

    def test_partitioned_servers_remove_interference(self):
        partitioned = make_scenario(
            "tiny", device="hdd", sync_mode="sync-on", partition_servers=True
        )
        alone = make_single_app_scenario(
            "tiny", device="hdd", sync_mode="sync-on", partition_servers=True
        )
        contended_result = simulate_scenario(partitioned)
        alone_result = simulate_scenario(alone)
        factor = contended_result.write_time("A") / alone_result.write_time("A")
        assert factor < 1.3

    def test_fewer_servers_cost_alone_performance(self):
        full = make_single_app_scenario("tiny", device="hdd", sync_mode="sync-on")
        half = make_single_app_scenario(
            "tiny", device="hdd", sync_mode="sync-on", partition_servers=True
        )
        assert (
            simulate_scenario(half).write_time("A")
            > simulate_scenario(full).write_time("A")
        )

    def test_sync_off_is_faster_than_sync_on_for_hdd(self):
        on = simulate_scenario(make_single_app_scenario("tiny", device="hdd",
                                                        sync_mode="sync-on"))
        off = simulate_scenario(make_single_app_scenario("tiny", device="hdd",
                                                         sync_mode="sync-off"))
        assert off.write_time("A") < on.write_time("A")

    def test_stripe_size_improves_strided_performance(self):
        small = simulate_scenario(
            make_single_app_scenario(
                "tiny", device="hdd", sync_mode="sync-on", pattern="strided",
                stripe_size=64 * units.KiB,
            )
        )
        large = simulate_scenario(
            make_single_app_scenario(
                "tiny", device="hdd", sync_mode="sync-on", pattern="strided",
                stripe_size=256 * units.KiB,
            )
        )
        assert large.write_time("A") < small.write_time("A")
