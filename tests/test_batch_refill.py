"""Mixed deployments in one bucket, and a bucket that refills.

A bucket's members share only the transport and the server configuration:
device, sync mode, network, stripe size and server count are per-lane
constants of the kernel, so every member of a mixed bucket must equal its
run alone.  Under a lane budget the bucket is a first-in-first-out queue:
it admits runs in input order while their lanes fit, admits the next ones
into the lanes that finished runs free, frees a finished run's simulator at
once, and returns results in input order.
"""

import dataclasses
import gc
import unittest.mock as mock
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.control import SteppingPolicy
from repro.config.presets import make_scenario
from repro.errors import SimulationError
from repro.model import batch as batch_mod
from repro.model.batch import BatchedStepper, BatchSimulator, run_bucket, simulate_many
from repro.model.simulator import simulate_scenario
from repro.obs.telemetry import telemetry_session

from tests._golden_utils import metric_fingerprint

#: Connection lanes of one tiny scenario at 4, 8 or 12 servers (24 servers
#: take 768).
TINY_LANES = 128


def _run_recording(members, lanes):
    """Run ``members`` as one batch under ``lanes``: its results, and per
    tick the live members and their connection lanes."""
    ticks = []
    step_batch = BatchedStepper.step_batch

    def recording(self, now):
        ticks.append((len(self._members), self.state.n_connections))
        return step_batch(self, now)

    with mock.patch.object(BatchedStepper, "step_batch", recording):
        results = BatchSimulator(members, lanes=lanes).run()
    return results, ticks


def _assert_matches_alone(scenario, result, seed=None):
    alone = simulate_scenario(scenario, seed=seed)
    assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0], (
        f"{scenario.label!r} diverged from its run alone"
    )
    assert result.n_steps == alone.n_steps


deployments = st.tuples(
    st.sampled_from(["hdd", "ssd", "ram", "null"]),
    st.sampled_from(["sync-on", "sync-off", "null-aio"]),
    st.sampled_from(["1g", "10g"]),
    st.sampled_from([64 * units.KiB, 128 * units.KiB, 256 * units.KiB]),
    st.sampled_from([4, 8, 12]),
    st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
    st.booleans(),
)


class TestMixedDeployments:
    @given(members=st.lists(deployments, min_size=2, max_size=5),
           budget=st.sampled_from([TINY_LANES, 2 * TINY_LANES, 3 * TINY_LANES]))
    @settings(max_examples=8, deadline=None)
    def test_every_member_matches_alone(self, members, budget):
        """Runs of every device, sync mode, network, stripe size, server
        count, delay and stepping policy share one bucket; a small budget
        makes most of them join late."""
        scenarios = [
            make_scenario(
                "tiny", device=device, sync_mode=mode, network=network,
                stripe_size=stripe, n_servers=servers, delay=delay,
                stepping=SteppingPolicy.adaptive() if adaptive else None,
            )
            for device, mode, network, stripe, servers, delay, adaptive in members
        ]
        with mock.patch.object(batch_mod, "_BUCKET_LANES", budget), \
                telemetry_session("mixed") as telemetry:
            results = simulate_many(scenarios)
            counters = telemetry.snapshot()["counters"]
        assert counters["batch.buckets"] == 1
        for scenario, result in zip(scenarios, results):
            _assert_matches_alone(scenario, result)


class TestRefill:
    def test_live_lanes_stay_under_the_budget(self):
        """Four tiny runs under a two-run budget: at most two step at once,
        the later ones join as the first finish, and each equals its run
        alone."""
        scenarios = [make_scenario("tiny", delay=d) for d in (-0.3, 0.0, 0.3, 0.1)]
        results, ticks = _run_recording(scenarios, lanes=2 * TINY_LANES)
        assert max(lanes for _, lanes in ticks) == 2 * TINY_LANES
        assert all(lanes <= 2 * TINY_LANES for _, lanes in ticks)
        # The queue refilled: the ticks outnumber every run's own steps, and
        # a queued run takes the lanes a finished run frees on the same
        # tick, so the live width never grows back.
        assert len(ticks) > max(r.n_steps for r in results)
        widths = [width for width, _ in ticks]
        assert widths == sorted(widths, reverse=True)
        assert sum(width for width, _ in ticks) == sum(r.n_steps for r in results)
        for scenario, result in zip(scenarios, results):
            _assert_matches_alone(scenario, result)

    def test_a_lone_run_wider_than_the_budget_runs(self):
        """An empty bucket always admits one run, however wide."""
        wide = make_scenario("tiny", n_servers=24)
        scenarios = [make_scenario("tiny"), wide, make_scenario("tiny", delay=0.2)]
        results, ticks = _run_recording(scenarios, lanes=TINY_LANES)
        for width, lanes in ticks:
            assert lanes <= TINY_LANES or width == 1
        assert any(lanes > TINY_LANES for _, lanes in ticks)
        for scenario, result in zip(scenarios, results):
            _assert_matches_alone(scenario, result)

    def test_results_come_back_in_input_order(self):
        """Repeats included: a batch runs each member, repeated or not, and
        answers in input order; a request's seed holds."""
        a, b = make_scenario("tiny"), make_scenario("tiny", device="ssd")
        members = [(b, 3), a, (a, 5), b, (b, 3), a]
        results = BatchSimulator(members, lanes=TINY_LANES).run()
        assert len(results) == len(members)
        for member, result in zip(members, results):
            scenario, seed = member if isinstance(member, tuple) else (member, None)
            assert result.scenario is scenario
            _assert_matches_alone(scenario, result, seed)

    def test_repeats_share_results_in_input_order(self):
        a, b = make_scenario("tiny"), make_scenario("tiny", network="1g")
        with mock.patch.object(batch_mod, "_BUCKET_LANES", TINY_LANES):
            results = simulate_many([a, b, a, b, a], [1, None, 1, None, 2])
        assert results[0] is results[2] and results[1] is results[3]
        assert results[4] is not results[0]
        for scenario, seed, k in ((a, 1, 0), (b, None, 1), (a, 2, 4)):
            _assert_matches_alone(scenario, results[k], seed)

    def test_finished_simulator_is_freed_before_the_bucket_ends(self, monkeypatch):
        """With the cyclic garbage collector off, a finished run's simulator
        is gone by the next compaction: the queue keeps its result and its
        action counts only."""
        scenarios = [make_scenario("tiny", delay=d) for d in (-0.3, 0.3, 0.0)]
        batch = BatchSimulator(scenarios, lanes=2 * TINY_LANES)
        refs = [weakref.ref(m.sim) for m in batch.members if m.sim is not None]
        assert len(refs) == 2
        freed = []
        compact = BatchSimulator._compact

        def checking(self):
            freed.append([ref() is None for ref in refs])
            compact(self)

        monkeypatch.setattr(BatchSimulator, "_compact", checking)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            results = batch.run()
        finally:
            if enabled:
                gc.enable()
        # The first compaction follows the first retirement, while the
        # other runs still step.
        assert freed and freed[0].count(True) == 1
        assert all(m.sim is None for m in batch.members)
        assert all(m.stats["control.starts"] == 2 for m in batch.members)
        # Every layout left the operation table with its last user.
        assert len(batch.operations) == 0
        assert [r.n_steps > 0 for r in results] == [True] * 3

    @pytest.mark.parametrize("change", ["transport", "server"])
    def test_transport_or_server_mismatch_raises(self, change):
        base = make_scenario("tiny")
        if change == "transport":
            network = base.platform.network
            transport = dataclasses.replace(network.transport, rto=network.transport.rto * 2)
            other = dataclasses.replace(
                base, platform=base.platform.with_network(
                    dataclasses.replace(network, transport=transport)
                ),
            )
        else:
            fs = base.filesystem
            other = base.with_filesystem(
                fs.with_server_config(fs.server.with_buffer(fs.server.buffer_bytes / 2))
            )
        with pytest.raises(SimulationError, match="transport and server"):
            BatchSimulator([base, other])
        with pytest.raises(SimulationError, match="transport and server"):
            BatchSimulator([base, (other, None)], lanes=TINY_LANES)


class TestRefilledTelemetry:
    def test_bucket_reports_its_true_numbers(self):
        """A refilled bucket observes its member steps per tick, and sums
        its padding over every generation."""
        scenarios = [make_scenario("tiny", delay=d) for d in (-0.3, 0.0, 0.3, 0.1)]
        builds = []
        build = BatchSimulator._build

        def recording(self, members):
            build(self, members)
            builds.append((self.state.buffers.padded_slots,
                           self.state.buffers.group_slots))

        with mock.patch.object(batch_mod, "_BUCKET_LANES", 2 * TINY_LANES), \
                mock.patch.object(BatchSimulator, "_build", recording), \
                telemetry_session("refill") as telemetry:
            results = run_bucket(scenarios)
            snapshot = telemetry.snapshot()
        counters, histograms = snapshot["counters"], snapshot["histograms"]
        steps = sum(r.n_steps for r in results)
        assert counters["batch.member_steps"] == counters["batch.lane_steps"] == steps
        occupancy = histograms["batch.occupancy"]
        assert occupancy["count"] == 1
        assert occupancy["max"] == pytest.approx(steps / counters["batch.ticks"])
        assert occupancy["max"] < len(scenarios)
        assert len(builds) > 1
        assert counters["batch.group_slots"] == sum(g for _, g in builds)
        assert counters.get("batch.padded_slots", 0) == sum(p for p, _ in builds)
