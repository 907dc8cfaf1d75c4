"""Micro-benchmarks of the simulator itself (not a paper figure).

These keep an eye on the cost of the building blocks the experiment harness
leans on: the event engine, the striping arithmetic, one model step, and a
complete tiny scenario.  They use pytest-benchmark's normal statistics
(multiple rounds) because they are true micro-benchmarks.
"""

import numpy as np

from repro import units
from repro.config.presets import make_scenario
from repro.model.batch import BatchSimulator
from repro.model.simulator import simulate_scenario
from repro.pfs.striping import extent_to_server_bytes
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority


def test_engine_event_throughput(benchmark):
    """Schedule and execute 10k events."""

    def runner():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 1e-3, lambda s: None, priority=EventPriority.NORMAL)
        sim.run()
        return sim.events_processed

    assert benchmark(runner) == 10_000


def test_striping_arithmetic(benchmark):
    """Split a 64 MiB extent into per-server bytes, 200 times."""
    servers = tuple(range(12))

    def runner():
        total = 0.0
        for rank in range(200):
            out = extent_to_server_bytes(
                rank * 64 * units.MiB, 64 * units.MiB, 64 * units.KiB, servers, 12
            )
            total += out.sum()
        return total

    result = benchmark(runner)
    assert result == 200 * 64 * units.MiB


def test_single_model_step(benchmark):
    """One vectorized step of the reduced-scale model, alone on the kernel."""
    scenario = make_scenario("reduced", device="hdd", sync_mode="sync-on")
    batch = BatchSimulator([scenario])
    member = batch.members[0]
    engine = member.engine
    member.sim.start_application(engine, 0)
    member.sim.start_application(engine, 1)

    def runner():
        np.add(batch.clock, batch.steps, out=batch.clock)
        batch.stepper.step_batch(batch.clock)
        engine._now = float(batch.clock[0])  # completion is irrelevant here
        return True

    assert benchmark(runner)


def test_tiny_scenario_end_to_end(benchmark):
    """A complete tiny-scale contended simulation."""
    scenario = make_scenario("tiny", device="hdd", sync_mode="sync-on")

    def runner():
        return simulate_scenario(scenario).write_time("A")

    assert benchmark(runner) > 0
