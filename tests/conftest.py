"""Shared fixtures.

Simulation runs are comparatively expensive, so the fixtures that run the
tiny-scale scenarios are session-scoped and reused by every test that only
needs to *read* results.
"""

from __future__ import annotations

import pytest

from repro.config.presets import make_scenario, make_single_app_scenario
from repro.model.simulator import simulate_scenario
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceConfig


@pytest.fixture(scope="session")
def tiny_scenario():
    """A tiny two-application scenario (HDD, sync ON, contiguous, dt=0)."""
    return make_scenario("tiny", device="hdd", sync_mode="sync-on", delay=0.0)


@pytest.fixture(scope="session")
def tiny_alone_result():
    """Interference-free tiny run (application A only)."""
    scenario = make_single_app_scenario("tiny", device="hdd", sync_mode="sync-on")
    return simulate_scenario(scenario)


@pytest.fixture(scope="session")
def tiny_contended_result(tiny_scenario):
    """Contended tiny run (both applications, dt=0)."""
    return simulate_scenario(tiny_scenario)


@pytest.fixture(scope="session")
def tiny_traced_result():
    """Tiny contended run with window/progress tracing enabled."""
    trace = TraceConfig(
        series_sample_period=0.02,
        record_windows=True,
        record_progress=True,
        record_server_state=True,
        window_connection_limit=2,
    )
    scenario = make_scenario(
        "tiny", device="hdd", sync_mode="sync-on", delay=0.1, trace=trace
    )
    return simulate_scenario(scenario)


@pytest.fixture()
def streams():
    """A deterministic RandomStreams factory."""
    return RandomStreams(777)
