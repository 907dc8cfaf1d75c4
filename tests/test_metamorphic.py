"""Metamorphic properties of the model, checked over a grid of alone runs.

A metamorphic property relates the outputs of two runs whose inputs differ
in one known way, so it needs no expected value.  The grid is every tiny
single-application (alone) run over device × access pattern × stripe size ×
server count × network × sync mode; it is simulated once, through the batch
kernel, and each test checks one family of configurations of it:

* turning sync OFF never slows an application down: the write-back cache
  only takes the device off the critical path;
* a 10G network is never slower than a 1G one;
* every utilization and buffer pressure of a run lies in [0, 1].

"RAM ≤ SSD ≤ HDD" is deliberately not a property: at tiny scale an HDD under
sync OFF beats RAM by up to 2%, since the cache hides the device.
"""

import itertools

import numpy as np
import pytest

from repro import units
from repro.config.presets import make_single_app_scenario
from repro.model.batch import simulate_many

DEVICES = ("hdd", "ssd", "ram")
PATTERNS = ("contiguous", "strided")
NETWORKS = ("10g", "1g")
SYNC_MODES = ("sync-on", "sync-off", "null-aio")
STRIPES = tuple(size * units.KiB for size in (64, 128, 256))
SERVERS = (2, 4, 8)


@pytest.fixture(scope="module")
def alone_runs():
    """Every configuration of the grid, keyed by ``(device, pattern, stripe,
    n_servers, network, sync_mode)``.  A null-aio run ignores the device, so
    its three device keys share one simulation (``simulate_many`` runs equal
    scenarios once)."""
    keys = list(itertools.product(DEVICES, PATTERNS, STRIPES, SERVERS, NETWORKS, SYNC_MODES))
    scenarios = [
        make_single_app_scenario(
            "tiny", device=device, pattern=pattern, stripe_size=stripe,
            n_servers=n_servers, network=network, sync_mode=sync_mode,
        )
        for device, pattern, stripe, n_servers, network, sync_mode in keys
    ]
    return dict(zip(keys, simulate_many(scenarios)))


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("device", DEVICES)
def test_sync_off_never_slower_than_sync_on(alone_runs, device, pattern, network):
    for stripe, n_servers in itertools.product(STRIPES, SERVERS):
        on, off = (
            alone_runs[device, pattern, stripe, n_servers, network, mode]
            for mode in ("sync-on", "sync-off")
        )
        assert off.write_time("A") <= on.write_time("A"), (stripe, n_servers)


@pytest.mark.parametrize("sync_mode", SYNC_MODES)
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("device", DEVICES)
def test_10g_never_slower_than_1g(alone_runs, device, pattern, sync_mode):
    for stripe, n_servers in itertools.product(STRIPES, SERVERS):
        fast, slow = (
            alone_runs[device, pattern, stripe, n_servers, network, sync_mode]
            for network in ("10g", "1g")
        )
        assert fast.write_time("A") <= slow.write_time("A"), (stripe, n_servers)


@pytest.mark.parametrize("sync_mode", SYNC_MODES)
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("device", DEVICES)
def test_utilizations_and_pressure_in_unit_interval(alone_runs, device, pattern, sync_mode):
    for stripe, n_servers, network in itertools.product(STRIPES, SERVERS, NETWORKS):
        stats = alone_runs[device, pattern, stripe, n_servers, network, sync_mode].components
        values = np.concatenate([
            [stats.client_nic_utilization, stats.server_nic_utilization],
            stats.server_utilization, stats.device_utilization, stats.buffer_pressure,
        ])
        assert values.size == 2 + 3 * n_servers
        assert ((values >= 0.0) & (values <= 1.0)).all(), (stripe, n_servers, network)
