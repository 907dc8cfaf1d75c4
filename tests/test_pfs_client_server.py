"""Tests for the scalar PVFS server and the flat deployment."""

import numpy as np
import pytest

from repro import units
from repro.config.filesystem import FileSystemConfig, SyncMode
from repro.config.server import ServerConfig
from repro.errors import ConfigurationError
from repro.pfs.filesystem import PVFSDeployment
from repro.pfs.server import FLOW_BUFFER_BYTES, PVFSServer
from repro.storage import device_by_name

KIB = units.KiB
MIB = units.MiB


def make_server(sync_mode=SyncMode.SYNC_ON, device="hdd", **server_kwargs):
    return PVFSServer(
        server_id=0,
        config=ServerConfig(**server_kwargs),
        device=device_by_name(device),
        sync_mode=sync_mode,
        stripe_size=64 * KIB,
        server_nic_bw=1.25e9,
    )


class TestServer:
    def test_sync_on_drain_follows_device(self):
        hdd = make_server(SyncMode.SYNC_ON, "hdd")
        ram = make_server(SyncMode.SYNC_ON, "ram")
        assert hdd.drain_rate(32, 64 * KIB) < ram.drain_rate(32, 64 * KIB)

    def test_sync_off_hides_the_device(self):
        hdd_off = make_server(SyncMode.SYNC_OFF, "hdd")
        ram_off = make_server(SyncMode.SYNC_OFF, "ram")
        assert hdd_off.drain_rate(32, 64 * KIB) == pytest.approx(
            ram_off.drain_rate(32, 64 * KIB), rel=0.01
        )

    def test_null_aio_bypasses_ingest_limit(self):
        null = make_server(SyncMode.NULL_AIO)
        regular = make_server(SyncMode.SYNC_OFF)
        assert null.ingest_rate() > regular.ingest_rate()

    def test_small_fragments_are_op_bound(self):
        server = make_server(SyncMode.SYNC_OFF)
        small = server.drain_rate(32, 16 * KIB)
        large = server.drain_rate(32, 4 * MIB)
        assert small < large

    def test_processing_unit_bounds(self):
        server = make_server()
        assert server.processing_unit(16 * KIB) == 16 * KIB
        assert server.processing_unit(10 * MIB) == FLOW_BUFFER_BYTES

    def test_commit_accounting(self):
        server = make_server(SyncMode.SYNC_ON, "hdd")
        rate = server.drain_rate(8, 1 * MIB)
        server.commit(rate * 0.1, dt=0.1, n_streams=8, granularity=1 * MIB)
        assert server.drained_bytes == pytest.approx(rate * 0.1)
        assert 0.5 < server.utilization() <= 1.0
        server.reset()
        assert server.utilization() == 0.0

    def test_commit_sync_off_uses_cache(self):
        server = make_server(SyncMode.SYNC_OFF, "hdd")
        server.commit(10 * MIB, dt=0.1, n_streams=4, granularity=1 * MIB)
        assert server.dirty_cache_bytes() > 0

    def test_describe(self):
        assert "Sync ON" in make_server().describe()


class TestDeployment:
    def make_deployment(self, n_servers=3):
        fs = FileSystemConfig(
            n_servers=n_servers, device=device_by_name("hdd"), server=ServerConfig()
        )
        return PVFSDeployment(fs, server_nic_bw=1.25e9)

    def test_server_lanes_created(self):
        dep = self.make_deployment()
        assert dep.n_servers == 3
        for array in (dep.drained_bytes, dep.busy_time, dep.dirty_bytes,
                      dep.pending_bytes, dep.device_busy_time):
            assert array.tolist() == [0.0, 0.0, 0.0]

    def test_drain_rates_vectorized(self):
        dep = self.make_deployment()
        rates = dep.law(np.array([1, 8, 64]), np.full(3, 1 * MIB)).rates
        assert rates.shape == (3,)
        assert rates[0] >= rates[1] >= rates[2]

    def test_commit_flat_and_utilizations(self):
        dep = self.make_deployment()
        assert dep.utilizations().tolist() == [0.0, 0.0, 0.0]
        dep.commit_flat(np.array([1e6, 2e6, 0.0]), np.full(3, 0.1),
                        dep.law(np.array([4, 4, 4]), np.full(3, 1 * MIB)))
        dep.observed_time = 0.1
        assert dep.drained_bytes.tolist() == [1e6, 2e6, 0.0]
        utilization = dep.utilizations()
        assert utilization.shape == (3,)
        assert 0.0 < utilization[0] < utilization[1] <= 1.0
        assert utilization[2] == 0.0

    def test_wrong_shapes_rejected(self):
        dep = self.make_deployment()
        with pytest.raises(ConfigurationError):
            dep.law(np.array([1]), np.array([1.0]))
