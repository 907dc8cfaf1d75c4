"""The flat server laws match the scalar reference server bit for bit.

:class:`~repro.pfs.filesystem.PVFSDeployment` runs the drain-capacity and
backend-commit laws elementwise over all servers; every lane must hold
exactly what a :class:`~repro.pfs.server.PVFSServer` holds after the same
steps.  Small page caches make the Sync OFF path cross its cache-full
transition inside the generated sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.filesystem import FileSystemConfig, SyncMode
from repro.config.server import ServerConfig
from repro.pfs.filesystem import _MODE_CODES, PVFSDeployment
from repro.pfs.server import PVFSServer
from repro.storage import device_by_name

N_SERVERS = 3
NIC_BW = 1.25e9

modes = st.sampled_from(list(SyncMode))
devices = st.sampled_from(["hdd", "ssd", "ram", "null"])
fragments = st.one_of(
    st.floats(min_value=-4.0, max_value=8 * units.MiB, allow_nan=False),
    st.sampled_from([0.0, 0.5, 1.0, 64.0 * units.KiB, 1.0 * units.MiB]),
)
streams = st.integers(min_value=1, max_value=64)
step = st.tuples(
    st.lists(st.floats(min_value=0.0, max_value=5e7, allow_nan=False),
             min_size=N_SERVERS, max_size=N_SERVERS),
    st.sampled_from([1e-4, 2.5e-4, 1e-3, 0.01]),
    st.lists(streams, min_size=N_SERVERS, max_size=N_SERVERS),
    st.lists(fragments, min_size=N_SERVERS, max_size=N_SERVERS),
    st.booleans(),
)


def make_pair(mode, device_name, cache_bytes):
    config = FileSystemConfig(
        n_servers=N_SERVERS,
        device=device_by_name(device_name),
        server=ServerConfig(page_cache_bytes=cache_bytes),
        sync_mode=mode,
    )
    servers = [
        PVFSServer(
            server_id=s, config=config.server, device=config.device,
            sync_mode=mode, stripe_size=config.stripe_size, server_nic_bw=NIC_BW,
        )
        for s in range(N_SERVERS)
    ]
    return PVFSDeployment(config, server_nic_bw=NIC_BW), servers


def assert_lanes_equal(deployment, servers):
    for s, server in enumerate(servers):
        assert deployment.drained_bytes[s] == server.drained_bytes
        assert deployment.busy_time[s] == server.busy_time
        assert deployment.observed_time == server.observed_time
        assert deployment.dirty_bytes[s] == server.cache.dirty_bytes
        assert deployment.absorbed_bytes[s] == server.cache.total_absorbed
        assert deployment.flushed_bytes[s] == server.cache.total_flushed
        assert deployment.pending_bytes[s] == server.device_queue.pending_bytes
        assert deployment.written_bytes[s] == server.device_queue.written_bytes
        assert deployment.device_busy_time[s] == server.device_queue.busy_time
    assert deployment.utilizations().tolist() == [s.utilization() for s in servers]
    assert deployment.device_utilizations().tolist() == [
        s.device_utilization() for s in servers
    ]


class TestDrainLaw:
    @settings(max_examples=150, deadline=None)
    @given(mode=modes, device=devices,
           n=st.lists(streams, min_size=N_SERVERS, max_size=N_SERVERS),
           frag=st.lists(fragments, min_size=N_SERVERS, max_size=N_SERVERS))
    def test_drain_rates_match_scalar_law(self, mode, device, n, frag):
        deployment, servers = make_pair(mode, device, 96 * units.GiB)
        rates = deployment.law(np.array(n), np.array(frag)).rates
        assert rates.tolist() == [
            server.drain_rate(k, g) for server, k, g in zip(servers, n, frag)
        ]


class TestCommitLaw:
    @settings(max_examples=120, deadline=None)
    @given(mode=modes, device=devices,
           cache=st.sampled_from([1.0 * units.MiB, 8.0 * units.MiB, 96.0 * units.GiB]),
           steps=st.lists(step, min_size=1, max_size=12))
    def test_commit_sequences_match_scalar_servers(self, mode, device, cache, steps):
        """Steps with and without a drain-rate lookup (which fills the law
        memo) before the commit's own; like the stepper, the test advances
        the deployment's observed time itself."""
        deployment, servers = make_pair(mode, device, cache)
        for drained, dt, n, frag, paired in steps:
            if paired:
                deployment.law(np.array(n), np.array(frag))
            deployment.commit_flat(np.array(drained), np.full(N_SERVERS, dt),
                                   deployment.law(np.array(n), np.array(frag)))
            deployment.observed_time += dt
            for server, nbytes, k, g in zip(servers, drained, n, frag):
                server.commit(nbytes, dt, k, g)
        assert_lanes_equal(deployment, servers)


# ---------------------------------------------------------------------- #
# Stacked deployments of mixed configurations
# ---------------------------------------------------------------------- #

STATE = ("drained_bytes", "busy_time", "dirty_bytes", "absorbed_bytes",
         "flushed_bytes", "pending_bytes", "written_bytes", "device_busy_time")

configs = st.tuples(
    modes, devices,
    st.sampled_from([64.0 * units.KiB, 128.0 * units.KiB, 1.0 * units.MiB]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([NIC_BW, 1.25e8]),
)


class TestStackedDeployment:
    """A stack of deployments that differ in sync mode, device, stripe size,
    server count and NIC rate (sharing the server configuration) equals each
    deployment alone, lane for lane, over a random step sequence."""

    @settings(max_examples=80, deadline=None)
    @given(parts=st.lists(configs, min_size=1, max_size=4),
           cache=st.sampled_from([1.0 * units.MiB, 96.0 * units.GiB]),
           data=st.data())
    def test_stacked_equals_each_alone(self, parts, cache, data):
        server = ServerConfig(page_cache_bytes=cache)
        alone = [
            PVFSDeployment(
                FileSystemConfig(n_servers=n, stripe_size=stripe, sync_mode=mode,
                                 device=device_by_name(device), server=server),
                server_nic_bw=nic,
            )
            for mode, device, stripe, n, nic in parts
        ]
        stacked = PVFSDeployment.stacked(alone)
        bounds = np.cumsum([0] + [d.n_servers for d in alone])
        lanes = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        width = int(bounds[-1])
        assert stacked.n_servers == width
        # Every lane carries its own deployment's sync mode, in any order.
        assert stacked._mode.tolist() == [
            _MODE_CODES[mode] for mode, _, _, n, _ in parts for _ in range(n)
        ]
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            drained = np.array(data.draw(st.lists(
                st.floats(min_value=0.0, max_value=5e7, allow_nan=False),
                min_size=width, max_size=width)))
            n = np.array(data.draw(st.lists(streams, min_size=width, max_size=width)))
            frag = np.array(data.draw(st.lists(fragments, min_size=width, max_size=width)))
            dt = np.repeat(
                data.draw(st.lists(st.sampled_from([1e-4, 2.5e-4, 1e-3, 0.01]),
                                   min_size=len(alone), max_size=len(alone))),
                [d.n_servers for d in alone],
            )
            law = stacked.law(n, frag)
            stacked.commit_flat(drained, dt, law)
            for deployment, sl in zip(alone, lanes):
                alone_law = deployment.law(n[sl], frag[sl])
                assert alone_law.rates.tolist() == law.rates[sl].tolist()
                deployment.commit_flat(drained[sl], dt[sl], alone_law)
        for deployment, sl in zip(alone, lanes):
            for name in STATE:
                assert getattr(stacked, name)[sl].tolist() == getattr(deployment, name).tolist(), name
