"""Tests for the configuration dataclasses and presets."""

import dataclasses

import pytest

from repro import units
from repro.config import (
    AccessKind,
    ApplicationSpec,
    FileSystemConfig,
    NetworkConfig,
    PatternSpec,
    PlatformConfig,
    ScenarioConfig,
    ServerConfig,
    SimulationControl,
    SyncMode,
    TransportConfig,
)
from repro.config.presets import (
    PresetName,
    get_scale,
    grid5000_platform,
    make_scenario,
    make_single_app_scenario,
    paper_scale,
    reduced_scale,
    tiny_scale,
)
from repro.errors import ConfigurationError
from repro.storage import device_by_name


class TestTransportConfig:
    def test_defaults_valid(self):
        TransportConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_min": 0},
            {"window_init": 1.0, "window_min": 2.0},
            {"window_max": 1.0},
            {"mss": 0},
            {"multiplicative_decrease": 1.5},
            {"rto": 0},
            {"starvation_fraction": 1.5},
            {"established_weight": 0.5},
            {"collapse_penalty": 2.0},
            {"rwnd_overcommit": 0},
            {"incast_window_segments": 0},
            {"burst_loss_ratio": 0},
            {"source_margin": 0},
            {"max_backoff_exponent": -1},
            {"burst_escape_probability": 0},
            {"paced_timeout_hazard": 2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TransportConfig(**kwargs)

    def test_incast_threshold(self):
        t = TransportConfig(incast_window_segments=4, mss=1500)
        assert t.incast_window_threshold == 6000

    def test_scaled_time(self):
        t = TransportConfig(rto=0.2, established_memory=0.2).scaled_time(0.5)
        assert t.rto == pytest.approx(0.1)
        assert t.established_memory == pytest.approx(0.1)
        with pytest.raises(ConfigurationError):
            TransportConfig().scaled_time(0)


class TestNetworkConfig:
    def test_defaults_and_presets(self):
        ten = NetworkConfig.ten_gig()
        one = NetworkConfig.one_gig()
        assert ten.client_nic_bw > one.client_nic_bw
        assert ten.effective_node_bw <= ten.client_nic_bw
        assert one.effective_node_bw == pytest.approx(units.gbit_per_s(1))

    def test_with_bandwidth(self):
        net = NetworkConfig().with_bandwidth(1e8, name="slow")
        assert net.client_nic_bw == 1e8
        assert net.name == "slow"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(client_nic_bw=0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(rtt=0)


class TestServerAndPlatform:
    def test_server_config(self):
        cfg = ServerConfig()
        assert cfg.ops_per_second > 0
        assert cfg.with_buffer(1024).buffer_bytes == 1024
        assert cfg.with_ingest_bw(1.0).ingest_bw == 1.0
        scaled = cfg.scaled(0.5)
        assert scaled.buffer_bytes == cfg.buffer_bytes * 0.5
        with pytest.raises(ConfigurationError):
            ServerConfig(ingest_bw=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(flush_bw_fraction=0)
        with pytest.raises(ConfigurationError):
            cfg.scaled(0)

    def test_platform_config(self):
        platform = PlatformConfig()
        assert platform.total_cores == platform.n_client_nodes * platform.cores_per_node
        assert platform.with_nodes(5).n_client_nodes == 5
        assert "cores" in platform.describe()
        with pytest.raises(ConfigurationError):
            PlatformConfig(n_client_nodes=0)


class TestFileSystemConfig:
    def test_defaults(self):
        fs = FileSystemConfig()
        assert fs.n_servers == 12
        assert fs.all_servers == tuple(range(12))

    def test_server_groups(self):
        fs = FileSystemConfig(n_servers=12)
        groups = fs.server_groups(2)
        assert groups == (tuple(range(6)), tuple(range(6, 12)))
        uneven = FileSystemConfig(n_servers=5).server_groups(2)
        assert uneven == ((0, 1, 2), (3, 4))
        with pytest.raises(ConfigurationError):
            fs.server_groups(0)
        with pytest.raises(ConfigurationError):
            FileSystemConfig(n_servers=2).server_groups(3)

    def test_builders(self):
        fs = FileSystemConfig()
        assert fs.with_device("ram").device.name == "RAM"
        assert fs.with_sync(False).sync_mode is SyncMode.SYNC_OFF
        assert fs.with_sync("null-aio").sync_mode is SyncMode.NULL_AIO
        assert fs.with_stripe_size(128 * units.KiB).stripe_size == 128 * units.KiB
        assert fs.with_servers(4).n_servers == 4
        with pytest.raises(ConfigurationError):
            fs.with_sync("sometimes")

    def test_sync_mode_labels(self):
        assert SyncMode.SYNC_ON.label == "Sync ON"
        assert SyncMode.NULL_AIO.label == "Null-aio"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FileSystemConfig(n_servers=0)
        with pytest.raises(ConfigurationError):
            FileSystemConfig(stripe_size=0)


class TestPatternSpec:
    def test_contiguous_defaults(self):
        pattern = PatternSpec.contiguous(bytes_per_process=64 * units.MiB)
        assert pattern.kind is AccessKind.CONTIGUOUS
        assert pattern.requests_per_process == 1
        assert pattern.effective_request_size == 64 * units.MiB

    def test_strided_defaults_match_paper(self):
        pattern = PatternSpec.strided(bytes_per_process=64 * units.MiB)
        assert pattern.requests_per_process == 256
        assert pattern.effective_request_size == 256 * units.KiB

    def test_last_request_size(self):
        pattern = PatternSpec.strided(bytes_per_process=100 * units.KiB,
                                      request_size=64 * units.KiB)
        assert pattern.requests_per_process == 2
        assert pattern.last_request_size == pytest.approx(36 * units.KiB)

    def test_with_request_size(self):
        pattern = PatternSpec.strided().with_request_size(128 * units.KiB)
        assert pattern.effective_request_size == 128 * units.KiB

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PatternSpec(bytes_per_process=0)
        with pytest.raises(ConfigurationError):
            PatternSpec(bytes_per_process=10, request_size=20)
        with pytest.raises(ConfigurationError):
            PatternSpec(collective_overhead=-1)

    def test_describe(self):
        assert "contiguous" in PatternSpec.contiguous().describe()
        assert "strided" in PatternSpec.strided().describe()


class TestApplicationSpec:
    def make(self, **kwargs):
        defaults = dict(name="A", n_nodes=4, procs_per_node=8,
                        pattern=PatternSpec.contiguous(8 * units.MiB))
        defaults.update(kwargs)
        return ApplicationSpec(**defaults)

    def test_derived_quantities(self):
        app = self.make()
        assert app.n_processes == 32
        assert app.total_bytes == 32 * 8 * units.MiB

    def test_with_writers_conserves_volume(self):
        app = self.make()
        aggregated = app.with_writers(4, 1)
        assert aggregated.n_processes == 4
        assert aggregated.total_bytes == pytest.approx(app.total_bytes)
        not_conserved = app.with_writers(4, 1, keep_total_bytes=False)
        assert not_conserved.total_bytes < app.total_bytes

    def test_with_helpers(self):
        app = self.make()
        assert app.with_start_time(3.0).start_time == 3.0
        assert app.with_target_servers([0, 1]).target_servers == (0, 1)
        assert app.with_target_servers(None).target_servers is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make(name="")
        with pytest.raises(ConfigurationError):
            self.make(n_nodes=0)
        with pytest.raises(ConfigurationError):
            self.make(target_servers=(0, 0))
        with pytest.raises(ConfigurationError):
            self.make(target_servers=())


class TestScenarioConfig:
    def test_make_scenario_valid(self):
        scenario = make_scenario("tiny")
        assert scenario.n_applications == 2
        assert scenario.node_ranges() == ((0, 4), (4, 8))
        assert scenario.total_bytes() > 0
        assert scenario.estimate_duration() > 0
        assert "scenario" in scenario.describe()

    def test_with_delay(self):
        scenario = make_scenario("tiny").with_delay(2.5)
        assert scenario.applications[1].start_time == 2.5
        assert scenario.applications[0].start_time == 0.0

    def test_equal_scenarios_hash_equal(self):
        """Every part of a scenario is frozen, so it hashes by value: equal
        requests are found by a dict lookup."""
        a, b = make_scenario("tiny"), make_scenario("tiny")
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, a.with_delay(0.0)}) == 1
        delayed = a.with_delay(0.25)
        assert delayed != a
        assert delayed == b.with_delay(0.25) and hash(delayed) == hash(b.with_delay(0.25))

    def test_application_lookup(self):
        scenario = make_scenario("tiny")
        assert scenario.application("A").name == "A"
        with pytest.raises(KeyError):
            scenario.application("Z")

    def test_app_servers_default_and_partitioned(self):
        scenario = make_scenario("tiny")
        assert scenario.app_servers(scenario.applications[0]) == scenario.filesystem.all_servers
        part = make_scenario("tiny", partition_servers=True)
        servers_a = part.app_servers(part.applications[0])
        servers_b = part.app_servers(part.applications[1])
        assert set(servers_a).isdisjoint(servers_b)

    def test_too_many_nodes_rejected(self):
        scenario = make_scenario("tiny")
        big_app = scenario.applications[0].with_writers(100, 1)
        with pytest.raises(ConfigurationError):
            scenario.with_applications([big_app, scenario.applications[1]])

    def test_invalid_target_server(self):
        scenario = make_scenario("tiny")
        bad = scenario.applications[0].with_target_servers([99])
        with pytest.raises(ConfigurationError):
            scenario.with_applications([bad, scenario.applications[1]])

    def test_duplicate_names_rejected(self):
        scenario = make_scenario("tiny")
        with pytest.raises(ConfigurationError):
            scenario.with_applications([scenario.applications[0]] * 2)

    def test_simulation_control(self):
        control = SimulationControl()
        assert control.resolve_step(100.0) <= control.max_step
        assert control.resolve_step(0.001) == control.min_step
        assert SimulationControl(step=0.01).resolve_step(1e9) == 0.01
        with pytest.raises(ConfigurationError):
            SimulationControl(step=0)
        with pytest.raises(ConfigurationError):
            SimulationControl(min_step=1.0, max_step=0.1)


class TestPresets:
    def test_scales(self):
        for name, factory in [("paper", paper_scale), ("reduced", reduced_scale), ("tiny", tiny_scale)]:
            preset = factory()
            assert preset.name == name
            assert preset.procs_per_app == preset.nodes_per_app * preset.procs_per_node
        assert paper_scale().total_clients == 960

    def test_get_scale(self):
        assert get_scale("paper").name == "paper"
        assert get_scale(PresetName.TINY).name == "tiny"
        assert get_scale(reduced_scale()).name == "reduced"
        with pytest.raises(ConfigurationError):
            get_scale("huge")

    def test_grid5000_platform_networks(self):
        ten = grid5000_platform("tiny", network="10g")
        one = grid5000_platform("tiny", network="1g")
        assert ten.network.client_nic_bw > one.network.client_nic_bw
        with pytest.raises(ConfigurationError):
            grid5000_platform("tiny", network="wifi")

    def test_make_scenario_options(self):
        scenario = make_scenario(
            "tiny",
            device="ram",
            sync_mode="sync-off",
            pattern="strided",
            request_size=64 * units.KiB,
            stripe_size=128 * units.KiB,
            n_servers=2,
            procs_per_node=2,
            delay=1.5,
        )
        assert scenario.filesystem.device.name == "RAM"
        assert scenario.filesystem.sync_mode is SyncMode.SYNC_OFF
        assert scenario.filesystem.n_servers == 2
        assert scenario.applications[1].start_time == 1.5
        assert scenario.applications[0].pattern.kind is AccessKind.STRIDED

    def test_null_aio_forces_null_device(self):
        scenario = make_scenario("tiny", device="hdd", sync_mode="null-aio")
        assert scenario.filesystem.device.is_unlimited

    def test_single_app_scenario(self):
        scenario = make_single_app_scenario("tiny")
        assert scenario.n_applications == 1

    def test_pattern_spec_passthrough(self):
        pattern = PatternSpec.strided(bytes_per_process=1 * units.MiB)
        scenario = make_scenario("tiny", pattern=pattern)
        assert scenario.applications[0].pattern == pattern

    def test_scenario_configs_are_frozen(self):
        scenario = make_scenario("tiny")
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.label = "nope"  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.filesystem.stripe_size = 1  # type: ignore[misc]

    def test_device_by_name_integration(self):
        scenario = make_scenario("tiny", device=device_by_name("ssd"))
        assert scenario.filesystem.device.name == "SSD"
