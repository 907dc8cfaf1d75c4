"""The paper's figure shapes at the ``reduced`` scale preset.

Each test asserts the form of one table, figure or ablation, such as "only
HDD under Sync ON collapses into Incast", never its timing.  The scale is
fixed: at ``tiny`` five of these fail (the step-size ablation and Figures
6, 8, 9 and 10), while ``reduced`` agrees with 24 of the paper's 25 claims.

The module is not part of tier-1, whose ``test_*.py`` pattern does not
collect it: on a 2-CPU container it takes about 55 s, and tier-1 about
80 s.  CI runs it by path::

    PYTHONPATH=src python -m pytest -q tests/reduced_shapes.py

The staged figures run as one gathered plan, as the campaign runs them: a
point's result does not depend on its bucket, so every assertion sees the
numbers the figure's own ``run`` returns.
"""

import dataclasses

import pytest

from repro import units
from repro.config.presets import make_scenario
from repro.core.delta import gather, run_delta_sweep, run_staged
from repro.core.experiment import TwoApplicationExperiment
from repro.experiments import (
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table1,
)
from repro.mitigation import (
    DedicatedWriters,
    ServerPartitioning,
    ServerSideCoordination,
    SourceRateLimit,
    evaluate_mitigation,
)
from repro.mitigation.scheduling import evaluate_coordination
from repro.model.simulator import simulate_scenario

SCALE = "reduced"


@pytest.fixture(scope="module")
def figures():
    """Every staged figure at ``SCALE``, keyed by module name."""
    plans = {
        "figure2": figure2.run.stages(scale=SCALE, n_points=7),
        "figure3": figure3.run.stages(scale=SCALE, n_points=3),
        "figure4": figure4.run.stages(scale=SCALE, n_points=7),
        "figure5": figure5.run.stages(scale=SCALE, n_points=7),
        "figure6": figure6.run.stages(scale=SCALE, n_points=5),
        "figure7": figure7.run.stages(scale=SCALE, n_points=7),
        "figure8": figure8.run.stages(scale=SCALE, n_points=3),
        "figure9": figure9.run.stages(scale=SCALE, n_points=3),
        "figure10": figure10.run.stages(scale=SCALE),
        "figure11": figure11.run.stages(scale=SCALE),
        "figure12": figure12.run.stages(scale=SCALE, n_points=5),
    }
    return dict(zip(plans, run_staged(gather(plans.values()))))


def test_table1_local_device():
    """Alone vs interfering local writes on HDD/SSD/RAM (paper Table I)."""
    result = table1.run(scale=SCALE)
    rows = {row["device"]: row for row in result.table("table1")}
    # Paper: slowdowns 2.49 / 1.96 / 1.58 — the ordering and rough bands must hold.
    assert rows["HDD"]["slowdown"] > rows["SSD"]["slowdown"] > rows["RAM"]["slowdown"]
    assert 2.2 <= rows["HDD"]["slowdown"] <= 2.8
    assert 1.7 <= rows["SSD"]["slowdown"] <= 2.2
    assert 1.4 <= rows["RAM"]["slowdown"] <= 1.8


def test_figure2_contiguous_backend(figures):
    """Δ-graphs per backend device and sync mode (paper Figure 2)."""
    result = figures["figure2"]
    # Every real backend peaks near (or above) a 2x slowdown.
    for device in ("hdd", "ssd", "ram"):
        assert result.sweep(f"{device}.sync-on").peak_interference_factor() > 1.7
        assert result.sweep(f"{device}.sync-off").peak_interference_factor() > 1.7
    # Only the HDD/sync-ON configuration triggers Incast (asymmetry + collapses).
    hdd_on = result.sweep("hdd.sync-on")
    assert hdd_on.total_collapses() > 0
    assert hdd_on.asymmetry_index() > 0.05
    # Null-aio shows (almost) no interference.
    assert result.sweep("null-aio").is_flat(0.2)


def test_figure3_strided_backend(figures):
    """Δ-graphs for the strided pattern per backend device (paper Figure 3)."""
    result = figures["figure3"]
    rows = {(r["device"], r["sync"]): r for r in result.table("figure3_summary")}
    # Sync ON: the HDD is an order of magnitude slower than SSD/RAM and
    # suffers at least as much interference.
    assert rows[("hdd", "Sync ON")]["alone_s"] > 4 * rows[("ram", "Sync ON")]["alone_s"]
    assert rows[("hdd", "Sync ON")]["peak_IF"] >= rows[("ram", "Sync ON")]["peak_IF"]
    # Sync OFF: the devices behave alike (within 20%).
    off_times = [rows[(d, "Sync OFF")]["alone_s"] for d in ("hdd", "ssd", "ram")]
    assert max(off_times) / min(off_times) < 1.25


def test_figure4_network_interface(figures):
    """All cores writing vs one dedicated writer per node (paper Figure 4)."""
    result = figures["figure4"]
    all_cores = result.sweep("all_cores")
    one_writer = result.sweep("one_writer_per_node")
    # Fewer writers per node remove the Incast collapses and the unfairness.
    assert one_writer.total_collapses() < all_cores.total_collapses()
    assert abs(one_writer.asymmetry_index()) < max(all_cores.asymmetry_index(), 0.05)
    assert one_writer.peak_interference_factor() <= all_cores.peak_interference_factor() + 0.1


def test_figure5_network_bandwidth(figures):
    """Throttling the network can remove interference (paper Figure 5)."""
    result = figures["figure5"]
    ten_on = result.sweep("10g.sync-on")
    one_on = result.sweep("1g.sync-on")
    ten_off = result.sweep("10g.sync-off")
    one_off = result.sweep("1g.sync-off")

    # Sync ON: the disk is the bottleneck, so the peak write times are close
    # for both networks, but only the 10G sweep is unfair/asymmetric.
    peak_10 = max(ten_on.write_times(a).max() for a in ten_on.applications)
    peak_1 = max(one_on.write_times(a).max() for a in one_on.applications)
    assert abs(peak_10 - peak_1) / peak_10 < 0.25
    assert ten_on.total_collapses() > one_on.total_collapses()
    assert ten_on.asymmetry_index() > one_on.asymmetry_index() - 0.02

    # Sync OFF: the throttled network flattens the delta-graph.
    assert one_off.flatness_index() < 0.4
    assert ten_off.peak_interference_factor() > one_off.peak_interference_factor() + 0.3


def test_figure6_server_scaling(figures):
    """Throughput scaling and interference vs server count (Figure 6, Table II)."""
    result = figures["figure6"]
    scaling = {row["servers"]: row for row in result.table("figure6a_scaling")}
    table2 = {row["servers"]: row for row in result.table("table2_interference")}

    counts = sorted(scaling)
    # Figure 6(a): more servers -> more aggregate throughput (monotone, within noise).
    assert scaling[counts[-1]]["max_throughput_GBps"] > scaling[counts[0]]["max_throughput_GBps"]
    # Table II: the peak interference factor stays roughly constant (~2).
    factors = [table2[c]["peak_interference_factor"] for c in counts]
    assert all(1.6 <= f <= 2.6 for f in factors)
    assert max(factors) - min(factors) < 0.7


def test_figure7_targeted_servers(figures):
    """12 shared servers vs 6+6 partitioned servers (paper Figure 7)."""
    result = figures["figure7"]
    rows = {row["device"]: row for row in result.table("figure7_summary")}
    for device in ("hdd", "ram"):
        row = rows[device]
        # Partitioning costs interference-free performance (half the servers)...
        assert row["partitioned_alone_s"] > row["shared_alone_s"]
        # ...but removes the interference entirely.
        assert row["partitioned_peak_IF"] < 1.25
        assert row["shared_peak_IF"] > 1.7
    # For the HDD case the contended shared peak exceeds the partitioned peak.
    assert rows["hdd"]["shared_peak_time_s"] > rows["hdd"]["partitioned_peak_time_s"] * 0.95


def test_figure8_stripe_size(figures):
    """Stripe-size sweep of the strided workload (paper Figure 8)."""
    result = figures["figure8"]
    rows = {(r["sync"], r["stripe"]): r for r in result.table("figure8_summary")}
    # Larger stripes are faster for both sync modes.
    for sync in ("Sync ON", "Sync OFF"):
        assert rows[(sync, "256 KiB")]["alone_s"] < rows[(sync, "64 KiB")]["alone_s"]
    # With sync OFF the interference shrinks as requests touch fewer servers;
    # with sync ON the disk keeps causing interference.
    assert (
        rows[("Sync OFF", "256 KiB")]["peak_IF"]
        < rows[("Sync OFF", "64 KiB")]["peak_IF"]
    )
    assert rows[("Sync ON", "256 KiB")]["peak_IF"] > 1.4


def test_figure9_request_size(figures):
    """Request-size sweep of the strided workload (paper Figure 9)."""
    result = figures["figure9"]
    rows = {(r["sync"], r["request"]): r for r in result.table("figure9_summary")}
    # Small requests involve a single server each...
    assert rows[("Sync OFF", "64 KiB")]["servers_per_request"] == 1
    assert rows[("Sync OFF", "512 KiB")]["servers_per_request"] == 8
    # ...but are far from optimal for a single application (the paper's warning).
    assert (
        rows[("Sync OFF", "64 KiB")]["alone_s"]
        > 1.5 * rows[("Sync OFF", "256 KiB")]["alone_s"]
    )
    # Interference with small requests is no worse than with large ones (sync OFF).
    assert (
        rows[("Sync OFF", "64 KiB")]["peak_IF"]
        <= rows[("Sync OFF", "512 KiB")]["peak_IF"] + 0.2
    )


def test_figure10_tcp_window(figures):
    """Window traces of an independent vs an interfering run (paper Figure 10)."""
    result = figures["figure10"]
    rows = {row["run"]: row for row in result.table("figure10_windows")}
    # Under contention the traced windows spend time near the floor and the
    # run accumulates many timeout collapses; alone it does not.
    assert rows["interfering"]["window_collapses"] > 50
    assert rows["alone"]["window_collapses"] < rows["interfering"]["window_collapses"] / 5
    assert rows["interfering"]["time_near_floor"] >= rows["alone"]["time_near_floor"]
    assert result.metric("incast_detected") == 1.0


def test_figure11_unfairness(figures):
    """Window size and progress per application with a staggered start (Figure 11)."""
    result = figures["figure11"]
    rows = {row["application"]: row for row in result.table("figure11_summary")}
    first, second = rows["A"], rows["B"]
    # The second application suffers far more window collapses and is slowed
    # down from an earlier point of its transfer than the first one.
    assert second["window_collapses"] > first["window_collapses"]
    assert second["progress_at_slowdown"] <= first["progress_at_slowdown"] + 0.05


def test_figure12_client_count(figures):
    """Δ-graphs for growing client counts (paper Figure 12)."""
    result = figures["figure12"]
    rows = sorted(result.table("figure12_summary"), key=lambda r: r["total_clients"])
    # Window collapses (the Incast signature) appear only above a client-count
    # threshold and grow with the number of clients.
    assert rows[0]["collapses"] < rows[-1]["collapses"]
    assert rows[-1]["collapses"] > 100
    # The unfairness (positive asymmetry) is present at the largest count.
    assert rows[-1]["asymmetry"] > -0.02


def _with_incast_disabled(scenario):
    network = scenario.platform.network
    transport = dataclasses.replace(
        network.transport,
        burst_escape_probability=1.0,
        burst_reentry_probability=1.0,
        paced_timeout_hazard=0.0,
        collapse_penalty=0.0,
    )
    return scenario.with_platform(
        scenario.platform.with_network(dataclasses.replace(network, transport=transport))
    )


def test_ablation_incast_model():
    """Unfairness disappears when the flow-control breakdown is disabled:
    burst escape probability 1.0, so newcomers never lose their bursts."""
    base = make_scenario(SCALE, device="hdd", sync_mode="sync-on")
    deltas = [-2.0, -1.0, 0.0, 1.0, 2.0]
    with_incast = run_delta_sweep(base, deltas, label="incast model on")
    without_incast = run_delta_sweep(
        _with_incast_disabled(base), deltas, label="incast model off"
    )
    # Without the flow-control breakdown the device sharing (~2x) remains but
    # the collapses and (most of) the unfairness are gone.
    assert without_incast.total_collapses() == 0
    assert with_incast.total_collapses() > 0
    assert without_incast.peak_interference_factor() > 1.7
    assert with_incast.asymmetry_index() > without_incast.asymmetry_index() - 0.05


def test_ablation_mitigations():
    """Interference reduction vs single-application cost for each mitigation,
    on one scenario and one Δ sweep."""
    scenario = make_scenario(SCALE, device="hdd", sync_mode="sync-on")
    mitigations = [
        DedicatedWriters(writers_per_node=1),
        SourceRateLimit(node_bw=120 * units.MiB),
        ServerPartitioning(),
        ServerSideCoordination(),
    ]
    outcomes = [
        evaluate_mitigation(m, scenario, deltas=[-1.0, 0.0, 1.0]) for m in mitigations
    ]
    by_name = {o.name: o for o in outcomes}
    # Partitioning and aggregation must reduce the peak interference factor.
    assert by_name["server-partitioning"].interference_reduction > 0.4
    assert by_name["dedicated-writers"].mitigated_peak_if <= (
        by_name["dedicated-writers"].baseline_peak_if + 0.1
    )


def test_ablation_scheduling():
    """Serialize overlapping I/O phases instead of letting them interfere."""
    scenario = make_scenario(SCALE, device="hdd", sync_mode="sync-on")
    summary = evaluate_coordination(scenario, deltas=[-1.0, 0.0, 1.0]).summary()
    # Coordination removes the write-time interference...
    assert summary["peak_if_coordinated"] < 1.3
    assert summary["peak_if_interfering"] > 1.6
    # ...at the cost of real waiting time for the delayed application.
    assert summary["max_scheduler_wait"] > 0.0


def test_ablation_step_size():
    """The contended write time at dt=0 and the interference factor barely
    move across fluid-model steps spanning a factor of ~6."""
    times = {}
    for step_ms in (4.0, 10.0, 25.0):
        scenario = make_scenario(
            SCALE, device="hdd", sync_mode="sync-off", delay=0.0,
            step=step_ms * 1e-3,
        )
        alone = scenario.with_applications(scenario.applications[:1])
        alone_time = simulate_scenario(alone).write_time("A")
        contended = simulate_scenario(scenario)
        times[step_ms] = (alone_time, contended.write_time("A"))

    contended_times = [c for (_a, c) in times.values()]
    spread = (max(contended_times) - min(contended_times)) / min(contended_times)
    factors = [c / a for (a, c) in times.values()]
    # The step size must not change the story: write times within ~10%, and
    # the interference factor stays around 2 for every step.
    assert spread < 0.10
    assert all(1.6 < f < 2.4 for f in factors)


def test_ablation_transport():
    """Ethernet/TCP vs a lossless credit-based fabric on HDD, Sync ON."""
    sweeps = {}
    for network in ("10g", "infiniband"):
        experiment = TwoApplicationExperiment(
            SCALE, device="hdd", sync_mode="sync-on", pattern="contiguous",
            network=network,
        )
        sweeps[network] = experiment.run_sweep(n_points=5, label=network)
    tcp_sweep, lossless_sweep = sweeps["10g"], sweeps["infiniband"]
    # The lossless fabric removes the Incast signature entirely...
    assert lossless_sweep.total_collapses() == 0
    assert tcp_sweep.total_collapses() > 0
    # ...but the device-sharing interference remains around 2x.
    assert lossless_sweep.peak_interference_factor() > 1.7
    assert abs(lossless_sweep.asymmetry_index()) < max(tcp_sweep.asymmetry_index(), 0.05)
