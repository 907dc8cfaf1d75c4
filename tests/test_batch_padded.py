"""Property tests for padded ragged batching (hypothesis).

The width-classed admission path and the padded bucket planner promise
*bitwise* equality with the scalar path for arbitrary ragged group shapes:
any mix of per-server group widths (including empty servers) must admit
exactly what the per-server reference water-filling admits, and any mix of
deployment widths sharing a lockstep cadence must batch into one padded
bucket whose members reproduce their alone fingerprints byte-for-byte.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.model.batch import plan_buckets, simulate_many
from repro.model.simulator import simulate_scenario
from repro.network.allocation import proportional_share
from repro.network.incast import ServerBuffers
from repro.obs.telemetry import telemetry_session
from repro.scenarios.spec import build_scenario

from tests._golden_utils import metric_fingerprint

# ---------------------------------------------------------------------- #
# Admission: width-classed stacked water-filling == per-server reference
# ---------------------------------------------------------------------- #

_finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def ragged_admissions(draw):
    """A random ragged deployment plus one admission round's inputs."""
    n_servers = draw(st.integers(min_value=2, max_value=5))
    widths = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=n_servers, max_size=n_servers,
        )
    )
    assume(sum(widths) > 0)
    grouped = np.repeat(np.arange(n_servers, dtype=np.int64), widths)
    # Interleave the groups: connection ids need not be contiguous per server.
    order = draw(st.permutations(range(int(grouped.shape[0]))))
    conn_server = grouped[np.asarray(order, dtype=np.int64)]
    n = int(conn_server.shape[0])
    offered = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=500.0, **_finite),
                min_size=n, max_size=n,
            )
        ),
        dtype=np.float64,
    )
    weights = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.25, max_value=4.0, **_finite),
                min_size=n, max_size=n,
            )
        ),
        dtype=np.float64,
    )
    capacity = draw(st.floats(min_value=10.0, max_value=300.0, **_finite))
    return n_servers, conn_server, offered, weights, capacity


def _reference_admit(conn_server, n_servers, offered, weights, capacity):
    """The scalar reference: one proportional_share call per server."""
    admitted = np.zeros_like(offered)
    offered_per_server = np.bincount(
        conn_server, weights=offered, minlength=n_servers
    )
    for s in np.flatnonzero(offered_per_server > 0):
        mask = conn_server == s
        admitted[mask] = proportional_share(
            offered[mask], float(capacity), weights=weights[mask]
        )
    return admitted


class TestRaggedAdmissionProperty:
    @given(case=ragged_admissions())
    @settings(max_examples=60, deadline=None)
    def test_stacked_matches_reference_bitwise(self, case):
        n_servers, conn_server, offered, weights, capacity = case
        buffers = ServerBuffers(
            n_servers=n_servers, capacity_bytes=capacity, conn_server=conn_server
        )
        admitted, _ = buffers.admit(offered, weights)
        expected = _reference_admit(
            conn_server, n_servers, offered, weights, capacity
        )
        assert np.array_equal(admitted, expected)
        # The padding accounting always balances: every slot of the (S, K)
        # matrix is either a real group slot or a masked pad slot.
        real = int(np.bincount(conn_server, minlength=n_servers).sum())
        if buffers._group_matrix is not None:
            assert buffers.group_slots - buffers.padded_slots >= real
            assert buffers.padded_slots >= 0


# ---------------------------------------------------------------------- #
# Buckets: mixed deployment widths pad together and match alone runs
# ---------------------------------------------------------------------- #

#: Random target-server subsets of the tiny 4-server deployment.  The
#: restriction changes per-server group widths (raggedness) but not the
#: total bytes, so every variant keeps the base scenario's lockstep cadence.
_SERVER_SETS = [(0,), (2,), (0, 1), (0, 2), (1, 2, 3), (0, 1, 2, 3)]


def _restricted(base, servers):
    app = base.applications[0]
    return dataclasses.replace(
        base,
        applications=(dataclasses.replace(app, target_servers=servers),),
    )


class TestPaddedBucketsMatchScalar:
    @given(
        subsets=st.lists(st.sampled_from(_SERVER_SETS), min_size=2, max_size=4)
    )
    @settings(max_examples=10, deadline=None)
    def test_random_ragged_members_match_alone(self, subsets):
        base = build_scenario(["checkpoint"], "tiny").scenario
        scenarios = [_restricted(base, servers) for servers in subsets]
        buckets, fallback = plan_buckets(scenarios)
        assert not fallback, "fixed-stepping members must never fall back"
        covered = sorted(i for b in buckets for i in b.indices)
        assert covered == list(range(len(scenarios)))
        results = simulate_many(scenarios)
        for servers, scenario, result in zip(subsets, scenarios, results):
            alone = simulate_scenario(scenario)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0], (
                f"padded member targeting servers {servers} diverged from "
                "its alone run"
            )

    def test_mixed_width_bucket_pads_and_matches(self):
        base = build_scenario(["checkpoint"], "tiny").scenario
        subsets = [(0, 1, 2, 3), (0, 1), (2,)]
        scenarios = [_restricted(base, servers) for servers in subsets]
        with telemetry_session("padded-bucket") as telemetry:
            results = simulate_many(scenarios)
            counters = telemetry.snapshot()["counters"]
        assert counters["batch.buckets"] == 1
        assert counters["batch.member_runs"] == 3
        assert "batch.ragged_fallbacks" not in counters
        # Three widths (16, 8, 4 connections per targeted server group) pad
        # to the widest class, so masked slots must be accounted.
        assert counters["batch.padded_slots"] > 0
        assert counters["batch.group_slots"] > counters["batch.padded_slots"]
        for scenario, result in zip(scenarios, results):
            alone = simulate_scenario(scenario)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0]
