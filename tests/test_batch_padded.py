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
    """A random ragged deployment plus one admission round's inputs.

    Group widths reach past NumPy's 8-wide pairwise-sum unrolling and its
    128-element block, so row sums run every summation shape the kernel
    meets.  Each server's capacity differs through ``extra_capacity`` and
    ``max_admission`` (zero included), rows may offer nothing at all, and
    offers are skewed so that water-filling runs all four passes.  The
    numbers come from a drawn NumPy seed; hypothesis shrinks the shape.
    """
    n_servers = draw(st.integers(min_value=2, max_value=5))
    widths = draw(
        st.lists(
            st.one_of(st.integers(min_value=0, max_value=4),
                      st.integers(min_value=5, max_value=200)),
            min_size=n_servers, max_size=n_servers,
        )
    )
    assume(sum(widths) > 0)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    grouped = np.repeat(np.arange(n_servers, dtype=np.int64), widths)
    # Interleave the groups: connection ids need not be contiguous per server.
    conn_server = grouped[rng.permutation(grouped.shape[0])]
    n = int(conn_server.shape[0])
    # Skewed offers with exact zeros, some servers offering nothing.
    offered = rng.lognormal(mean=3.0, sigma=2.0, size=n)
    offered[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    silent = rng.random(n_servers) < draw(st.sampled_from([0.0, 0.3]))
    offered[silent[conn_server]] = 0.0
    if draw(st.booleans()):
        weights = np.ones(n)
    else:
        weights = rng.uniform(0.25, 4.0, size=n)
    capacity = draw(st.floats(min_value=10.0, max_value=300.0, **_finite))
    # Per-server extra room and caps, scaled to each server's offer so that
    # rows fit, water-fill or have no room at all.
    per_server = np.bincount(conn_server, weights=offered, minlength=n_servers)
    extra = max_admission = None
    if draw(st.booleans()):
        extra = per_server * rng.uniform(-0.5, 1.5, size=n_servers)
    if draw(st.booleans()):
        max_admission = per_server * rng.uniform(0.0, 1.5, size=n_servers)
        max_admission[rng.random(n_servers) < 0.25] = 0.0
    if draw(st.booleans()):
        # Some servers' room is exactly their offers' pairwise sum, where a
        # row total summed in another order would flip fit and overflow.
        exact = rng.random(n_servers) < 0.5
        totals = np.array([offered[conn_server == s].sum() for s in range(n_servers)])
        extra = np.where(exact, 2.0 * totals, 0.0 if extra is None else extra)
        max_admission = np.where(
            exact, totals, np.inf if max_admission is None else max_admission
        )
    return n_servers, conn_server, offered, weights, capacity, extra, max_admission


def _server_capacity(capacity, extra, max_admission, s):
    """Server ``s``'s room for one admission round into empty buffers, in
    the operation order of ``ServerBuffers.admit``."""
    room = max(capacity - 0.0, 0.0)
    if extra is not None:
        room = room + max(float(extra[s]), 0.0)
    if max_admission is not None:
        room = min(room, max(float(max_admission[s]), 0.0))
    return room


def _reference_admit(conn_server, n_servers, offered, weights, capacity,
                     extra=None, max_admission=None):
    """The scalar reference: one proportional_share call per server, and
    a server is oversubscribed when its offers, summed in connection
    order, exceed its room."""
    admitted = np.zeros_like(offered)
    oversubscribed = np.zeros(offered.shape[0], dtype=bool)
    for s in range(n_servers):
        mask = conn_server == s
        room = _server_capacity(capacity, extra, max_admission, s)
        admitted[mask] = proportional_share(
            offered[mask], room, weights=weights[mask]
        )
        total = 0.0
        for value in offered[mask].tolist():
            total += value
        oversubscribed[mask] = total > room + 1e-9
    return admitted, oversubscribed


class TestRaggedAdmissionProperty:
    @given(case=ragged_admissions())
    @settings(max_examples=150, deadline=None)
    def test_stacked_matches_reference_bitwise(self, case):
        (n_servers, conn_server, offered, weights, capacity,
         extra, max_admission) = case
        buffers = ServerBuffers(
            n_servers=n_servers, capacity_bytes=capacity, conn_server=conn_server
        )
        admitted, oversubscribed = buffers.admit(
            offered, weights, extra_capacity=extra, max_admission=max_admission
        )
        expected, expected_over = _reference_admit(
            conn_server, n_servers, offered, weights, capacity, extra, max_admission
        )
        assert admitted.tobytes() == expected.tobytes()
        assert np.array_equal(oversubscribed, expected_over)
        # The padding accounting always balances: every slot of the padded
        # (S, K) layout is either a real group slot or an empty one.
        real = int(np.bincount(conn_server, minlength=n_servers).sum())
        if buffers._row_width.any():
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
