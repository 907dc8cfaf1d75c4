"""The flat control plane: vectorized issue, striping, completion and driver.

The model's control plane — issuing operations, detecting completions,
stepping the batched members' engines — runs as array code over every
process and application at once.  These tests pin each vectorized piece to
the per-element computation it replaces, bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.presets import make_scenario
from repro.config.workload import PatternSpec
from repro.model.batch import BatchSimulator
from repro.model.simulator import simulate_scenario
from repro.model.state import ModelState, _segment_sums
from repro.obs.telemetry import telemetry_session
from repro.pfs import striping
from repro.pfs.striping import extent_to_server_bytes, extents_to_server_matrix
from repro.scenarios.spec import build_scenario
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceConfig
from repro.workload.patterns import pattern_extents, request_extents

from tests._golden_utils import metric_fingerprint

KIB = units.KiB

extents = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 4 * units.MiB).map(float),
                  st.floats(0.0, 4e6, allow_nan=False)),
        st.one_of(st.integers(0, 2 * units.MiB).map(float),
                  st.floats(0.0, 2e6, allow_nan=False)),
    ),
    min_size=1, max_size=6,
)


class TestVectorizedStriping:
    @settings(max_examples=200, deadline=None)
    @given(extents=extents,
           stripe=st.sampled_from([4 * KIB, 64 * KIB, 1.5 * 64 * KIB, 1000.0]),
           servers=st.sampled_from([(0,), (0, 1, 2, 3), (3, 1), (2, 5, 0)]))
    def test_rows_match_the_per_extent_split(self, extents, stripe, servers):
        offsets = np.array([o for o, _ in extents])
        lengths = np.array([n for _, n in extents])
        matrix = extents_to_server_matrix(offsets, lengths, stripe, servers, 6)
        for row, (offset, length) in zip(matrix, extents):
            expected = extent_to_server_bytes(offset, length, stripe, servers, 6)
            assert row.tolist() == expected.tolist()
        # Splitting the extents into stripe-bounded groups changes nothing.
        with mock.patch.object(striping, "_STRIPE_CHUNK", 5):
            grouped = extents_to_server_matrix(offsets, lengths, stripe, servers, 6)
        assert grouped.tolist() == matrix.tolist()


class TestRequestExtents:
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["contiguous", "strided"]),
           bytes_per_process=st.sampled_from([1 * units.MiB, 1_000_000, 3.5 * units.MiB]),
           request=st.sampled_from([None, 256 * KIB, 300_000.0]),
           n_procs=st.integers(1, 6))
    def test_elementwise_form_matches_per_operation_form(
        self, kind, bytes_per_process, request, n_procs
    ):
        factory = PatternSpec.contiguous if kind == "contiguous" else PatternSpec.strided
        pattern = factory(bytes_per_process)
        if request is not None:
            pattern = pattern.with_request_size(request)
        for op in range(pattern.requests_per_process):
            offsets, lengths = pattern_extents(pattern, op, n_procs)
            ranks = np.arange(n_procs)[::-1]
            got_offsets, got_lengths = request_extents(
                pattern, ranks, np.full(n_procs, op), n_procs
            )
            assert got_offsets.tolist() == offsets[ranks].tolist()
            assert got_lengths.tolist() == lengths[ranks].tolist()


class TestVectorizedIssue:
    def test_batch_issue_equals_the_per_process_split(self):
        """Each process's extent split over the servers on its own, its
        touched servers' shares loaded onto its connections one by one."""
        scenario = build_scenario(["analytics"], "tiny").scenario
        state = ModelState(scenario, RandomStreams(0))
        app = state.applications[0]
        procs = state.app_proc_ids[0]
        ops = np.arange(procs.shape[0]) % app.n_operations
        send_remaining = state.send_remaining.copy()
        frag_size = state.frag_size.copy()
        expected, total = [], 0.0
        for proc, op in zip(procs.tolist(), ops.tolist()):
            offsets, lengths = app.operation_extents(op)
            rank = int(state.proc_rank[proc])
            per_server = extent_to_server_bytes(
                float(offsets[rank]), float(lengths[rank]),
                scenario.filesystem.stripe_size, app.servers, state.n_servers,
            )
            touched = np.flatnonzero(per_server > 0)
            conns = state.conn_matrix[proc, touched]
            send_remaining[conns] += per_server[touched]
            frag_size[conns] = per_server[touched]
            expected.append(float(per_server[touched].sum()))
            total += expected[-1]
        issued = state.issue_process_operations(app, procs, ops)
        assert issued.tolist() == expected
        assert state.send_remaining.tolist() == send_remaining.tolist()
        assert state.frag_size.tolist() == frag_size.tolist()
        assert state.app_runtime[0].issued_bytes == total
        assert state.proc_current_op[procs].tolist() == ops.tolist()

    def test_segment_sums_reduce_each_segment_alone(self):
        rng = np.random.default_rng(7)
        for counts in ([3, 3, 3], [9, 9], [1, 0, 12, 4], [0, 0]):
            counts = np.array(counts)
            values = rng.random(int(counts.sum())) * 1e6
            ends = np.cumsum(counts)
            expected = [values[e - c:e].sum() for c, e in zip(counts, ends)]
            assert _segment_sums(values, counts).tolist() == expected


class TestEngineUntilPriority:
    def test_runs_only_what_precedes_the_tier_at_until(self):
        sim = Simulator()
        fired = []
        for t, prio in ((0.5, EventPriority.OBSERVE), (1.0, EventPriority.CONTROL),
                        (1.0, EventPriority.OBSERVE), (1.5, EventPriority.CONTROL)):
            sim.schedule(t, lambda s, t=t, p=prio: fired.append((t, p)), priority=prio)
        assert sim.run(until=1.0, until_priority=EventPriority.NORMAL) == 1.0
        assert fired == [(0.5, EventPriority.OBSERVE), (1.0, EventPriority.CONTROL)]
        sim.run(until=2.0)
        assert fired[2:] == [(1.0, EventPriority.OBSERVE), (1.5, EventPriority.CONTROL)]


class TestBatchDriver:
    def test_engines_run_control_events_only(self):
        """Steps are not engine events, alone or batched: each engine
        processes exactly its control-plane events (starts and issues)."""
        scenarios = [make_scenario("tiny", seed=seed) for seed in (1, 2)]
        alone = []
        for scenario in scenarios:
            with telemetry_session("alone") as session:
                result = simulate_scenario(scenario)
                counters = session.snapshot()["counters"]
            assert counters["engine.events.processed"] < result.n_steps
            alone.append(counters["engine.events.processed"])
        batch = BatchSimulator(scenarios)
        batch.run()
        assert [m.engine.events_processed for m in batch.members] == alone

    def test_trace_sampling_members_match_alone(self):
        """Members whose engines fire every step (full trace sampling) still
        observe post-step state exactly as alone."""
        scenarios = [
            make_scenario("tiny", seed=seed, trace=TraceConfig.full(sample_period=0.02))
            for seed in (3, 4)
        ]
        batched = BatchSimulator(scenarios).run()
        for scenario, result in zip(scenarios, batched):
            alone = simulate_scenario(scenario)
            assert metric_fingerprint(result)[0] == metric_fingerprint(alone)[0]
            assert result.recorder.to_dict() == alone.recorder.to_dict()
