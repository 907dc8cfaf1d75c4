"""The operation table: each distinct (layout, operation) striped once.

Issues read their striping from a bucket-owned
:class:`~repro.model.state.OperationTable`.  These tests pin the table's
loads, fragment sizes and per-process totals to the striping oracle
(:func:`~repro.pfs.striping.extents_to_server_matrix` over the issued
extents, reduced with ``_segment_sums``) bit for bit, and count the striping
calls of a Δ-sweep bucket.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.presets import make_scenario
from repro.model import state as state_mod
from repro.model.batch import simulate_many
from repro.model.state import ModelState, OperationTable, _segment_sums, app_layouts
from repro.pfs.striping import extents_to_server_matrix
from repro.sim.rng import RandomStreams
from repro.workload.patterns import request_extents

KIB = units.KiB


def _oracle(state, app, procs, ops):
    """Loads and per-process totals of issuing ``ops[i]`` on ``procs[i]``,
    striped from scratch."""
    ranks = state.proc_rank[procs]
    offsets, lengths = request_extents(app.spec.pattern, ranks, ops, app.n_processes)
    per_server = extents_to_server_matrix(
        offsets, lengths, state.scenario.filesystem.stripe_size,
        app.servers, state.n_servers,
    )
    touched = per_server > 0
    rows, servers = np.nonzero(touched)
    values = per_server[rows, servers]
    loads = np.zeros(state.n_connections)
    loads[state.conn_matrix[procs[rows], servers]] = values
    return loads, _segment_sums(values, touched.sum(axis=1))


scenarios = st.builds(
    lambda kind, bpp, request, stripe, n_servers, partition: make_scenario(
        "tiny", pattern=kind, bytes_per_process=bpp, request_size=request,
        stripe_size=stripe, n_servers=n_servers, partition_servers=partition,
        procs_per_node=2, nodes_per_app=2,
    ),
    kind=st.sampled_from(["contiguous", "strided"]),
    # 1,000,000 bytes in 300,000-byte requests ends on a short request.
    bpp=st.sampled_from([1 * units.MiB, 1_000_000.0, 3.5 * units.MiB]),
    request=st.sampled_from([None, 256 * KIB, 300_000.0]),
    stripe=st.sampled_from([4 * KIB, 64 * KIB, 96 * KIB, 1000.0]),
    n_servers=st.sampled_from([2, 3, 5]),
    partition=st.booleans(),
)


class TestTableMatchesTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios, app_index=st.integers(0, 1), data=st.data())
    def test_collective_and_per_process_issues(self, scenario, app_index, data):
        table: OperationTable = {}
        probe = ModelState(scenario, RandomStreams(0))
        app, procs = probe.applications[app_index], probe.app_proc_ids[app_index]
        n_ops = app.n_operations
        # A collective issue: every rank, one operation.
        op = data.draw(st.integers(0, n_ops - 1), label="op")
        state = ModelState(scenario, RandomStreams(0))
        state.use_operations(table)
        issued = state.issue_operation(app, op)
        loads, totals = _oracle(state, app, procs, np.full(procs.size, op))
        assert state.send_remaining.tolist() == loads.tolist()
        assert state.frag_size.tolist() == loads.tolist()
        assert issued == float(np.cumsum(totals)[-1])
        # Per-process issues: any ranks, each its own operation, from the
        # same (partly filled) table.
        chosen = data.draw(
            st.lists(st.sampled_from(procs.tolist()), min_size=1, unique=True),
            label="procs",
        )
        chosen = np.array(chosen, dtype=np.int64)
        ops = np.array(
            data.draw(st.lists(st.integers(0, n_ops - 1),
                               min_size=chosen.size, max_size=chosen.size),
                      label="ops"),
            dtype=np.int64,
        )
        state = ModelState(scenario, RandomStreams(0))
        state.use_operations(table)
        per_proc = state.issue_process_operations(app, chosen, ops)
        loads, totals = _oracle(state, app, chosen, ops)
        assert per_proc.tolist() == totals.tolist()
        assert state.send_remaining.tolist() == loads.tolist()
        assert state.frag_size.tolist() == loads.tolist()
        assert state.proc_current_op[chosen].tolist() == ops.tolist()

    def test_states_share_their_bucket_table(self):
        scenario = make_scenario("tiny", request_size=2 * units.MiB)
        table: OperationTable = {}
        first = ModelState(scenario, RandomStreams(0))
        second = ModelState(scenario, RandomStreams(1))
        first.use_operations(table)
        second.use_operations(table)
        first.issue_operation(first.applications[0], 1)
        second.issue_operation(second.applications[1], 1)
        # A and B stripe alike: one layout, one operation striped.
        assert len(table) == 1
        assert list(table[app_layouts(scenario)[0]]) == [1]
        assert first.send_remaining[:first.n_connections // 2].tolist() == (
            second.send_remaining[second.n_connections // 2:].tolist())


class TestStripingCalls:
    def test_delta_sweep_stripes_each_operation_once(self):
        """A 9-point Δ-sweep runs as one bucket: every point's applications
        share one layout, so each of its operations is striped once."""
        points = [
            make_scenario("tiny", delay=d, request_size=2 * units.MiB)
            for d in np.linspace(-0.2, 0.2, 9).tolist()
        ]
        n_ops = points[0].applications[0].pattern.requests_per_process
        assert n_ops == 4
        calls = []

        def counting(offsets, *args):
            calls.append(offsets.size)
            return extents_to_server_matrix(offsets, *args)

        with mock.patch.object(state_mod, "extents_to_server_matrix", counting):
            results = simulate_many(points)
        assert len(calls) == n_ops
        assert all(r.n_steps > 0 for r in results)
