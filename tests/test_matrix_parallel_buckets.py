"""Bucket-granular parallel dispatch: the executor contract.

With ``jobs > 1`` the matrix submits each planned bucket as a single pool
work unit (kind ``matrix-bucket``), so N workers advance N batched kernels
concurrently.  The contract: the parallel batched route is byte-identical
to the serial batched route and to the scalar route, buckets are submitted
and reassembled in plan order, and the telemetry that crosses the process
boundary counts every member exactly once (bucket work units are spans of
their own category, never ``task`` spans).
"""

import json

import pytest

from repro.obs.summary import batch_stats, executor_stats
from repro.obs.telemetry import telemetry_session
from repro.scenarios.matrix import run_interference_matrix

#: Two cadence-distinct archetypes: 5 tasks in >1 buckets, so jobs=2
#: actually takes the bucket-dispatch path (it needs multiple buckets).
ARCHETYPES = ["checkpoint", "analytics"]


def _matrix_dict(**kwargs):
    matrix = run_interference_matrix(ARCHETYPES, "tiny", **kwargs)
    return json.dumps(matrix.to_dict(), sort_keys=True)


class TestBucketParallelContract:
    def test_jobs2_batched_byte_identical_to_serial_and_scalar(self):
        serial_batched = _matrix_dict(jobs=1, batch=True)
        serial_scalar = _matrix_dict(jobs=1, batch=False)
        parallel_batched = _matrix_dict(jobs=2, batch=True)
        assert parallel_batched == serial_batched
        assert parallel_batched == serial_scalar

    def test_jobs2_counts_every_member_exactly_once(self):
        with telemetry_session("bucket-parallel") as telemetry:
            run_interference_matrix(ARCHETYPES, "tiny", jobs=2, batch=True)
            document = telemetry.snapshot()
        ex = executor_stats(document)
        bt = batch_stats(document)
        # 2 alone + 3 pair tasks; every one executed once, none double
        # counted by the bucket work units that carried them.
        assert ex["executed"] == 5
        assert ex["n_tasks"] == 5
        assert bt["member_runs"] == 5
        bucket_spans = [
            s for s in document["spans"] if s["category"] == "bucket"
        ]
        assert bucket_spans, "jobs=2 must submit bucket work units to the pool"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_utilization_counts_each_bucket_once(self, jobs):
        """A bucket's wall is busy time once, not once per member: the
        members' ``task`` spans are zero-length markers under one
        ``bucket`` span per work unit, so utilization cannot exceed 1."""
        with telemetry_session("utilization") as telemetry:
            run_interference_matrix(ARCHETYPES, "tiny", jobs=jobs, batch=True)
            document = telemetry.snapshot()
        ex = executor_stats(document)
        assert ex["n_tasks"] == 5
        assert 0.0 < ex["utilization"] <= 1.0
        members = [s for s in document["spans"] if s["category"] == "task"]
        assert all(s["dur_us"] == 0.0 for s in members)
        buckets = [s for s in document["spans"] if s["category"] == "bucket"]
        assert ex["busy_s"] == pytest.approx(
            sum(s["dur_us"] for s in buckets) / 1e6
        )
