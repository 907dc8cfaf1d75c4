"""The campaign-throughput benchmark and its ``BENCH_campaign.json``.

Where :mod:`repro.perf.harness` measures the stepping kernel in isolation,
this harness measures what the paper's workflows actually pay: end-to-end
interference-matrix wall time across the jobs × batch grid, cold (every task
simulated) and warm (every task a cache hit), with the telemetry-derived
executor utilization, member-steps per kernel tick, and padding waste per
cell — plus the
batched-kernel throughput curve so the committed document gates campaign
throughput *and* kernel throughput against one baseline.

Cross-machine absolute wall times are meaningless (and on a single-CPU
container ``jobs > 1`` adds pool overhead without parallel speedup), so the
regression gate (:func:`check_campaign_regression`) compares only the
machine-comparable quantities: batched-kernel steps/s against the committed
baseline, byte-identity of every cell's matrix (``identical``), and
utilization at most 1 in every cell.
Wall times are recorded for trend-reading, not gated.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PerfError

__all__ = [
    "CAMPAIGN_SCHEMA_ID",
    "DEFAULT_CAMPAIGN_ARCHETYPES",
    "DEFAULT_JOBS_GRID",
    "PR6_BATCHED_BASELINE",
    "check_campaign_regression",
    "run_campaign_bench",
    "validate_campaign_document",
]

CAMPAIGN_SCHEMA_ID = "repro-io/bench-campaign/v1"

#: The 4-archetype tiny matrix every cell runs: 4 alone + 10 pair tasks.
DEFAULT_CAMPAIGN_ARCHETYPES: Tuple[str, ...] = (
    "checkpoint", "analytics", "smallfile", "incast",
)

DEFAULT_JOBS_GRID: Tuple[int, ...] = (1, 4)

#: Batch widths of the kernel-throughput curve carried by the campaign
#: document (a subset of the stepper harness's widths — the two that bound
#: the widths real matrix buckets reach).
DEFAULT_KERNEL_BATCHES: Tuple[int, ...] = (8, 32)

#: The batched lockstep kernel as committed by PR 6 (``BENCH_stepper.json``,
#: min of 5 on the repo's single-CPU dev container) — the fixed reference the
#: committed ``BENCH_campaign.json`` reports its kernel speedup against.
PR6_BATCHED_BASELINE: Dict[str, object] = {
    "label": "PR 6 batched lockstep kernel (committed BENCH_stepper.json)",
    "scenarios": {
        "batched/tiny-hdd-sync-on@b8": {"steps_per_sec": 15395.13},
        "batched/tiny-hdd-sync-on@b32": {"steps_per_sec": 20725.95},
    },
}


def _matrix_sha256(matrix) -> str:
    canonical = json.dumps(matrix.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_cell(
    archetypes: Sequence[str],
    scale: str,
    jobs: int,
    batch: bool,
    workdir: str,
) -> Dict[str, object]:
    """One grid cell: a cold run into a fresh cache, then a warm rerun."""
    from repro.obs.summary import batch_stats, cache_stats, executor_stats
    from repro.obs.telemetry import telemetry_session
    from repro.scenarios.matrix import run_interference_matrix

    cache_dir = tempfile.mkdtemp(prefix=f"jobs{jobs}-", dir=workdir)
    with telemetry_session(f"campaign-cold-j{jobs}") as telemetry:
        t0 = time.perf_counter()
        matrix = run_interference_matrix(
            list(archetypes), scale, jobs=jobs, batch=batch, cache_dir=cache_dir,
        )
        cold_wall = time.perf_counter() - t0
        cold = telemetry.snapshot()
    with telemetry_session(f"campaign-warm-j{jobs}") as telemetry:
        t0 = time.perf_counter()
        warm_matrix = run_interference_matrix(
            list(archetypes), scale, jobs=jobs, batch=batch, cache_dir=cache_dir,
        )
        warm_wall = time.perf_counter() - t0
        warm = telemetry.snapshot()
    if _matrix_sha256(matrix) != _matrix_sha256(warm_matrix):
        raise PerfError(
            f"warm rerun of jobs={jobs} batch={batch} produced a different matrix"
        )
    ex = executor_stats(cold)
    bt = batch_stats(cold)
    return {
        "jobs": int(jobs),
        "batch": bool(batch),
        "cold_wall_s": float(cold_wall),
        "warm_wall_s": float(warm_wall),
        "warm_hit_rate": float(cache_stats(warm)["hit_rate"]),
        "utilization": float(ex["utilization"]),
        "member_steps_per_tick": float(bt["member_steps_per_tick"]),
        "buckets": float(bt["buckets"]),
        "member_runs": float(bt["member_runs"]),
        "padded_slots": float(bt["padded_slots"]),
        "padded_waste": float(bt["padded_waste"]),
        "matrix_sha256": _matrix_sha256(matrix),
    }


def run_campaign_bench(
    archetypes: Sequence[str] = DEFAULT_CAMPAIGN_ARCHETYPES,
    scale: str = "tiny",
    repeats: int = 5,
    jobs_grid: Sequence[int] = DEFAULT_JOBS_GRID,
    kernel_batches: Sequence[int] = DEFAULT_KERNEL_BATCHES,
    reference: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Measure the campaign grid; return the ``BENCH_campaign.json`` document.

    Every (jobs × batch) cell runs the same matrix cold into a fresh cache
    and warm out of it, inside its own telemetry session.  The document
    records per-cell wall times and routing stats, whether all cells
    produced byte-identical matrices (``identical``), and the batched-kernel
    throughput curve (min-of-``repeats``, via the stepper harness) with its
    speedup against ``reference`` (default: the PR 6 committed baseline).
    """
    from repro.perf.harness import _measure_batched

    if repeats < 1:
        raise PerfError("repeats must be >= 1")
    if any(j < 1 for j in jobs_grid):
        raise PerfError(f"jobs grid entries must be >= 1, got {list(jobs_grid)}")
    if reference is None:
        reference = PR6_BATCHED_BASELINE

    cells: Dict[str, Dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as workdir:
        for jobs in jobs_grid:
            for batch in (True, False):
                key = f"jobs{jobs}-" + ("batched" if batch else "scalar")
                cells[key] = _run_cell(archetypes, scale, jobs, batch, workdir)

    digests = {cell["matrix_sha256"] for cell in cells.values()}
    kernel: Dict[str, Dict[str, object]] = {}
    for batch_size in kernel_batches:
        if batch_size < 1:
            raise PerfError(f"kernel batch sizes must be >= 1, got {batch_size}")
        key = f"batched/tiny-hdd-sync-on@b{int(batch_size)}"
        kernel[key] = _measure_batched(int(batch_size), repeats)

    speedup: Dict[str, float] = {}
    ref_scenarios = reference.get("scenarios", {}) if reference else {}
    for key, entry in kernel.items():
        ref = ref_scenarios.get(key)
        if ref:
            speedup[key] = float(entry["steps_per_sec"]) / float(ref["steps_per_sec"])

    n = len(archetypes)
    return {
        "schema": CAMPAIGN_SCHEMA_ID,
        "python": platform.python_version(),
        "scale": str(scale),
        "archetypes": list(archetypes),
        "n_tasks": n + n * (n + 1) // 2,
        "repeats": int(repeats),
        "jobs_grid": [int(j) for j in jobs_grid],
        "cells": cells,
        "identical": len(digests) == 1,
        "batched_kernel": kernel,
        "reference": reference,
        "speedup": speedup,
        "caveat": (
            "wall times are machine-local; on a single-CPU container "
            "jobs>1 pays pool overhead without parallel speedup — "
            "correctness is pinned by the matrix_sha256 identity gate"
        ),
    }


def validate_campaign_document(document: object) -> Dict:
    """Structural validation of a ``BENCH_campaign.json`` document."""

    def _require(condition: bool, path: str, message: str) -> None:
        if not condition:
            raise PerfError(f"invalid campaign document at {path}: {message}")

    _require(isinstance(document, dict), "$", "document must be a JSON object")
    assert isinstance(document, dict)
    _require(document.get("schema") == CAMPAIGN_SCHEMA_ID, "$.schema",
             f"must be {CAMPAIGN_SCHEMA_ID!r}, got {document.get('schema')!r}")
    _require(isinstance(document.get("python"), str), "$.python",
             "must be a string")
    archetypes = document.get("archetypes")
    _require(isinstance(archetypes, list) and len(archetypes) >= 2,
             "$.archetypes", "must be a list of at least two names")
    _require(isinstance(document.get("identical"), bool), "$.identical",
             "must be a boolean")
    cells = document.get("cells")
    _require(isinstance(cells, dict) and len(cells) > 0, "$.cells",
             "must be a non-empty object")
    assert isinstance(cells, dict)
    for key, cell in cells.items():
        path = f"$.cells[{key!r}]"
        _require(isinstance(cell, dict), path, "must be an object")
        assert isinstance(cell, dict)
        jobs = cell.get("jobs")
        _require(isinstance(jobs, int) and jobs >= 1, f"{path}.jobs",
                 "must be an integer >= 1")
        _require(isinstance(cell.get("batch"), bool), f"{path}.batch",
                 "must be a boolean")
        for field in ("cold_wall_s", "warm_wall_s", "warm_hit_rate",
                      "utilization", "member_steps_per_tick", "buckets",
                      "member_runs", "padded_slots", "padded_waste"):
            value = cell.get(field)
            _require(isinstance(value, (int, float)) and value >= 0,
                     f"{path}.{field}", "must be a non-negative number")
        sha = cell.get("matrix_sha256")
        _require(isinstance(sha, str) and len(sha) == 64,
                 f"{path}.matrix_sha256", "must be a sha256 hex digest")
    kernel = document.get("batched_kernel")
    _require(isinstance(kernel, dict) and len(kernel) > 0, "$.batched_kernel",
             "must be a non-empty object")
    assert isinstance(kernel, dict)
    for key, entry in kernel.items():
        path = f"$.batched_kernel[{key!r}]"
        _require(isinstance(entry, dict), path, "must be an object")
        assert isinstance(entry, dict)
        sps = entry.get("steps_per_sec")
        _require(isinstance(sps, (int, float)) and sps > 0,
                 f"{path}.steps_per_sec", "must be a positive number")
        batch = entry.get("batch")
        _require(isinstance(batch, int) and batch >= 1, f"{path}.batch",
                 "must be an integer >= 1")
    return document


def check_campaign_regression(
    current: Dict,
    baseline: Dict,
    min_ratio: float = 0.7,
) -> List[str]:
    """Failure messages for the campaign gate (empty = gate green).

    Three checks: the fresh document's cells must be byte-identical
    (``identical``), no cell may report a utilization above 1 (busy time
    counts each work unit once, so more would be an accounting bug), and
    every batched-kernel throughput present in both documents must stay at
    or above ``min_ratio`` of the committed baseline.  Wall times are
    deliberately not gated (machine-local noise).
    """
    if not 0.0 < min_ratio <= 1.0:
        raise PerfError(f"min_ratio must be in (0, 1], got {min_ratio}")
    validate_campaign_document(current)
    validate_campaign_document(baseline)
    failures: List[str] = []
    if not current.get("identical"):
        failures.append(
            "cells disagree: the jobs x batch grid did not produce "
            "byte-identical matrices"
        )
    for key, cell in current["cells"].items():
        if float(cell["utilization"]) > 1.0:
            failures.append(
                f"{key}: utilization {cell['utilization']:.2f} is above 1 "
                "(worker busy time was counted more than once)"
            )
    base_kernel = baseline["batched_kernel"]
    for key, entry in current["batched_kernel"].items():
        base = base_kernel.get(key)
        if base is None:
            continue
        measured = float(entry["steps_per_sec"])
        reference = float(base["steps_per_sec"])
        if measured < min_ratio * reference:
            failures.append(
                f"{key}: {measured:.0f} steps/s is below {min_ratio:.0%} of "
                f"the baseline {reference:.0f} steps/s "
                f"(ratio {measured / reference:.2f})"
            )
    return failures


def format_campaign_summary(document: Dict) -> str:
    """Human-readable one-screen summary of a campaign document."""
    lines = [
        f"campaign bench: {'+'.join(document['archetypes'])} "
        f"@ {document['scale']} ({document['n_tasks']} tasks, "
        f"python {document['python']})",
        f"  identical across grid: {document['identical']}",
    ]
    for key in sorted(document["cells"]):
        cell = document["cells"][key]
        lines.append(
            f"  {key:14s} cold {cell['cold_wall_s']:7.2f}s  "
            f"warm {cell['warm_wall_s']:6.2f}s  "
            f"{cell['member_steps_per_tick']:5.2f} steps/tick  "
            f"util {cell['utilization']:6.1%}"
        )
    speedup = document.get("speedup", {})
    for key in sorted(document["batched_kernel"]):
        entry = document["batched_kernel"][key]
        note = f"  ({speedup[key]:.2f}x vs PR 6)" if key in speedup else ""
        lines.append(
            f"  {key}: {entry['steps_per_sec']:.0f} member-steps/s{note}"
        )
    return "\n".join(lines)
