"""Human-readable reports over persisted telemetry documents.

:func:`load_run_telemetry` reads the ``telemetry.json`` a run directory
persisted (and that its manifest references); :func:`summarize_document`
renders the utilization / cache-efficiency report behind
``repro-io obs summary``; :func:`diff_documents` compares two run
directories' documents side by side (``repro-io obs diff``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import TelemetryError
from repro.obs.schema import validate_telemetry_document

__all__ = [
    "TELEMETRY_DOCUMENT_NAME",
    "TELEMETRY_EVENTS_NAME",
    "batch_stats",
    "lake_stats",
    "resilience_stats",
    "load_run_telemetry",
    "summarize_document",
    "diff_documents",
]

TELEMETRY_DOCUMENT_NAME = "telemetry.json"
TELEMETRY_EVENTS_NAME = "telemetry_events.jsonl"


def load_run_telemetry(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate the telemetry document of one run directory."""
    path = Path(run_dir) / TELEMETRY_DOCUMENT_NAME
    if not path.is_file():
        raise TelemetryError(
            f"no {TELEMETRY_DOCUMENT_NAME} in {Path(run_dir)}; was the run "
            "produced with telemetry enabled (e.g. repro-io matrix "
            "--telemetry)?"
        )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except ValueError as exc:
        raise TelemetryError(f"unreadable {path}: {exc}") from None
    return validate_telemetry_document(document)


# --------------------------------------------------------------------------- #
# Derived metrics
# --------------------------------------------------------------------------- #


def _campaign_wall_us(document: Dict[str, Any]) -> float:
    """Wall time covered by the campaign span (fallback: whole document)."""
    for span in document.get("spans", []):
        if span["category"] == "campaign":
            return float(span["dur_us"])
    return float(document.get("duration_us", 0.0))


def _spans(document: Dict[str, Any], *categories: str) -> List[Dict[str, Any]]:
    return [s for s in document.get("spans", []) if s["category"] in categories]


def executor_stats(document: Dict[str, Any]) -> Dict[str, float]:
    """Worker-utilization figures derived from executor spans and counters.

    Busy time is counted once per executor work unit: the ``task`` spans of
    units that are one task each (a matrix run alone, the campaign's
    ``table1``) plus the ``bucket`` spans of batched work units.  Bucket
    members keep zero-length ``task`` spans, so ``n_tasks`` still counts
    every member while only its bucket claims wall time.  A span that
    encloses units (a joint campaign run whose rounds map bucket units) is
    not counted itself: its units claim its busy time.
    """
    counters = document.get("counters", {})
    tasks = _spans(document, "task")
    units = _spans(document, "task", "bucket")
    enclosing = {s["parent"] for s in units}
    busy_us = sum(s["dur_us"] for s in units if s["id"] not in enclosing)
    wall_us = _campaign_wall_us(document)
    jobs = float(document.get("gauges", {}).get("executor.jobs", 1.0))
    utilization = (
        busy_us / (wall_us * jobs) if wall_us > 0 and jobs > 0 else 0.0
    )
    queue_waits = [
        float(s["args"]["queue_wait_s"])
        for s in units
        if "queue_wait_s" in s.get("args", {})
    ]
    return {
        "n_tasks": float(len(tasks)),
        "executed": float(counters.get("executor.tasks.completed", 0)),
        "cached": float(counters.get("executor.tasks.cached", 0)),
        "jobs": jobs,
        "busy_s": busy_us / 1e6,
        "wall_s": wall_us / 1e6,
        "utilization": utilization,
        "max_queue_wait_s": max(queue_waits) if queue_waits else 0.0,
    }


def phase_timing(document: Dict[str, Any]) -> List[Tuple[str, float, float]]:
    """Per-step-phase timing: ``(phase, total_ms, calls)`` sorted by cost."""
    counters = document.get("counters", {})
    rows = []
    for name, value in counters.items():
        if name.startswith("step.phase.") and name.endswith(".ns"):
            phase = name[len("step.phase."):-len(".ns")]
            calls = float(counters.get(f"step.phase.{phase}.calls", 0))
            rows.append((phase, float(value) / 1e6, calls))
    rows.sort(key=lambda r: -r[1])
    return rows


def batch_stats(document: Dict[str, Any]) -> Dict[str, float]:
    """Batched-kernel figures: how full the kernel was.

    ``member_steps_per_tick`` is the mean number of simulations one kernel
    tick advanced (``batch.member_steps`` over ``batch.ticks``): 1.0 when
    every run stepped alone, the bucket width when every bucket stayed full
    to its end.  ``dead_lane_frac`` is the share of lane steps (width times
    ticks, ``batch.lane_steps``) spent on members that had already finished:
    ``1 - member_steps / lane_steps``.  ``occupancy`` figures describe the
    buckets' member steps per tick (from the ``batch.occupancy`` histogram,
    one observation per bucket): a refilled bucket holds many more runs
    than it steps at once.  ``requests``
    counts the runs :func:`~repro.model.batch.simulate_many` was asked for,
    ``repeats`` those served by an equal request's result.
    """
    counters = document.get("counters", {})
    histogram = document.get("histograms", {}).get("batch.occupancy", {})
    padded = float(counters.get("batch.padded_slots", 0))
    slots = float(counters.get("batch.group_slots", 0))
    ticks = float(counters.get("batch.ticks", 0))
    member_steps = float(counters.get("batch.member_steps", 0))
    lane_steps = float(counters.get("batch.lane_steps", 0))
    return {
        "buckets": float(counters.get("batch.buckets", 0)),
        "member_runs": float(counters.get("batch.member_runs", 0)),
        "requests": float(counters.get("batch.requests", 0)),
        "repeats": float(counters.get("batch.repeats", 0)),
        "padded_slots": padded,
        "group_slots": slots,
        "padded_waste": padded / slots if slots > 0 else 0.0,
        "ticks": ticks,
        "member_steps_per_tick": member_steps / ticks if ticks > 0 else 0.0,
        "dead_lane_frac": 1.0 - member_steps / lane_steps if lane_steps > 0 else 0.0,
        "mean_occupancy": (
            float(histogram.get("sum", 0)) / float(histogram["count"])
            if histogram.get("count") else 0.0
        ),
        "max_occupancy": float(histogram.get("max", 0.0)),
    }


def cache_stats(document: Dict[str, Any]) -> Dict[str, float]:
    """Cache probe/hit/miss/store counters plus the derived hit rate."""
    counters = document.get("counters", {})
    probes = float(counters.get("cache.probe", 0))
    hits = float(counters.get("cache.hit", 0))
    return {
        "probes": probes,
        "hits": hits,
        "misses": float(counters.get("cache.miss", 0)),
        "stores": float(counters.get("cache.store", 0)),
        "bytes_written": float(counters.get("cache.bytes_written", 0)),
        "hit_rate": hits / probes if probes > 0 else 0.0,
    }


def lake_stats(document: Dict[str, Any]) -> Dict[str, float]:
    """Result-lake query/reconciliation counters (zero when no lake ran)."""
    counters = document.get("counters", {})
    return {
        "queries": float(counters.get("lake.query", 0)),
        "entries": float(counters.get("lake.entries", 0)),
        "ghosts": float(counters.get("lake.reconcile.ghosts", 0)),
        "backfilled": float(counters.get("lake.reconcile.backfilled", 0)),
        "duplicates": float(counters.get("lake.reconcile.duplicates", 0)),
        "corrupt_lines": float(counters.get("lake.reconcile.corrupt_lines", 0)),
        "compact_entries": float(counters.get("lake.compact.entries", 0)),
        "compact_dropped": float(counters.get("lake.compact.dropped", 0)),
    }


def resilience_stats(document: Dict[str, Any]) -> Dict[str, float]:
    """Fault-tolerance counters from a supervised campaign.

    All zero on a fault-free run — the section only renders when something
    actually exercised a recovery path.
    """
    counters = document.get("counters", {})
    return {
        "retries": float(counters.get("executor.retries", 0)),
        "timeouts": float(counters.get("executor.timeouts", 0)),
        "quarantined": float(counters.get("executor.quarantined", 0)),
        "pool_rebuilds": float(counters.get("executor.pool_rebuilds", 0)),
        "demotions": float(counters.get("batch.demotions", 0)),
    }


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #


def summarize_document(
    document: Dict[str, Any], run_dir: Optional[str] = None
) -> str:
    """The ``repro-io obs summary`` report for one telemetry document."""
    lines: List[str] = []
    label = document.get("label") or "run"
    header = f"telemetry summary: {label}"
    if run_dir:
        header += f" ({run_dir})"
    lines.append(header)
    lines.append(f"  duration: {float(document['duration_us']) / 1e6:.3f}s "
                 f"spans={len(document.get('spans', []))} "
                 f"events={document.get('n_events', 0)}")

    ex = executor_stats(document)
    lines.append("executor")
    lines.append(
        f"  tasks: {ex['n_tasks']:.0f} spans "
        f"({ex['executed']:.0f} executed, {ex['cached']:.0f} cached) "
        f"jobs={ex['jobs']:.0f}"
    )
    lines.append(
        f"  worker busy {ex['busy_s']:.3f}s over {ex['wall_s']:.3f}s wall "
        f"-> utilization {ex['utilization']:.1%} "
        f"(max queue wait {ex['max_queue_wait_s']:.3f}s)"
    )

    batch = batch_stats(document)
    lines.append("batching")
    if batch["buckets"] > 0:
        lines.append(
            f"  {batch['member_runs']:.0f} simulations in "
            f"{batch['buckets']:.0f} lockstep buckets"
        )
        if batch["requests"] > 0:
            lines.append(
                f"  {batch['requests']:.0f} requests, {batch['repeats']:.0f} "
                "repeats served by an equal request's result"
            )
        lines.append(
            f"  kernel {batch['ticks']:.0f} ticks, "
            f"{batch['member_steps_per_tick']:.2f} member-steps per tick, "
            f"{batch['dead_lane_frac']:.1%} dead lanes"
        )
        lines.append(
            f"  occupancy mean {batch['mean_occupancy']:.1f} "
            f"max {batch['max_occupancy']:.0f} runs/tick per bucket"
        )
        lines.append(
            f"  padding {batch['padded_slots']:.0f}/{batch['group_slots']:.0f} "
            f"admission slots masked ({batch['padded_waste']:.1%} waste)"
        )
    else:
        lines.append("  no batched simulation recorded")

    cache = cache_stats(document)
    lines.append("cache")
    if cache["probes"] > 0:
        lines.append(
            f"  {cache['hits']:.0f}/{cache['probes']:.0f} hits "
            f"({cache['hit_rate']:.1%}), {cache['misses']:.0f} misses, "
            f"{cache['stores']:.0f} stores, "
            f"{cache['bytes_written']:.0f} bytes written"
        )
    else:
        lines.append("  no cache activity recorded")

    phases = phase_timing(document)
    lines.append("step phases")
    if phases:
        total_ms = sum(ms for _, ms, _ in phases)
        for phase, ms, calls in phases:
            share = ms / total_ms if total_ms > 0 else 0.0
            per_call = (ms * 1e6 / calls) if calls > 0 else 0.0
            lines.append(
                f"  {phase:16s} {ms:10.2f} ms  {share:6.1%}  "
                f"{calls:10.0f} calls  {per_call:8.0f} ns/call"
            )
    else:
        lines.append("  no step-phase timing recorded")

    resilience = resilience_stats(document)
    if any(resilience.values()):
        lines.append("resilience")
        lines.append(
            f"  {resilience['retries']:.0f} retries, "
            f"{resilience['timeouts']:.0f} timeouts, "
            f"{resilience['quarantined']:.0f} quarantined, "
            f"{resilience['pool_rebuilds']:.0f} pool rebuilds"
        )
        if resilience["demotions"]:
            lines.append(
                f"  {resilience['demotions']:.0f} bucket members demoted "
                "to width-1 buckets"
            )

    lake = lake_stats(document)
    if any(lake.values()):
        lines.append("lake")
        lines.append(
            f"  {lake['queries']:.0f} queries over {lake['entries']:.0f} "
            f"entries; reconciliation dropped {lake['ghosts']:.0f} ghosts, "
            f"backfilled {lake['backfilled']:.0f}, shadowed "
            f"{lake['duplicates']:.0f} duplicates"
        )
        if lake["corrupt_lines"]:
            lines.append(
                f"  skipped {lake['corrupt_lines']:.0f} corrupt index "
                "lines (compact heals them)"
            )
        if lake["compact_entries"] or lake["compact_dropped"]:
            lines.append(
                f"  compaction kept {lake['compact_entries']:.0f} lines, "
                f"dropped {lake['compact_dropped']:.0f}"
            )

    counters = document.get("counters", {})
    # Model runs count their control actions; the local write model (table
    # 1) runs on the event engine.
    for title, prefix in (("control plane", "control."), ("engine", "engine.")):
        section = {k: v for k, v in sorted(counters.items()) if k.startswith(prefix)}
        if section:
            lines.append(title)
            for name, value in section.items():
                lines.append(f"  {name:32s} {value:.0f}")
    return "\n".join(lines)


def diff_documents(
    doc_a: Dict[str, Any],
    doc_b: Dict[str, Any],
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """The ``repro-io obs diff`` report comparing two telemetry documents."""
    lines = [f"telemetry diff: {label_a} vs {label_b}"]

    ex_a, ex_b = executor_stats(doc_a), executor_stats(doc_b)
    lines.append(
        f"  wall        {ex_a['wall_s']:12.3f}s {ex_b['wall_s']:12.3f}s"
    )
    lines.append(
        f"  utilization {ex_a['utilization']:12.1%} {ex_b['utilization']:12.1%}"
    )
    cache_a, cache_b = cache_stats(doc_a), cache_stats(doc_b)
    lines.append(
        f"  cache hits  {cache_a['hits']:12.0f} {cache_b['hits']:12.0f}"
    )
    lines.append(
        f"  hit rate    {cache_a['hit_rate']:12.1%} {cache_b['hit_rate']:12.1%}"
    )

    counters_a = doc_a.get("counters", {})
    counters_b = doc_b.get("counters", {})
    changed = []
    for name in sorted(set(counters_a) | set(counters_b)):
        a = float(counters_a.get(name, 0))
        b = float(counters_b.get(name, 0))
        if a != b:
            changed.append((name, a, b))
    lines.append(f"counters ({len(changed)} differ)")
    for name, a, b in changed:
        delta = b - a
        lines.append(f"  {name:32s} {a:14.0f} {b:14.0f}  ({delta:+.0f})")
    if not changed:
        lines.append("  all counters equal")
    return "\n".join(lines)
