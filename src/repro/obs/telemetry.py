"""The telemetry registry: counters, gauges, histograms, and spans.

One :class:`Telemetry` instance collects everything a run produces:

* **counters** — monotonically accumulated numbers (``cache.hit``,
  ``engine.events.scheduled``);
* **gauges** — last-write-wins values (``executor.jobs``);
* **histograms** — ``count/sum/min/max`` aggregates of repeated observations
  (``step.phase.drain.ns`` across the simulations of a campaign);
* **spans** — hierarchical timed intervals (campaign → task → simulation →
  step-phase) that render as a Perfetto/chrome://tracing timeline through
  :mod:`repro.obs.export`;
* **events** — an append-only log of point-in-time marks, persisted as one
  JSON object per line (``telemetry_events.jsonl``).

Zero overhead when disabled
---------------------------
The module-level *current telemetry* defaults to :data:`NULL`, a no-op
singleton whose ``enabled`` attribute is ``False`` and whose every method
does nothing.  Instrumentation points therefore cost one
``get_telemetry().enabled`` check on the disabled path — and the simulation
hot paths (the stepping kernel, the control plane, the event heap) carry
**no** telemetry calls at all: they maintain plain integer counters that
are *published* into the registry once, after the run (see
:meth:`repro.model.simulator.IOPathSimulator.control_stats`,
:meth:`repro.sim.engine.Simulator.stats` and
:class:`repro.perf.counters.StepProfiler`).  Telemetry must never perturb
simulation state: it touches no RNG stream and no model array, so results
are byte-identical with telemetry on and off (pinned by the golden tests).

Naming convention
-----------------
Dotted ``subsystem.noun[.verb]`` lower-case names: ``engine.events.scheduled``,
``cache.hit``, ``cache.bytes_written``, ``executor.tasks.completed``,
``sim.steps``, ``step.phase.<phase>.ns``.  Span categories are one of
``campaign``, ``task``, ``bucket``, ``simulation``, ``phase`` (``bucket``
spans are the pool work units of batched parallel dispatch; they carry
member ``task`` spans without being tasks themselves).

Worker processes
----------------
A worker process collects into its own local :class:`Telemetry` and ships a
:meth:`snapshot` back with its result; the parent folds it in with
:meth:`merge_snapshot`, re-anchoring the worker's span times onto the parent
timeline via the wall-clock epoch both sides record (same host, same clock).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "TELEMETRY_SCHEMA_ID",
    "Telemetry",
    "NULL",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
]

TELEMETRY_SCHEMA_ID = "repro-io/telemetry/v1"

#: Span categories, outermost first (the canonical hierarchy).  ``bucket``
#: sits beside ``task``: it is the pool work unit that carries a batch of
#: member tasks under parallel dispatch, and is excluded from task counts.
SPAN_CATEGORIES = ("campaign", "task", "bucket", "simulation", "phase")


class Telemetry:
    """A live telemetry registry (``enabled`` is always ``True``).

    Parameters
    ----------
    label:
        Human-readable name of the run this registry covers (e.g.
        ``"matrix"``); recorded in the exported document.
    """

    enabled = True

    def __init__(self, label: str = "") -> None:
        self.label = str(label)
        #: Wall-clock anchor: ``epoch + t_us/1e6`` is the absolute instant of
        #: any relative microsecond timestamp in this registry.
        self.epoch = time.time()
        self._t0_ns = time.perf_counter_ns()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}
        self._spans: List[Dict[str, Any]] = []
        self._events: List[Dict[str, Any]] = []
        self._next_span_id = 1
        self._span_stack: List[int] = []

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #

    def now_us(self) -> float:
        """Microseconds since this registry was created (monotonic)."""
        return (time.perf_counter_ns() - self._t0_ns) / 1000.0

    # ------------------------------------------------------------------ #
    # Counters / gauges / histograms
    # ------------------------------------------------------------------ #

    def count(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one observation into histogram ``name``."""
        value = float(value)
        hist = self._histograms.get(name)
        if hist is None:
            self._histograms[name] = {
                "count": 1, "sum": value, "min": value, "max": value,
            }
            return
        hist["count"] += 1
        hist["sum"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (zero when never written)."""
        return self._counters.get(name, 0)

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open context-manager span, or ``None``."""
        return self._span_stack[-1] if self._span_stack else None

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "task",
        track: str = "main",
        **args: Any,
    ) -> Iterator[int]:
        """Open a span covering the ``with`` body; yields the span id.

        Nested ``span()`` blocks parent automatically; spans created with
        :meth:`add_span` while the block is open can parent onto
        :meth:`current_span_id`.
        """
        record = {
            "id": self._next_span_id,
            "parent": self.current_span_id(),
            "name": str(name),
            "category": str(category),
            "track": str(track),
            "start_us": self.now_us(),
            "dur_us": 0.0,
            "args": dict(args),
        }
        self._next_span_id += 1
        self._spans.append(record)
        self._span_stack.append(record["id"])
        try:
            yield record["id"]
        finally:
            self._span_stack.pop()
            record["dur_us"] = self.now_us() - record["start_us"]

    def add_span(
        self,
        name: str,
        category: str,
        start_us: float,
        dur_us: float,
        *,
        parent: Optional[int] = None,
        track: str = "main",
        args: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Record an already-measured span; returns its id.

        ``start_us`` is relative to this registry's creation (see
        :meth:`now_us`); ``parent`` defaults to the innermost open
        context-manager span.
        """
        record = {
            "id": self._next_span_id,
            "parent": self.current_span_id() if parent is None else int(parent),
            "name": str(name),
            "category": str(category),
            "track": str(track),
            "start_us": float(start_us),
            "dur_us": max(float(dur_us), 0.0),
            "args": dict(args) if args else {},
        }
        self._next_span_id += 1
        self._spans.append(record)
        return record["id"]

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #

    def event(self, name: str, **fields: Any) -> None:
        """Append one point-in-time mark to the event log."""
        record: Dict[str, Any] = {"ts_us": self.now_us(), "event": str(name)}
        record.update(fields)
        self._events.append(record)

    # ------------------------------------------------------------------ #
    # Worker transport
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot for shipping across a process boundary.

        Carries the scalar aggregates plus the spans (with this registry's
        epoch so the receiver can re-anchor them); the event log stays local.
        """
        return {
            "epoch": self.epoch,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: dict(v) for k, v in self._histograms.items()},
            "spans": [dict(s) for s in self._spans],
        }

    def merge_snapshot(
        self,
        snap: Mapping[str, Any],
        *,
        parent: Optional[int] = None,
        track: Optional[str] = None,
    ) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters add, gauges last-write-win, histograms merge, and spans are
        re-anchored onto this registry's timeline through the wall-clock
        epoch both registries recorded (both processes share the host
        clock).  Root spans of the snapshot attach under ``parent``; every
        merged span lands on ``track`` when given.
        """
        for name, value in snap.get("counters", {}).items():
            self.count(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name, value)
        for name, hist in snap.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = dict(hist)
                continue
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            mine["min"] = min(mine["min"], hist["min"])
            mine["max"] = max(mine["max"], hist["max"])
        offset_us = (float(snap.get("epoch", self.epoch)) - self.epoch) * 1e6
        id_map: Dict[int, int] = {}
        for span in snap.get("spans", []):
            old_parent = span.get("parent")
            new_parent = id_map.get(old_parent, parent)
            id_map[span["id"]] = self.add_span(
                span["name"],
                span["category"],
                span["start_us"] + offset_us,
                span["dur_us"],
                parent=new_parent,
                track=track if track is not None else span.get("track", "main"),
                args=span.get("args"),
            )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_document(
        self,
        run_id: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The ``telemetry.json`` document (validates against the schema)."""
        duration = max(
            [self.now_us()] + [s["start_us"] + s["dur_us"] for s in self._spans]
        )
        document: Dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA_ID,
            "label": self.label,
            "run_id": run_id,
            "created": float(self.epoch),
            "duration_us": float(duration),
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: dict(self._histograms[k]) for k in sorted(self._histograms)
            },
            "spans": [dict(s) for s in self._spans],
            "n_events": len(self._events),
        }
        if meta:
            document["meta"] = dict(meta)
        return document

    def events_jsonl(self) -> str:
        """The event log as JSON Lines (one object per line, trailing NL)."""
        if not self._events:
            return ""
        return "\n".join(
            json.dumps(e, sort_keys=True, separators=(",", ":"))
            for e in self._events
        ) + "\n"


class _NullContext:
    """Reusable no-op context manager (allocation-free on reuse)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


class _NullTelemetry:
    """The disabled singleton: every operation is a no-op.

    ``enabled`` is ``False`` so instrumentation points can guard heavier
    collection (building args dicts, snapshotting) behind one check.
    """

    enabled = False
    label = ""
    _CTX = _NullContext()

    def now_us(self) -> float:
        return 0.0

    def count(self, name: str, delta: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0

    def current_span_id(self) -> Optional[int]:
        return None

    def span(self, name: str, category: str = "task", track: str = "main",
             **args: Any) -> _NullContext:
        return self._CTX

    def add_span(self, *a: Any, **kw: Any) -> int:
        return 0

    def event(self, name: str, **fields: Any) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def merge_snapshot(self, snap: Mapping[str, Any], **kw: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTelemetry>"


#: The process-wide disabled singleton.
NULL = _NullTelemetry()

_current = NULL


def get_telemetry():
    """The current telemetry registry (:data:`NULL` unless a session is open)."""
    return _current


def set_telemetry(telemetry) -> None:
    """Install ``telemetry`` as the current registry (``None`` -> :data:`NULL`)."""
    global _current
    _current = NULL if telemetry is None else telemetry


@contextmanager
def telemetry_session(label: str = "") -> Iterator[Telemetry]:
    """Open a fresh :class:`Telemetry` as the current registry.

    Restores the previous registry on exit, so sessions nest safely (the
    inner session simply shadows the outer one for its duration).
    """
    previous = get_telemetry()
    session = Telemetry(label=label)
    set_telemetry(session)
    try:
        yield session
    finally:
        set_telemetry(previous)
