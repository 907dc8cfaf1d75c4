"""Unified telemetry: counters, spans, structured logs, and trace export.

The package is built around one invariant: **zero overhead when disabled**.
:func:`get_telemetry` returns a no-op singleton until a CLI entry point (or a
test) installs a live :class:`Telemetry` via :func:`telemetry_session`, so
instrumented call sites cost one attribute check in the common case and the
simulation hot paths carry no telemetry calls at all (the control plane and
the engine publish plain counters post-run).

Layout:

- :mod:`repro.obs.telemetry` — the registry (counters/gauges/histograms),
  hierarchical spans, worker snapshot/merge, and the document builder.
- :mod:`repro.obs.schema` — plain-Python validators for ``telemetry.json``
  and the events JSONL.
- :mod:`repro.obs.export` — Chrome ``trace_event`` (Perfetto) exporter and
  its structural validator.
- :mod:`repro.obs.summary` — the ``repro-io obs summary``/``diff`` reports.
- :mod:`repro.obs.log` — structured ``level=... event=...`` stderr logging.
"""

from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.log import StructLogger, configure_logging, get_logger
from repro.obs.schema import validate_events_jsonl, validate_telemetry_document
from repro.obs.summary import (
    TELEMETRY_DOCUMENT_NAME,
    TELEMETRY_EVENTS_NAME,
    diff_documents,
    load_run_telemetry,
    summarize_document,
)
from repro.obs.telemetry import (
    NULL,
    SPAN_CATEGORIES,
    TELEMETRY_SCHEMA_ID,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)

__all__ = [
    "NULL",
    "SPAN_CATEGORIES",
    "TELEMETRY_DOCUMENT_NAME",
    "TELEMETRY_EVENTS_NAME",
    "TELEMETRY_SCHEMA_ID",
    "StructLogger",
    "Telemetry",
    "configure_logging",
    "diff_documents",
    "get_logger",
    "get_telemetry",
    "load_run_telemetry",
    "set_telemetry",
    "summarize_document",
    "telemetry_session",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_events_jsonl",
    "validate_telemetry_document",
]
