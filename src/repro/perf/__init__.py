"""Performance instrumentation for the stepping kernel.

The :mod:`repro.perf` package is the repo's perf trajectory in code form:

* :mod:`repro.perf.counters` — per-phase timing/allocation counters that
  attach to the stepping kernel (:class:`~repro.model.batch.BatchedStepper`;
  off by default, zero-cost when detached);
* :mod:`repro.perf.timing` — the min-of-N ``perf_counter_ns`` measurement
  primitive every benchmark shares;
* :mod:`repro.perf.harness` — the canonical scenario set, the runner that
  emits the schema'd ``BENCH_stepper.json`` document, and the ratio gate
  the CI perf smoke runs on it;
* :mod:`repro.perf.schema` — validation of that document.

``repro-io perf`` is the CLI entry point.
"""

from repro.perf.counters import StepProfiler
from repro.perf.harness import (
    BENCH_SCHEMA_ID,
    check_ratios,
    format_summary,
    run_perf,
    scenarios_for_scale,
)
from repro.perf.schema import validate_bench_document
from repro.perf.timing import best_of_ns

__all__ = [
    "BENCH_SCHEMA_ID",
    "StepProfiler",
    "best_of_ns",
    "check_ratios",
    "format_summary",
    "run_perf",
    "scenarios_for_scale",
    "validate_bench_document",
]
