"""Performance instrumentation for the stepping kernel.

The :mod:`repro.perf` package is the repo's perf trajectory in code form:

* :mod:`repro.perf.counters` — per-phase timing/allocation counters that
  attach to the stepping kernel (:class:`~repro.model.batch.BatchedStepper`;
  off by default, zero-cost when detached);
* :mod:`repro.perf.timing` — the min-of-N ``perf_counter_ns`` measurement
  primitive every benchmark shares;
* :mod:`repro.perf.harness` — the canonical scenario set and the runner that
  emits the schema'd ``BENCH_stepper.json`` document;
* :mod:`repro.perf.schema` — validation of that document;
* :mod:`repro.perf.compare` — the baseline-regression checker the CI smoke
  gate runs.

``repro-io perf`` is the CLI entry point.
"""

from repro.perf.compare import check_overhead, check_regression
from repro.perf.counters import StepProfiler
from repro.perf.harness import BENCH_SCHEMA_ID, run_perf, scenarios_for_scale
from repro.perf.schema import validate_bench_document
from repro.perf.timing import best_of_ns

__all__ = [
    "BENCH_SCHEMA_ID",
    "StepProfiler",
    "best_of_ns",
    "check_overhead",
    "check_regression",
    "run_perf",
    "scenarios_for_scale",
    "validate_bench_document",
]
