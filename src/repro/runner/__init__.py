"""Parallel campaign runner with a persistent, content-addressed result store.

Six pieces (see ``DESIGN.md`` at the repository root):

* :mod:`repro.runner.executor` — the one execution engine: in-process or
  process-parallel task execution under a
  :class:`~repro.runner.executor.FaultPolicy` (deadlines, retries,
  quarantine), with deterministic per-task seeding and ordered result
  reassembly;
* :mod:`repro.runner.cache` — content-addressed on-disk cache keyed by a
  SHA-256 fingerprint of ``(experiment, scale, quick, overrides, version)``;
* :mod:`repro.runner.store` — persistent run directories with verifiable
  ``manifest.json`` files;
* :mod:`repro.runner.grid` — declarative cartesian parameter grids executed
  through the executor and persisted through the store;
* :mod:`repro.runner.chaos` — deterministic fault injection
  (:class:`~repro.runner.chaos.FaultPlan`) for proving the executor's
  recovery paths;
* :mod:`repro.runner.journal` — append-only per-run progress journal for
  crash-safe, resumable campaigns.
"""

from repro.runner.cache import ResultCache, fingerprint, fingerprint_payload
from repro.runner.chaos import ChaosError, FaultPlan, FaultSpec, fault_plan
from repro.runner.executor import (
    FaultPolicy,
    ParallelExecutor,
    TaskFailure,
    TaskSpec,
    derive_task_seed,
    resolve_task_kind,
)
from repro.runner.grid import GridResult, ParameterGrid, run_grid
from repro.runner.journal import ProgressJournal
from repro.runner.store import RunStore, load_manifest, verify_manifest, write_run

__all__ = [
    "ParallelExecutor",
    "TaskSpec",
    "FaultPolicy",
    "TaskFailure",
    "ChaosError",
    "FaultPlan",
    "FaultSpec",
    "fault_plan",
    "ProgressJournal",
    "derive_task_seed",
    "ResultCache",
    "fingerprint",
    "fingerprint_payload",
    "resolve_task_kind",
    "RunStore",
    "write_run",
    "load_manifest",
    "verify_manifest",
    "ParameterGrid",
    "GridResult",
    "run_grid",
]
