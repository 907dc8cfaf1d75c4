"""Exception hierarchy for the :mod:`repro` package.

Keeping a small, explicit hierarchy lets callers distinguish configuration
mistakes (their fault, fix the inputs) from simulation failures (our fault or
a genuinely impossible scenario) without string matching.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "SchedulingError",
    "ExperimentError",
    "AnalysisError",
    "UsageError",
    "PerfError",
    "TelemetryError",
    "TaskTimeout",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid platform, file-system, or workload configuration.

    Raised during validation, before any simulation starts, so that a bad
    parameter set never produces silently wrong results.
    """


class SimulationError(ReproError, RuntimeError):
    """The simulation engine reached an inconsistent state.

    Examples: the event queue ran dry while applications still had pending
    I/O, a step produced negative remaining bytes, or the run exceeded its
    configured maximum simulated time.
    """


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the simulation horizon."""


class ExperimentError(ReproError, RuntimeError):
    """A reproduction experiment could not be assembled or executed."""


class TaskTimeout(ExperimentError):
    """A supervised task exceeded its wall-clock deadline.

    Raised inside the worker (or the serial executor path) by the
    signal-based deadline guard of :mod:`repro.runner.executor`; the
    supervisor counts it as a timeout and retries or quarantines the task
    according to the active :class:`~repro.runner.executor.FaultPolicy`.
    Module-level and payload-free so it pickles cleanly across the pool
    boundary.
    """


class AnalysisError(ReproError, ValueError):
    """Raised by analysis helpers when given malformed or empty results."""


class PerfError(ReproError, ValueError):
    """A malformed benchmark document or one the ratio gate cannot judge.

    Raised by :mod:`repro.perf` when a ``BENCH_stepper.json`` document does
    not match its schema, or when it lacks the entries a ratio of
    :func:`repro.perf.harness.check_ratios` divides.
    """


class TelemetryError(ReproError, ValueError):
    """A malformed telemetry document, event log, or exported trace.

    Raised by :mod:`repro.obs` when a ``telemetry.json`` document does not
    match its schema, when a run directory carries no telemetry artifacts,
    or when an exported Chrome trace fails structural validation.
    """


class UsageError(ReproError, ValueError):
    """An invalid command-line argument value.

    Every CLI validator raises this with a message that names the *current*
    flag spelling (``--points``, ``--jobs``, ``--archetypes``, ...); the CLI
    layer converts it into the argparse error path, so all bad-argument
    messages and exit codes (2) are uniform across subcommands.
    """
