"""Command-line interface.

Examples
--------
List the available experiments::

    repro-io list

Run one reproduction and print its report::

    repro-io run figure5 --scale reduced

Run a custom Δ-graph sweep::

    repro-io sweep --device hdd --sync sync-on --pattern contiguous --points 9

Export an experiment table as CSV::

    repro-io run figure6 --csv table2_interference

Run the whole campaign in parallel, with a persistent result cache::

    repro-io campaign --scale reduced --jobs 4 --cache-dir .repro-cache \
        --output EXPERIMENTS.md

Explore a parameter grid and persist each run with a manifest::

    repro-io grid --axis device=hdd,ssd --axis sync=sync-on,sync-off \
        --scale tiny --jobs 4 --store runs/

Verify the integrity of persisted runs::

    repro-io verify runs/

Run the all-pairs interference matrix over workload archetypes (updates the
interference-matrix section of EXPERIMENTS.md and persists ``matrix.json``;
a warm-cache repeat is a 100% cache hit with byte-identical outputs)::

    repro-io matrix --archetypes checkpoint,analytics --jobs 2

Measure stepping-kernel throughput on the canonical scenario set and refresh
``BENCH_stepper.json`` (add ``--check`` to gate against the committed
baseline, ``--max-overhead`` to additionally bound telemetry-disabled
overhead)::

    repro-io perf --scale reduced --output BENCH_stepper.json
    repro-io perf --scale tiny --check --baseline BENCH_stepper.json

Capture a run timeline while the matrix executes, then inspect it::

    repro-io matrix --archetypes checkpoint,analytics --telemetry
    repro-io obs summary runs/matrix_<fp>
    repro-io obs export runs/matrix_<fp> --format chrome-trace -o trace.json
    repro-io obs diff runs/matrix_A runs/matrix_B

Query the result lake (every cached result, across all runs) and re-verify
a persisted run end-to-end::

    repro-io lake query --where key.kind=matrix-pair \
        --where key.task_id~checkpoint --sort derived.dilation:desc --limit 5
    repro-io lake query --agg max:derived.dilation --group-by key.scale
    repro-io lake stats
    repro-io lake compact
    repro-io reproduce runs/matrix_<fp>

Diagnostics go to stderr as structured ``level=... event=...`` lines;
``--quiet`` silences progress, ``--verbose`` adds debug detail.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import units
from repro._version import __version__
from repro.analysis.asciiplot import plot_delta_sweep
from repro.analysis.tables import sweep_to_csv
from repro.core.experiment import TwoApplicationExperiment
from repro.core.reporting import format_delta_sweep
from repro.errors import UsageError
from repro.experiments.registry import get_experiment, list_experiments
from repro.obs.log import configure_logging, get_logger

__all__ = ["main", "build_parser"]

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_STORE_DIR = "runs"


# --------------------------------------------------------------------------- #
# Argument validation
#
# Every validator raises repro.errors.UsageError with a message that names
# the current flag spelling; _cli_type funnels that into argparse's uniform
# bad-argument path (message on stderr, exit code 2) so all subcommands
# reject bad values identically.
# --------------------------------------------------------------------------- #


def _cli_type(validator):
    """Wrap a UsageError-raising validator as an argparse type callable."""

    def convert(value: str):
        try:
            return validator(value)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = validator.__name__.lstrip("_")
    return convert


def validate_sweep_points(value: str) -> int:
    """``--points``: an integer number of Δ-sweep delays, at least 3."""
    try:
        points = int(value)
    except ValueError:
        raise UsageError(f"--points expects an integer, got {value!r}") from None
    if points < 3:
        raise UsageError(
            f"--points must be at least 3 (a delta sweep needs >= 3 delays), "
            f"got {points}"
        )
    return points


def validate_jobs(value: str) -> int:
    """``--jobs``: a strictly positive worker count."""
    try:
        number = int(value)
    except ValueError:
        raise UsageError(f"--jobs expects an integer, got {value!r}") from None
    if number < 1:
        raise UsageError(f"--jobs must be >= 1, got {number}")
    return number


def validate_step_tolerance(value: str) -> float:
    """``--step-tolerance``: a float in (0, 1]."""
    try:
        tolerance = float(value)
    except ValueError:
        raise UsageError(
            f"--step-tolerance expects a number, got {value!r}"
        ) from None
    if not 0.0 < tolerance <= 1.0:
        raise UsageError(
            f"--step-tolerance must be in (0, 1], got {tolerance}"
        )
    return tolerance


def validate_task_timeout(value: str) -> float:
    """``--task-timeout``: a strictly positive wall-clock deadline in seconds."""
    try:
        timeout = float(value)
    except ValueError:
        raise UsageError(
            f"--task-timeout expects a number of seconds, got {value!r}"
        ) from None
    if timeout <= 0:
        raise UsageError(f"--task-timeout must be positive, got {timeout}")
    return timeout


def validate_max_retries(value: str) -> int:
    """``--max-retries``: a non-negative retry budget per task."""
    try:
        retries = int(value)
    except ValueError:
        raise UsageError(
            f"--max-retries expects an integer, got {value!r}"
        ) from None
    if retries < 0:
        raise UsageError(f"--max-retries must be >= 0, got {retries}")
    return retries


def validate_archetypes(value: str):
    """``--archetypes``: >= 2 comma-separated registered archetype names."""
    from repro.scenarios.archetypes import archetype_names

    names = [part.strip().lower() for part in value.split(",") if part.strip()]
    known = archetype_names()
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise UsageError(
            f"--archetypes names unknown archetypes {unknown}; "
            f"available: {known}"
        )
    if len(names) < 2:
        raise UsageError(
            f"--archetypes needs at least two comma-separated archetypes "
            f"(e.g. checkpoint,analytics), got {value!r}"
        )
    if len(set(names)) != len(names):
        raise UsageError(f"--archetypes lists duplicates: {names}")
    return names


def validate_min_ratio(value: str) -> float:
    """``--min-ratio``: a float in (0, 1]."""
    try:
        ratio = float(value)
    except ValueError:
        raise UsageError(f"--min-ratio expects a number, got {value!r}") from None
    if not 0.0 < ratio <= 1.0:
        raise UsageError(f"--min-ratio must be in (0, 1], got {ratio}")
    return ratio


def validate_max_overhead(value: str) -> float:
    """``--max-overhead``: a float in [0, 1)."""
    try:
        fraction = float(value)
    except ValueError:
        raise UsageError(
            f"--max-overhead expects a number, got {value!r}"
        ) from None
    if not 0.0 <= fraction < 1.0:
        raise UsageError(f"--max-overhead must be in [0, 1), got {fraction}")
    return fraction


def validate_repeats(value: str) -> int:
    """``--repeats``: a strictly positive repeat count."""
    try:
        number = int(value)
    except ValueError:
        raise UsageError(f"--repeats expects an integer, got {value!r}") from None
    if number < 1:
        raise UsageError(f"--repeats must be >= 1, got {number}")
    return number


def validate_batch_size(value: str) -> int:
    """``--batch``: a strictly positive lockstep batch width."""
    try:
        number = int(value)
    except ValueError:
        raise UsageError(f"--batch expects an integer, got {value!r}") from None
    if number < 1:
        raise UsageError(f"--batch must be >= 1, got {number}")
    return number


def validate_limit(value: str) -> int:
    """``--limit``: a non-negative row count."""
    try:
        number = int(value)
    except ValueError:
        raise UsageError(f"--limit expects an integer, got {value!r}") from None
    if number < 0:
        raise UsageError(f"--limit must be >= 0, got {number}")
    return number


def _validate_where(value: str):
    from repro.lake.query import parse_where

    return parse_where(value)


def _validate_sort(value: str):
    from repro.lake.query import parse_sort

    return parse_sort(value)


def _validate_agg(value: str):
    from repro.lake.query import parse_aggregate

    return parse_aggregate(value)


_sweep_points = _cli_type(validate_sweep_points)
_positive_int = _cli_type(validate_jobs)
_step_tolerance = _cli_type(validate_step_tolerance)
_archetype_list = _cli_type(validate_archetypes)
_task_timeout = _cli_type(validate_task_timeout)
_max_retries = _cli_type(validate_max_retries)
_min_ratio = _cli_type(validate_min_ratio)
_repeat_count = _cli_type(validate_repeats)
_max_overhead = _cli_type(validate_max_overhead)
_batch_size = _cli_type(validate_batch_size)
_row_limit = _cli_type(validate_limit)
_where_filter = _cli_type(_validate_where)
_sort_spec = _cli_type(_validate_sort)
_agg_spec = _cli_type(_validate_agg)


def _add_stepping_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the stepping-policy flags shared by ``sweep`` and ``campaign``."""
    parser.add_argument(
        "--stepping", default="fixed", choices=["fixed", "adaptive"],
        help="time-advance policy of the simulation core: 'fixed' (the "
             "default, byte-identical output) or 'adaptive' (quiescent "
             "intervals collapse into a single jump)",
    )
    parser.add_argument(
        "--step-tolerance", type=_step_tolerance, default=None, metavar="FRAC",
        help="adaptive-stepping accuracy knob in (0, 1]: fraction of the "
             "time to the next state change one step may cross "
             "(default: 0.05; only valid with --stepping adaptive)",
    )


def _stepping_policy(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Build the SteppingPolicy from parsed flags, rejecting nonsense combos."""
    from repro.config.control import SteppingPolicy

    if args.stepping != "adaptive":
        if args.step_tolerance is not None:
            parser.error(
                "--step-tolerance only applies to adaptive stepping; "
                "add --stepping adaptive"
            )
        return None
    if args.step_tolerance is None:
        return SteppingPolicy.adaptive()
    return SteppingPolicy.adaptive(tolerance=args.step_tolerance)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-io",
        description=(
            "Reproduction toolkit for 'On the Root Causes of Cross-Application "
            "I/O Interference in HPC Storage Systems' (IPDPS 2016)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-io {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="emit debug-level diagnostics on stderr",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress diagnostics on stderr (warnings still print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available table/figure reproductions")

    run_parser = sub.add_parser("run", help="run one table/figure reproduction")
    run_parser.add_argument("experiment", help="experiment id, e.g. table1 or figure5")
    run_parser.add_argument("--scale", default="reduced", choices=["tiny", "reduced", "paper"])
    run_parser.add_argument("--quick", action="store_true", help="use fewer sweep points")
    run_parser.add_argument(
        "--csv", metavar="TABLE", default=None, help="print one result table as CSV"
    )

    sweep_parser = sub.add_parser("sweep", help="run a custom two-application delta sweep")
    sweep_parser.add_argument("--scale", default="reduced", choices=["tiny", "reduced", "paper"])
    sweep_parser.add_argument("--device", default="hdd", help="hdd, ssd, ram")
    sweep_parser.add_argument(
        "--sync", default="sync-on", choices=["sync-on", "sync-off", "null-aio"]
    )
    sweep_parser.add_argument("--pattern", default="contiguous", choices=["contiguous", "strided"])
    sweep_parser.add_argument("--network", default="10g", choices=["10g", "1g"])
    sweep_parser.add_argument("--stripe-kib", type=float, default=64.0)
    sweep_parser.add_argument("--request-kib", type=float, default=None)
    sweep_parser.add_argument(
        "--points", type=_sweep_points, default=9,
        help="number of delta points in the sweep (>= 3)",
    )
    sweep_parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="simulate sweep points across N worker processes",
    )
    sweep_parser.add_argument("--partition-servers", action="store_true")
    sweep_parser.add_argument("--plot", action="store_true", help="also print an ASCII plot")
    sweep_parser.add_argument("--csv", action="store_true", help="print the sweep as CSV")
    _add_stepping_arguments(sweep_parser)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run every table/figure reproduction and write the EXPERIMENTS.md report",
    )
    campaign_parser.add_argument(
        "--scale", default="reduced", choices=["tiny", "reduced", "paper"]
    )
    campaign_parser.add_argument("--quick", action="store_true",
                                 help="use fewer sweep points per experiment")
    campaign_parser.add_argument(
        "--only", nargs="+", metavar="ID", default=None,
        help="restrict the campaign to these experiment ids (e.g. table1 figure5)",
    )
    campaign_parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the markdown report to this file (default: print to stdout)",
    )
    campaign_parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="run experiments across N worker processes (default: 1, serial)",
    )
    campaign_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist results in a content-addressed cache; repeated runs "
             "are served from it",
    )
    campaign_parser.add_argument(
        "--resume", action="store_true",
        help=f"resume from the result cache (defaults --cache-dir to "
             f"{DEFAULT_CACHE_DIR})",
    )
    campaign_parser.add_argument(
        "--timing", action="store_true",
        help="include wall-time lines in the report (makes the output "
             "non-deterministic across runs); experiments simulated together "
             "show their shared time as 'joint'",
    )
    campaign_parser.add_argument(
        "--telemetry-dir", metavar="DIR", default=None,
        help="collect span/counter telemetry during the campaign and write "
             "telemetry.json + telemetry_events.jsonl under DIR",
    )
    _add_stepping_arguments(campaign_parser)

    grid_parser = sub.add_parser(
        "grid",
        help="run a cartesian parameter grid of delta sweeps, one run "
             "directory per point",
    )
    grid_parser.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2", default=None,
        help="grid axis (repeatable); axes: device, sync, pattern, network, "
             "stripe_kib, request_kib.  Default grid: device=hdd,ssd x "
             "sync=sync-on,sync-off x pattern=contiguous,strided",
    )
    grid_parser.add_argument("--scale", default="reduced", choices=["tiny", "reduced", "paper"])
    grid_parser.add_argument(
        "--points", type=_sweep_points, default=5,
        help="delta points per grid point (>= 3)",
    )
    grid_parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="run grid points across N worker processes",
    )
    grid_parser.add_argument(
        "--seed", type=int, default=0, help="master seed for per-task seeds"
    )
    grid_parser.add_argument(
        "--store", metavar="DIR", default="runs",
        help="persist each grid point as a run directory under DIR "
             "(default: runs/)",
    )
    grid_parser.add_argument(
        "--no-store", action="store_true", help="do not persist run directories"
    )
    grid_parser.add_argument("--csv", action="store_true",
                             help="print the summary table as CSV")

    verify_parser = sub.add_parser(
        "verify", help="verify the manifests of persisted run directories"
    )
    verify_parser.add_argument(
        "paths", nargs="+", metavar="RUN_DIR",
        help="run directories (or store roots containing them) to verify",
    )

    matrix_parser = sub.add_parser(
        "matrix",
        help="run the all-pairs interference matrix over workload archetypes",
    )
    matrix_parser.add_argument(
        "--archetypes", type=_archetype_list, required=True,
        metavar="NAME,NAME[,...]",
        help="at least two comma-separated workload archetypes; a bad name "
             "lists the registry (checkpoint, analytics, smallfile, ...)",
    )
    matrix_parser.add_argument(
        "--scale", default="tiny", choices=["tiny", "reduced", "paper"],
        help="scale preset for every run (default: tiny — the matrix "
             "multiplies run counts)",
    )
    matrix_parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="fan alone/pair runs across N worker processes",
    )
    matrix_parser.add_argument("--device", default="hdd", help="hdd, ssd, ram")
    matrix_parser.add_argument(
        "--sync", default="sync-on", choices=["sync-on", "sync-off", "null-aio"]
    )
    matrix_parser.add_argument("--network", default="10g", choices=["10g", "1g"])
    matrix_parser.add_argument(
        "--delay", type=float, default=0.0, metavar="SECONDS",
        help="start offset of the second workload of every pair (default: 0)",
    )
    matrix_parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"content-addressed result cache (default: {DEFAULT_CACHE_DIR}); "
             "a repeated matrix is a 100%% cache hit",
    )
    matrix_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    matrix_parser.add_argument(
        "--output", metavar="PATH", default="EXPERIMENTS.md",
        help="report file whose interference-matrix section is created or "
             "replaced in place (default: EXPERIMENTS.md)",
    )
    matrix_parser.add_argument(
        "--no-output", action="store_true",
        help="print the report to stdout instead of updating a file",
    )
    matrix_parser.add_argument(
        "--store", metavar="DIR", default=DEFAULT_STORE_DIR,
        help="persist matrix.json as a verifiable run directory under DIR "
             f"(default: {DEFAULT_STORE_DIR}/)",
    )
    matrix_parser.add_argument(
        "--no-store", action="store_true", help="do not persist matrix.json"
    )
    matrix_parser.add_argument(
        "--csv", action="store_true",
        help="print the ordered (victim, aggressor) slowdown table as CSV",
    )
    matrix_parser.add_argument(
        "--telemetry", action="store_true",
        help="collect span/counter telemetry during the campaign; the "
             "persisted run directory gains telemetry.json, "
             "telemetry_events.jsonl and a per-task manifest table "
             "(inspect with repro-io obs)",
    )
    matrix_parser.add_argument(
        "--no-batch", action="store_true",
        help="disable the batched lockstep kernel for fixed-step tasks and "
             "run every simulation alone (results are bitwise identical "
             "either way; with --jobs N each planned bucket is one pool "
             "work unit, so batching and workers compose)",
    )
    matrix_parser.add_argument(
        "--task-timeout", type=_task_timeout, default=None, metavar="SECONDS",
        help="wall-clock deadline per task; a task exceeding it is "
             "interrupted and retried (default: no deadline).  With "
             "--jobs 1 only the in-process signal guard enforces it, which "
             "cannot interrupt a task stuck in native code — use --jobs 2 "
             "or more for the parent watchdog",
    )
    matrix_parser.add_argument(
        "--max-retries", type=_max_retries, default=2, metavar="N",
        help="retries per failing task before it is quarantined; the "
             "campaign always completes and quarantined tasks are listed "
             "in matrix.json/EXPERIMENTS.md (default: 2)",
    )
    matrix_parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted campaign: completed tasks are served "
             "from the result cache and the run's progress.jsonl journal "
             "reports how much survived",
    )
    _add_stepping_arguments(matrix_parser)

    perf_parser = sub.add_parser(
        "perf",
        help="measure stepping-kernel or campaign throughput and write the "
             "schema'd bench document (BENCH_stepper.json / "
             "BENCH_campaign.json)",
    )
    perf_parser.add_argument(
        "--campaign", action="store_true",
        help="measure the campaign grid instead of the stepper scenarios: "
             "cold+warm matrix wall over jobs x batch cells plus the "
             "batched-kernel curve; writes/gates BENCH_campaign.json",
    )
    perf_parser.add_argument(
        "--explain-buckets", action="store_true",
        help="print the --jobs 1 bucket plan of the matrix over "
             "--archetypes (per bucket: width, connection lanes, member "
             "steps, padded group-width sets) and exit without measuring",
    )
    perf_parser.add_argument(
        "--archetypes", type=_archetype_list, default=None,
        metavar="NAME,NAME[,...]",
        help="archetype set for --campaign / --explain-buckets (default: "
             "checkpoint,analytics,smallfile,incast)",
    )
    perf_parser.add_argument(
        "--scale", default=None, choices=["tiny", "reduced"],
        help="canonical scenario set to measure: 'tiny' (the CI smoke set) "
             "or 'reduced' (the full set, default; --campaign always runs "
             "its matrix at tiny).  --explain-buckets explains the matrix "
             "at this scale (default: tiny, as repro-io matrix)",
    )
    perf_parser.add_argument(
        "--repeats", type=_repeat_count, default=5, metavar="N",
        help="repeats per scenario; the minimum wall time is reported "
             "(default: 5)",
    )
    perf_parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the schema'd bench document here (default: "
             "BENCH_campaign.json with --campaign, else BENCH_stepper.json)",
    )
    perf_parser.add_argument(
        "--no-output", action="store_true",
        help="print the document to stdout instead of writing a file",
    )
    perf_parser.add_argument(
        "--profile", action="store_true",
        help="include a per-phase timing/allocation profile (one extra "
             "instrumented pass)",
    )
    perf_parser.add_argument(
        "--batch", action="append", type=_batch_size, default=None,
        metavar="B", dest="batch",
        help="also measure the batched lockstep kernel at width B "
             "(repeatable, e.g. --batch 8 --batch 32; the committed curve "
             "uses B in {1, 8, 32, 128})",
    )
    perf_parser.add_argument(
        "--check", action="store_true",
        help="compare the fresh measurement against --baseline and exit "
             "non-zero on a regression",
    )
    perf_parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="committed baseline document for --check (default: "
             "BENCH_campaign.json with --campaign, else BENCH_stepper.json)",
    )
    perf_parser.add_argument(
        "--min-ratio", type=_min_ratio, default=0.7, metavar="FRAC",
        help="allowed fraction of baseline throughput before --check fails "
             "(default: 0.7, i.e. a >30%% regression fails)",
    )
    perf_parser.add_argument(
        "--max-overhead", type=_max_overhead, default=None, metavar="FRAC",
        help="with --check, additionally fail when throughput falls more "
             "than FRAC below the baseline (e.g. 0.02 asserts the "
             "telemetry-disabled overhead stays within 2%%); off by default "
             "because it is a much tighter gate than --min-ratio",
    )

    obs_parser = sub.add_parser(
        "obs",
        help="inspect the telemetry of persisted runs (summary, export, diff)",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary",
        help="report worker utilization, per-phase step timing and cache "
             "efficiency of one run's telemetry",
    )
    obs_summary.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="run directory carrying telemetry.json (e.g. from "
             "repro-io matrix --telemetry)",
    )
    obs_export = obs_sub.add_parser(
        "export", help="export one run's telemetry to a trace format"
    )
    obs_export.add_argument("run_dir", metavar="RUN_DIR")
    obs_export.add_argument(
        "--format", dest="trace_format", default="chrome-trace",
        choices=["chrome-trace"],
        help="output format (chrome-trace loads in https://ui.perfetto.dev "
             "and chrome://tracing)",
    )
    obs_export.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the trace here (default: stdout)",
    )
    obs_diff = obs_sub.add_parser(
        "diff", help="compare the telemetry of two run directories"
    )
    obs_diff.add_argument("run_dir_a", metavar="RUN_DIR_A")
    obs_diff.add_argument("run_dir_b", metavar="RUN_DIR_B")

    cache_parser = sub.add_parser(
        "cache",
        help="maintain a content-addressed result cache (layout migration)",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_migrate = cache_sub.add_parser(
        "migrate",
        help="move legacy flat-layout entries into the sharded "
             "objects/<aa>/ layout (idempotent; also sweeps stale *.tmp "
             "writer debris)",
    )
    cache_migrate.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"cache root to migrate in place (default: {DEFAULT_CACHE_DIR})",
    )

    lake_parser = sub.add_parser(
        "lake",
        help="query the result lake (every cached result across all runs): "
             "filter/sort/aggregate over keys and headline metrics",
    )
    lake_sub = lake_parser.add_subparsers(dest="lake_command", required=True)
    lake_query = lake_sub.add_parser(
        "query",
        help="filter, sort and aggregate lake entries; derived.* fields "
             "(dilation, slowdowns) join pair entries with their alone "
             "baselines",
    )
    lake_query.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"cache root holding objects/ + index.jsonl "
             f"(default: {DEFAULT_CACHE_DIR})",
    )
    lake_query.add_argument(
        "--where", action="append", type=_where_filter, default=None,
        metavar="FIELD[OP]VALUE",
        help="filter expression (repeatable, ANDed): field=value, "
             "field!=value, field~substr, field>n, field>=n, field<n, "
             "field<=n, or a bare field (present); fields are dotted paths "
             "like key.kind, headline.makespan, derived.dilation",
    )
    lake_query.add_argument(
        "--sort", type=_sort_spec, default=None, metavar="FIELD[:asc|:desc]",
        help="order results by a field (default direction: asc; entries "
             "missing the field sort last)",
    )
    lake_query.add_argument(
        "--limit", type=_row_limit, default=None, metavar="N",
        help="keep at most N rows after filtering and sorting",
    )
    lake_query.add_argument(
        "--columns", metavar="F1,F2,...",
        default="fingerprint,key.kind,key.task_id,key.scale",
        help="comma-separated fields of the result table (default: "
             "fingerprint,key.kind,key.task_id,key.scale); the sort field "
             "is appended automatically",
    )
    lake_query.add_argument(
        "--agg", action="append", type=_agg_spec, default=None,
        metavar="FN:FIELD",
        help="aggregate instead of listing rows: FN in "
             "min,max,mean,sum,count (repeatable)",
    )
    lake_query.add_argument(
        "--group-by", metavar="FIELD", default=None,
        help="group --agg aggregates by this field",
    )
    lake_query.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print full entries (or aggregate rows) as JSON instead of a "
             "table",
    )
    lake_stats = lake_sub.add_parser(
        "stats",
        help="report the lake's reconciliation state: entries, index lines, "
             "duplicates, ghosts, backfills",
    )
    lake_stats.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"cache root (default: {DEFAULT_CACHE_DIR})",
    )
    lake_stats.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the stats as JSON",
    )
    lake_compact = lake_sub.add_parser(
        "compact",
        help="rewrite index.jsonl from objects/: drops ghost and duplicate "
             "lines, backfills unindexed objects",
    )
    lake_compact.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"cache root to compact in place (default: {DEFAULT_CACHE_DIR})",
    )

    reproduce_parser = sub.add_parser(
        "reproduce",
        help="re-verify a persisted run end-to-end: checksum its artifacts, "
             "re-execute its recipe through the cached runner and diff the "
             "regenerated artifacts byte-for-byte",
    )
    reproduce_parser.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="run directory to reproduce (a matrix run carries its full "
             "recipe in matrix.json)",
    )
    reproduce_parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"result cache for the re-execution (default: "
             f"{DEFAULT_CACHE_DIR}; the original run's cache makes "
             "reproduction a 100%% cache hit)",
    )
    reproduce_parser.add_argument(
        "--no-cache", action="store_true",
        help="re-execute without the result cache (every task recomputed)",
    )
    reproduce_parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="fan the re-execution across N worker processes",
    )
    reproduce_parser.add_argument(
        "--verify-only", action="store_true",
        help="stop after the checksum stage (equivalent to repro-io verify, "
             "in reproduce's per-artifact report format)",
    )
    reproduce_parser.add_argument(
        "--no-batch", action="store_true",
        help="disable the batched lockstep kernel during re-execution",
    )

    return parser


def _command_list() -> int:
    for entry in list_experiments():
        print(f"{entry.experiment_id:10s} {entry.paper_reference:22s} {entry.title}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    entry = get_experiment(args.experiment)
    result = entry.run(scale=args.scale, quick=args.quick)
    if args.csv:
        print(result.table_csv(args.csv), end="")
    else:
        print(result.report())
    return 0


def _command_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    kwargs = dict(
        device=args.device,
        sync_mode=args.sync,
        pattern=args.pattern,
        network=args.network,
        stripe_size=args.stripe_kib * units.KiB,
        partition_servers=args.partition_servers,
    )
    stepping = _stepping_policy(parser, args)
    if stepping is not None:
        kwargs["stepping"] = stepping
    if args.request_kib is not None:
        kwargs["request_size"] = args.request_kib * units.KiB
    experiment = TwoApplicationExperiment(args.scale, **kwargs)
    sweep = experiment.run_sweep(n_points=args.points, jobs=args.jobs)
    if args.csv:
        print(sweep_to_csv(sweep), end="")
        return 0
    print(format_delta_sweep(sweep))
    if args.plot:
        print()
        print(plot_delta_sweep(sweep))
    return 0


def _write_telemetry_files(telemetry, out_dir: str, run_id: Optional[str] = None) -> None:
    """Validate and write telemetry.json + telemetry_events.jsonl to a dir."""
    import json
    import os

    from repro.obs.schema import validate_telemetry_document
    from repro.obs.summary import TELEMETRY_DOCUMENT_NAME, TELEMETRY_EVENTS_NAME

    document = telemetry.to_document(run_id=run_id)
    validate_telemetry_document(document)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, TELEMETRY_DOCUMENT_NAME), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(out_dir, TELEMETRY_EVENTS_NAME), "w",
              encoding="utf-8") as handle:
        handle.write(telemetry.events_jsonl())
    get_logger().info(
        "telemetry_written", dir=out_dir,
        spans=len(document["spans"]), counters=len(document["counters"]),
    )


def _command_campaign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # Imported lazily: the campaign machinery pulls in every experiment module.
    from repro.analysis.campaign import campaign_to_markdown, run_campaign
    from repro.obs.telemetry import NULL, Telemetry, set_telemetry

    log = get_logger()
    stepping = _stepping_policy(parser, args)
    cache_dir = args.cache_dir
    if args.resume and cache_dir is None:
        cache_dir = DEFAULT_CACHE_DIR

    def progress(experiment_id: str, record) -> None:
        origin = "cached" if record.from_cache else f"{record.runtime}s"
        log.info(
            "campaign", experiment=experiment_id,
            agree=f"{record.n_agreeing}/{record.n_claims}", origin=origin,
        )

    telemetry = None
    if args.telemetry_dir:
        telemetry = Telemetry(label="campaign")
        set_telemetry(telemetry)
    try:
        if telemetry is not None:
            with telemetry.span(
                f"campaign:{args.scale}", category="campaign",
                scale=args.scale, jobs=args.jobs,
            ):
                campaign = run_campaign(
                    scale=args.scale, quick=args.quick, experiments=args.only,
                    progress=progress, jobs=args.jobs, cache_dir=cache_dir,
                    stepping=stepping,
                )
        else:
            campaign = run_campaign(
                scale=args.scale, quick=args.quick, experiments=args.only,
                progress=progress, jobs=args.jobs, cache_dir=cache_dir,
                stepping=stepping,
            )
    finally:
        if telemetry is not None:
            set_telemetry(NULL)
    if telemetry is not None:
        _write_telemetry_files(telemetry, args.telemetry_dir)
    text = campaign_to_markdown(campaign, include_timing=args.timing)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        log.info("report_written", path=args.output, summary=campaign.describe())
    else:
        print(text)
    return 0


def _command_grid(args: argparse.Namespace) -> int:
    # Imported lazily: keeps `repro-io list` style commands import-light.
    from repro.analysis.tables import rows_to_csv, rows_to_markdown
    from repro.runner.grid import ParameterGrid, run_grid

    if args.axis:
        grid = ParameterGrid.from_specs(args.axis)
    else:
        grid = ParameterGrid({
            "device": ["hdd", "ssd"],
            "sync": ["sync-on", "sync-off"],
            "pattern": ["contiguous", "strided"],
        })

    log = get_logger()

    def progress(point_id: str, point) -> None:
        log.info(
            "grid_point", point=point_id,
            peak_if=f"{point.summary['peak_interference_factor']:.2f}",
        )

    result = run_grid(
        grid,
        scale=args.scale,
        n_points=args.points,
        jobs=args.jobs,
        master_seed=args.seed,
        store_dir=None if args.no_store else args.store,
        progress=progress,
    )
    rows = result.to_rows()
    if args.csv:
        print(rows_to_csv(rows), end="")
    else:
        print(rows_to_markdown(rows))
    if result.store_root:
        log.info(
            "grid_persisted", runs=len(result), store=str(result.store_root),
            verify=f"repro-io verify {result.store_root}",
        )
    return 0


def _command_matrix(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # Imported lazily: the matrix machinery pulls in the whole fleet stack.
    from repro.analysis.interference import (
        matrix_report_markdown,
        update_experiments_section,
    )
    from repro.analysis.tables import rows_to_csv
    from repro.obs.telemetry import NULL, Telemetry, set_telemetry
    from repro.runner.executor import FaultPolicy
    from repro.runner.journal import JOURNAL_NAME, ProgressJournal
    from repro.scenarios.matrix import (
        matrix_run_id,
        run_interference_matrix,
        store_matrix,
    )

    log = get_logger()
    stepping = _stepping_policy(parser, args)
    if args.telemetry and args.no_store:
        parser.error(
            "--telemetry persists into the run store; drop --no-store"
        )
    if args.resume and args.no_cache:
        parser.error(
            "--resume replays completed tasks from the result cache; "
            "drop --no-cache"
        )

    def progress(task_id: str, from_cache: bool) -> None:
        origin = "cached" if from_cache else "ran"
        log.info("matrix_task", task=task_id, origin=origin)

    fault_policy = FaultPolicy(
        task_timeout_s=args.task_timeout,
        max_retries=args.max_retries,
    )

    journal = None
    if not args.no_store:
        import os

        run_id = matrix_run_id(
            args.archetypes,
            args.scale,
            stepping=stepping,
            device=args.device,
            sync_mode=args.sync,
            network=args.network,
            delay=args.delay,
        )
        journal = ProgressJournal(
            os.path.join(args.store, run_id, JOURNAL_NAME)
        )
        if args.resume and journal.exists():
            survived = journal.completed()
            log.info(
                "matrix_resume",
                completed=len(survived),
                journal=str(journal.path),
            )

    telemetry = None
    if args.telemetry:
        telemetry = Telemetry(label="matrix")
        set_telemetry(telemetry)
    try:
        matrix = run_interference_matrix(
            args.archetypes,
            args.scale,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            stepping=stepping,
            progress=progress,
            batch=not args.no_batch,
            fault_policy=fault_policy,
            journal=journal,
            device=args.device,
            sync_mode=args.sync,
            network=args.network,
            delay=args.delay,
        )
    finally:
        if telemetry is not None:
            set_telemetry(NULL)

    if args.csv:
        print(rows_to_csv(matrix.to_rows()), end="")
    section = matrix_report_markdown(matrix)
    if args.no_output:
        if not args.csv:
            print(section)
    else:
        update_experiments_section(args.output, section)
        log.info("matrix_report", path=args.output, summary=matrix.describe())
    if not args.no_store:
        run_dir = store_matrix(matrix, args.store, telemetry=telemetry)
        log.info(
            "matrix_persisted", run_dir=run_dir,
            telemetry=bool(telemetry),
            verify=f"repro-io verify {run_dir}",
        )
        if telemetry is not None:
            log.info("telemetry_hint", summary=f"repro-io obs summary {run_dir}")
    if matrix.failed_tasks:
        log.error(
            "matrix_quarantine",
            failed=len(matrix.failed_tasks),
            tasks=",".join(f["task_id"] for f in matrix.failed_tasks),
            hint="completed results are cached; re-run to retry the "
                 "quarantined tasks",
        )
        return 1
    return 0


def _command_perf(args: argparse.Namespace) -> int:
    # Imported lazily: the perf harness pulls in the model stack.
    import json
    import os

    from repro.errors import PerfError
    from repro.perf import (
        check_overhead,
        check_regression,
        run_perf,
        validate_bench_document,
    )
    from repro.perf.compare import format_summary

    log = get_logger()

    if args.explain_buckets:
        from repro.perf.campaign import DEFAULT_CAMPAIGN_ARCHETYPES
        from repro.scenarios.matrix import explain_matrix_buckets

        archetypes = args.archetypes or list(DEFAULT_CAMPAIGN_ARCHETYPES)
        print(explain_matrix_buckets(archetypes, args.scale or "tiny"))
        return 0

    if args.campaign:
        return _perf_campaign(args, log)

    # The stepper bench: resolve the mode-dependent default paths.
    output = args.output or "BENCH_stepper.json"
    baseline_path = args.baseline or "BENCH_stepper.json"
    if args.max_overhead is not None and not args.check:
        log.error("perf_usage", error="--max-overhead requires --check")
        return 2

    # Load the baseline *before* measuring or writing anything: a gate run
    # must never overwrite its own reference (the default --output and
    # --baseline are the same committed file) and a missing/corrupt baseline
    # should fail before the expensive measurement.
    baseline = None
    if args.check:
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            validate_bench_document(baseline)
        except FileNotFoundError:
            log.error("perf_fail", error=f"baseline {baseline_path} not found")
            return 1
        except (PerfError, json.JSONDecodeError) as exc:
            log.error("perf_fail", error=str(exc))
            return 1

    document = run_perf(
        scale=args.scale or "reduced", repeats=args.repeats, profile=args.profile,
        batch_sizes=args.batch,
    )
    validate_bench_document(document)
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.no_output:
        print(text, end="")
    elif args.check and os.path.realpath(output) == os.path.realpath(baseline_path):
        log.info(
            "perf_skip_write",
            reason=f"not overwriting the baseline {baseline_path} during a "
                   "--check run; pass a different --output to keep the "
                   "measurement",
        )
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        log.info("perf_written", path=output)
    print(format_summary(document), file=sys.stderr)

    if not args.check:
        return 0
    try:
        failures = check_regression(document, baseline, min_ratio=args.min_ratio)
        if args.max_overhead is not None:
            failures += check_overhead(document, baseline, args.max_overhead)
    except PerfError as exc:
        log.error("perf_fail", error=str(exc))
        return 1
    if failures:
        for failure in failures:
            log.error("perf_regression", detail=failure)
        return 1
    gate = f"no scenario below {args.min_ratio:.0%} of {baseline_path}"
    if args.max_overhead is not None:
        gate += f"; overhead within {args.max_overhead:.1%}"
    log.info("perf_gate", status="green", detail=gate)
    return 0


def _perf_campaign(args: argparse.Namespace, log) -> int:
    """The ``repro-io perf --campaign`` mode: measure, write, optionally gate."""
    import json
    import os

    from repro.errors import PerfError
    from repro.perf.campaign import (
        DEFAULT_CAMPAIGN_ARCHETYPES,
        check_campaign_regression,
        format_campaign_summary,
        run_campaign_bench,
        validate_campaign_document,
    )

    if args.max_overhead is not None:
        log.error(
            "perf_usage",
            error="--max-overhead applies to the stepper bench only",
        )
        return 2
    output = args.output or "BENCH_campaign.json"
    baseline_path = args.baseline or "BENCH_campaign.json"

    baseline = None
    if args.check:
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            validate_campaign_document(baseline)
        except FileNotFoundError:
            log.error("perf_fail", error=f"baseline {baseline_path} not found")
            return 1
        except (PerfError, json.JSONDecodeError) as exc:
            log.error("perf_fail", error=str(exc))
            return 1

    archetypes = args.archetypes or list(DEFAULT_CAMPAIGN_ARCHETYPES)
    document = run_campaign_bench(archetypes=archetypes, repeats=args.repeats)
    validate_campaign_document(document)
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.no_output:
        print(text, end="")
    elif args.check and os.path.realpath(output) == os.path.realpath(baseline_path):
        log.info(
            "perf_skip_write",
            reason=f"not overwriting the baseline {baseline_path} during a "
                   "--check run; pass a different --output to keep the "
                   "measurement",
        )
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        log.info("perf_written", path=output)
    print(format_campaign_summary(document), file=sys.stderr)

    if not args.check:
        return 0
    try:
        failures = check_campaign_regression(
            document, baseline, min_ratio=args.min_ratio
        )
    except PerfError as exc:
        log.error("perf_fail", error=str(exc))
        return 1
    if failures:
        for failure in failures:
            log.error("perf_regression", detail=failure)
        return 1
    log.info(
        "perf_gate", status="green",
        detail=f"grid byte-identical, utilization at most 100%, no kernel "
               f"throughput below {args.min_ratio:.0%} of {baseline_path}",
    )
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    """The ``repro-io cache`` maintenance commands."""
    from repro.runner.cache import ResultCache

    log = get_logger()
    if args.cache_command == "migrate":
        cache = ResultCache(args.cache_dir, tmp_max_age_s=0.0)
        moved = cache.migrate()
        log.info(
            "cache_migrated",
            cache_dir=args.cache_dir,
            moved=moved,
            swept_tmp=cache.swept_tmp,
            entries=len(cache.entries()),
        )
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommand


def _short_fingerprint(value: object) -> str:
    text = str(value)
    return text[:12] if len(text) > 12 else text


def _command_lake(args: argparse.Namespace) -> int:
    """The ``repro-io lake`` query/stats/compact commands."""
    import json

    from repro.analysis.tables import rows_to_markdown
    from repro.lake import aggregate_entries, load_lake, run_query

    log = get_logger()
    if args.lake_command == "compact":
        from repro.runner.cache import ResultCache

        stats = ResultCache(args.cache_dir).compact_index()
        log.info("lake_compacted", cache_dir=args.cache_dir, **stats)
        print(
            f"[lake] compacted {args.cache_dir}: {stats['entries']} entries, "
            f"dropped {stats['dropped_duplicates']} duplicates and "
            f"{stats['dropped_ghosts']} ghosts, backfilled "
            f"{stats['backfilled']}"
        )
        return 0

    view = load_lake(args.cache_dir)
    if args.lake_command == "stats":
        stats = {
            "root": view.root,
            "entries": len(view.entries),
            "index_lines": view.index_lines,
            "duplicates": view.duplicates,
            "ghosts": len(view.ghosts),
            "backfilled": len(view.backfilled),
            "unreadable": view.unreadable,
            "corrupt_lines": view.corrupt_lines,
            "coherent": view.coherent,
        }
        if args.as_json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"[lake] {view.root}")
        print(f"  entries     {stats['entries']}")
        print(f"  index lines {stats['index_lines']} "
              f"({stats['duplicates']} shadowed duplicates)")
        print(f"  ghosts      {stats['ghosts']}")
        print(f"  backfilled  {stats['backfilled']}")
        print(f"  unreadable  {stats['unreadable']}")
        if stats["corrupt_lines"]:
            print(f"  corrupt     {stats['corrupt_lines']} skipped index "
                  "lines (lake compact heals them)")
        verdict = "coherent" if view.coherent else (
            "incoherent (run repro-io lake compact)"
        )
        print(f"  index is {verdict}")
        return 0

    # lake query
    entries = run_query(
        view.entries,
        where=args.where or (),
        sort=args.sort,
        limit=args.limit,
    )
    if args.agg:
        rows = aggregate_entries(entries, args.agg, group_by=args.group_by)
        if args.as_json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        elif rows:
            print(rows_to_markdown(rows))
        else:
            print("[lake] no matching entries")
        return 0
    if args.group_by:
        log.warn("lake_usage", detail="--group-by has no effect without --agg")
    if args.as_json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print("[lake] no matching entries")
        return 0
    from repro.lake.query import resolve_field

    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if args.sort and args.sort[0] not in columns:
        columns.append(args.sort[0])
    rows = []
    for entry in entries:
        row = {}
        for column in columns:
            value = resolve_field(entry, column)
            if column == "fingerprint" and value is not None:
                value = _short_fingerprint(value)
            if isinstance(value, float):
                value = round(value, 6)
            row[column] = "" if value is None else value
        rows.append(row)
    print(rows_to_markdown(rows, columns=columns))
    print(f"{len(entries)} entries")
    return 0


def _command_reproduce(args: argparse.Namespace) -> int:
    """The ``repro-io reproduce`` verb: re-verify one run end-to-end."""
    from repro.lake.reproduce import reproduce_run

    report = reproduce_run(
        args.run_dir,
        cache_dir=None if args.no_cache else args.cache_dir,
        jobs=args.jobs,
        batch=not args.no_batch,
        verify_only=args.verify_only,
    )
    print(report.render())
    return 0 if report.ok else 1


def _command_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.runner.store import MANIFEST_NAME, RunStore, verify_manifest

    run_dirs: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if (path / MANIFEST_NAME).is_file():
            run_dirs.append(path)
        elif path.is_dir():
            found = RunStore(path).runs()
            if not found:
                print(f"[verify] FAIL {path}: no {MANIFEST_NAME} found")
                return 1
            run_dirs.extend(found)
        else:
            print(f"[verify] FAIL {path}: not a directory")
            return 1

    failures = 0
    for run_dir in run_dirs:
        ok, issues = verify_manifest(run_dir)
        status = "ok" if ok else "FAIL"
        print(f"[verify] {status:4s} {run_dir}")
        for issue in issues:
            print(f"         - {issue}")
        if ok:
            efficiency = _cache_efficiency_line(run_dir)
            if efficiency:
                print(f"         {efficiency}")
        failures += 0 if ok else 1
    print(f"[verify] {len(run_dirs) - failures}/{len(run_dirs)} runs verified")
    return 1 if failures else 0


def _cache_efficiency_line(run_dir) -> Optional[str]:
    """Cache-efficiency summary from a manifest's task table, if it has one."""
    from repro.runner.store import load_manifest

    tasks = load_manifest(run_dir).get("tasks")
    if not isinstance(tasks, dict) or not tasks:
        return None
    cached = sum(1 for t in tasks.values() if t.get("origin") == "cache")
    computed = [t for t in tasks.values() if t.get("origin") == "computed"]
    # Batched members record zero wall and name their bucket: count each
    # bucket's wall once.
    bucket_walls = {
        t["bucket"]: float(t.get("bucket_wall_s", 0.0))
        for t in computed if "bucket" in t
    }
    computed_wall = sum(
        float(t.get("wall_time_s", 0.0)) for t in computed
    ) + sum(bucket_walls.values())
    total = len(tasks)
    return (
        f"cache efficiency: {cached}/{total} tasks cached "
        f"({cached / total:.0%}), {computed_wall:.2f}s spent computing"
    )


def _command_obs(args: argparse.Namespace) -> int:
    import json

    from repro.errors import TelemetryError
    from repro.obs.export import to_chrome_trace, validate_chrome_trace
    from repro.obs.summary import (
        diff_documents,
        load_run_telemetry,
        summarize_document,
    )

    log = get_logger()
    try:
        if args.obs_command == "summary":
            document = load_run_telemetry(args.run_dir)
            print(summarize_document(document, args.run_dir))
        elif args.obs_command == "export":
            document = load_run_telemetry(args.run_dir)
            trace = to_chrome_trace(document)
            validate_chrome_trace(trace)
            text = json.dumps(trace, indent=1) + "\n"
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
                log.info(
                    "trace_written", path=args.output,
                    format=args.trace_format,
                    events=len(trace["traceEvents"]),
                )
            else:
                print(text, end="")
        elif args.obs_command == "diff":
            doc_a = load_run_telemetry(args.run_dir_a)
            doc_b = load_run_telemetry(args.run_dir_b)
            print(diff_documents(doc_a, doc_b, args.run_dir_a, args.run_dir_b))
    except TelemetryError as exc:
        log.error("obs_failed", error=str(exc))
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-io`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        return _dispatch(args, parser)
    except KeyboardInterrupt:
        # Exit code 130 = 128 + SIGINT.  Only campaign/matrix runs have
        # cache + journal resume semantics; other commands get the plain
        # one-liner so the hint never promises a --resume that isn't there.
        if getattr(args, "command", None) in ("campaign", "matrix"):
            print(
                "interrupted; completed tasks are cached — "
                "re-run with --resume to continue",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return 130


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args, parser)
    if args.command == "campaign":
        return _command_campaign(args, parser)
    if args.command == "grid":
        return _command_grid(args)
    if args.command == "matrix":
        return _command_matrix(args, parser)
    if args.command == "verify":
        return _command_verify(args)
    if args.command == "perf":
        return _command_perf(args)
    if args.command == "obs":
        return _command_obs(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "lake":
        return _command_lake(args)
    if args.command == "reproduce":
        return _command_reproduce(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
