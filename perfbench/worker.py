"""One cold workload call in a fresh process (spawned by ``run.py``).

Usage::

    PYTHONPATH=src python3 perfbench/worker.py --workload matrix-cold \\
        --seed 0 --trace 0 --tmp DIR --spawned MONOTONIC

``--tmp`` is an empty directory that receives the call's cache, store and
output dirs; ``--spawned`` is the parent's ``time.monotonic()`` right before
it started this process, so ``setup_s`` covers interpreter start-up plus the
imports.  ``--setup-only`` stops after the imports.  The worker prints one
JSON object on stdout: set-up and wall time, CPU seconds and peak RSS of this
process and its children, the tasks attempted and quarantined, output
digests and, with ``--trace 1``, the per-layer ledger.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: workload -> (jobs, telemetry) for the matrix workloads.
MATRIX_WORKLOADS = {
    "matrix-cold": (1, False),
    "matrix-cold-jobs2": (2, False),
    "matrix-cold-telemetry": (1, True),
}
WORKLOADS = tuple(MATRIX_WORKLOADS) + ("campaign-cold",)
SCALE = "tiny"


def sha256_prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def import_workload_modules(workload: str) -> None:
    """Everything the workload's calls need, imported before timing."""
    if workload in MATRIX_WORKLOADS:
        import repro.analysis.interference  # noqa: F401
        import repro.obs.telemetry  # noqa: F401
        import repro.runner.executor  # noqa: F401
        import repro.runner.journal  # noqa: F401
        import repro.scenarios.archetypes  # noqa: F401
        import repro.scenarios.matrix  # noqa: F401
    else:
        import repro.analysis.campaign  # noqa: F401
        import repro.experiments.registry  # noqa: F401


def run_matrix(
    tmp: Path,
    seed: Optional[int],
    jobs: int,
    telemetry: bool,
    archetypes: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """The calls ``repro-io matrix`` makes, with every path under ``tmp``.

    ``seed=None`` passes no seed option, so the outputs equal what the CLI
    writes by default.
    """
    from repro.analysis.interference import (
        matrix_report_markdown,
        update_experiments_section,
    )
    from repro.obs.telemetry import NULL, Telemetry, set_telemetry
    from repro.runner.executor import FaultPolicy
    from repro.runner.journal import JOURNAL_NAME, ProgressJournal
    from repro.scenarios.archetypes import archetype_names
    from repro.scenarios.matrix import (
        matrix_run_id,
        run_interference_matrix,
        store_matrix,
    )

    names = list(archetypes or archetype_names())
    options = {} if seed is None else {"seed": seed}
    store = tmp / "store"
    output = tmp / "out" / "EXPERIMENTS.md"
    output.parent.mkdir(parents=True)
    journal = ProgressJournal(
        store / matrix_run_id(names, SCALE, **options) / JOURNAL_NAME
    )
    session = Telemetry(label="matrix") if telemetry else None
    if session is not None:
        set_telemetry(session)
    try:
        matrix = run_interference_matrix(
            names,
            SCALE,
            jobs=jobs,
            cache_dir=str(tmp / "cache"),
            batch=True,
            fault_policy=FaultPolicy(max_retries=2),
            journal=journal,
            **options,
        )
    finally:
        if session is not None:
            set_telemetry(NULL)
    update_experiments_section(str(output), matrix_report_markdown(matrix))
    run_dir = Path(store_matrix(matrix, str(store), telemetry=session))
    n = len(names)
    return {
        "attempted": n + n * (n + 1) // 2,
        "failed_tasks": len(matrix.failed_tasks),
        "digests": {
            "matrix.json": sha256_prefix((run_dir / "matrix.json").read_bytes()),
            "EXPERIMENTS.md": sha256_prefix(output.read_bytes()),
        },
    }


def run_paper_campaign(
    tmp: Path, experiments: Optional[List[str]] = None
) -> Dict[str, Any]:
    """The calls ``repro-io campaign --scale tiny --cache-dir C --output R``
    makes: full sweep points, ``--jobs 1``, a fresh cache."""
    from repro.analysis.campaign import campaign_to_markdown, run_campaign

    campaign = run_campaign(
        scale=SCALE, quick=False, experiments=experiments, jobs=1,
        cache_dir=str(tmp / "cache"),
    )
    output = tmp / "out" / "EXPERIMENTS.md"
    output.parent.mkdir(parents=True)
    output.write_text(campaign_to_markdown(campaign), encoding="utf-8")
    return {
        "attempted": len(campaign.records),
        "failed_tasks": 0,
        "digests": {"report": sha256_prefix(output.read_bytes())},
        "claims": [campaign.n_agreeing, campaign.n_claims],
    }


def workload_call(workload: str, tmp: Path, seed: Optional[int]) -> Callable[[], Dict[str, Any]]:
    if workload in MATRIX_WORKLOADS:
        jobs, telemetry = MATRIX_WORKLOADS[workload]
        return lambda: run_matrix(tmp, seed, jobs, telemetry)
    return lambda: run_paper_campaign(tmp)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (KiB -> MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_workload_modules(args.workload)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    call = workload_call(args.workload, args.tmp, args.seed)
    ledger = None
    if args.trace:
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        outcome = ledger.measure(call) if ledger is not None else call()
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        if ledger is not None:
            ledger.uninstall()
    outcome.update(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=_peak_rss_mb(),
    )
    if ledger is not None:
        from ledger import check_accounting, layer_metrics

        outcome["layers"] = layer_metrics(ledger)
        outcome["accounting_problems"] = check_accounting(ledger)
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
