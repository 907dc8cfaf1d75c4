"""Run the full reproduction campaign and assemble ``EXPERIMENTS.md``.

A *campaign* is one pass over every registered table/figure reproduction
(:mod:`repro.experiments.registry`), each graded against the paper's claims
(:mod:`repro.analysis.comparison`).  The result can be rendered as the
markdown report the repository ships as ``EXPERIMENTS.md``: for every
experiment the paper's reported values, the measured values, and a claim-by-
claim agreement verdict.

Typical use::

    from repro.analysis.campaign import run_campaign, campaign_to_markdown

    campaign = run_campaign(scale="reduced", jobs=4, cache_dir=".repro-cache")
    print(campaign.summary_rows())
    open("EXPERIMENTS.md", "w").write(campaign_to_markdown(campaign))

or from the command line::

    repro-io campaign --scale reduced --jobs 4 --output EXPERIMENTS.md

Every result is persisted in a content-addressed cache
(:mod:`repro.runner.cache`) when ``cache_dir`` is given, so a repeated or
resumed campaign only re-runs what changed.  The rendered markdown is
deterministic by default (timing lines are opt-in), so a parallel campaign
produces byte-identical output to a serial one.

The joint plan
--------------
Every experiment that simulates is a staged computation
(:func:`repro.experiments.base.staged`): round 1 holds the runs that depend
on nothing (sweep baselines, traced runs), round 2 the runs derived from
them (Δ-points at delays set by the alone times, figure11's contended run).
At ``jobs=1`` the campaign gathers its pending experiments into one staged
computation (:func:`repro.core.delta.gather`), so it runs as two rounds.
Each round is one :func:`repro.model.batch.simulate_many` call, which drops
repeated ``(scenario, seed)`` requests — several figures measure the same
reference configuration — and runs the distinct ones in lockstep buckets
planned by platform and filesystem.  Records of experiments run together
share the joint run's wall time (:attr:`ExperimentRecord.wall_time`).  A
joint run targeted by a fault plan, or one that raises, is declined, and
the executor runs each experiment alone, so a failure names its
experiment.  With ``jobs > 1`` experiments fan out across worker processes
(:mod:`repro.runner.executor`); each worker runs its experiment's own
sweeps in the same two rounds, and repeats across workers are simulated
again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro._version import __version__
from repro.analysis.comparison import ClaimCheck, check_experiment
from repro.config.control import SteppingPolicy, stepping_policy
from repro.analysis.paper import EXPERIMENT_TITLES, paper_reference_tables
from repro.analysis.tables import rows_to_markdown
from repro.errors import ExperimentError
from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry
from repro.runner.cache import ResultCache, fingerprint
from repro.runner.chaos import get_fault_plan
from repro.runner.executor import TaskSpec, execute_cached

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.experiments.base import ExperimentResult

__all__ = [
    "ExperimentRecord",
    "CampaignResult",
    "run_campaign",
    "run_experiment_task",
    "run_joint_experiments",
    "campaign_to_markdown",
    "write_experiments_md",
]


@dataclass
class ExperimentRecord:
    """One experiment's outcome within a campaign.

    ``wall_time`` is the wall time of the run that computed the record.
    Experiments simulated together in one joint run (``joint``) all carry
    that run's wall time: it is their shared cost, not this experiment's.
    """

    experiment_id: str
    result: ExperimentResult
    checks: List[ClaimCheck]
    wall_time: float
    error: Optional[str] = None
    from_cache: bool = False
    joint: bool = False

    @property
    def n_claims(self) -> int:
        """Number of paper claims evaluated."""
        return len(self.checks)

    @property
    def n_agreeing(self) -> int:
        """Number of claims that agree with the paper."""
        return sum(1 for check in self.checks if check.passed)

    @property
    def title(self) -> str:
        """Human-readable experiment title."""
        return EXPERIMENT_TITLES.get(self.experiment_id, self.result.title)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable representation (what the runner cache stores);
        a joint record also carries ``"joint": true``."""
        payload: Dict[str, object] = {
            "experiment_id": self.experiment_id,
            "result": self.result.to_dict(),
            "checks": [check.to_dict() for check in self.checks],
            "wall_time": float(self.wall_time),
        }
        if self.joint:
            payload["joint"] = True
        return payload

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], from_cache: bool = False
    ) -> "ExperimentRecord":
        """Rebuild a record from :meth:`to_payload` output (or a worker's)."""
        from repro.experiments.base import ExperimentResult as _Result

        return cls(
            experiment_id=str(payload["experiment_id"]),
            result=_Result.from_dict(payload["result"]),
            checks=[ClaimCheck.from_dict(c) for c in payload["checks"]],
            wall_time=float(payload["wall_time"]),
            from_cache=from_cache,
            joint=bool(payload.get("joint", False)),
        )

    @property
    def runtime(self) -> str:
        """The wall time as reports print it: ``joint 9.3`` when shared."""
        return f"{'joint ' if self.joint else ''}{self.wall_time:.1f}"


@dataclass
class CampaignResult:
    """Outcome of one full reproduction campaign."""

    scale: str
    records: List[ExperimentRecord] = field(default_factory=list)
    started_at: float = 0.0
    wall_time: float = 0.0

    # ------------------------------------------------------------------ #

    @property
    def n_experiments(self) -> int:
        """Number of experiments that ran."""
        return len(self.records)

    @property
    def n_claims(self) -> int:
        """Total number of paper claims evaluated."""
        return sum(record.n_claims for record in self.records)

    @property
    def n_agreeing(self) -> int:
        """Total number of claims that agree with the paper."""
        return sum(record.n_agreeing for record in self.records)

    @property
    def n_cached(self) -> int:
        """Number of experiments served from the result cache."""
        return sum(1 for record in self.records if record.from_cache)

    def record(self, experiment_id: str) -> ExperimentRecord:
        """The record of one experiment."""
        for rec in self.records:
            if rec.experiment_id == experiment_id:
                return rec
        raise ExperimentError(f"campaign has no record for {experiment_id!r}")

    def summary_rows(self, include_timing: bool = True) -> List[Dict[str, object]]:
        """One row per experiment: title, claims evaluated/agreeing, runtime.

        ``include_timing=False`` drops the runtime column, making the rows
        deterministic across runs (used by the markdown report so serial and
        parallel campaigns render byte-identically).
        """
        rows = []
        for rec in self.records:
            row: Dict[str, object] = {
                "experiment": rec.experiment_id,
                "paper reference": rec.result.paper_reference,
                "claims agreeing": f"{rec.n_agreeing}/{rec.n_claims}",
            }
            if include_timing:
                row["runtime (s)"] = rec.runtime
            rows.append(row)
        return rows

    def describe(self) -> str:
        """One-paragraph plain-text summary."""
        cached = f" ({self.n_cached} from cache)" if self.n_cached else ""
        return (
            f"campaign at scale {self.scale!r}: {self.n_experiments} experiments"
            f"{cached}, {self.n_agreeing}/{self.n_claims} paper claims reproduced, "
            f"{self.wall_time:.0f}s wall time"
        )


def run_experiment_task(payload: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """Executor worker (task kind ``experiment``): run and grade one experiment.

    Payload keys: ``experiment_id``, ``scale``, ``quick`` and optionally
    ``stepping`` (a serialized
    :class:`~repro.config.control.SteppingPolicy` applied as the process
    default while the experiment runs).  Returns the
    :meth:`ExperimentRecord.to_payload` form, so the transported/cached
    shape and the record class cannot drift apart.
    """
    from repro.experiments.registry import get_experiment  # see run_campaign

    policy = payload.get("stepping")
    policy = None if policy is None else SteppingPolicy.from_dict(policy)
    entry = get_experiment(payload["experiment_id"])
    start = time.perf_counter()
    with stepping_policy(policy):
        result = entry.run(scale=payload["scale"], quick=payload["quick"])
        checks = check_experiment(result)
    record = ExperimentRecord(
        experiment_id=entry.experiment_id,
        result=result,
        checks=checks,
        wall_time=time.perf_counter() - start,
    )
    return record.to_payload()


def run_joint_experiments(
    pending: Sequence[TaskSpec], policy: Optional[SteppingPolicy]
) -> Dict[str, Dict[str, Any]]:
    """Batch runner of a ``jobs=1`` campaign: simulate the pending staged
    experiments together, two rounds in all.

    Gathers every pending experiment whose entry is staged into one staged
    computation and drives it under ``policy``; each round is one
    :func:`~repro.model.batch.simulate_many` call, so a request that several
    experiments make is simulated once.  Returns the
    :meth:`ExperimentRecord.to_payload` form of each, every record carrying
    the joint run's wall time.  Declines (returns ``{}``) when fewer than
    two pending experiments are staged, when a fault plan targets any of
    them, or when the joint run raises: the executor then runs each
    experiment alone, so a failure names its experiment.
    """
    from repro.core.delta import gather, run_staged
    from repro.experiments.registry import get_experiment

    entries = [(task, get_experiment(task.payload["experiment_id"])) for task in pending]
    entries = [(task, entry) for task, entry in entries if hasattr(entry.runner, "stages")]
    plan = get_fault_plan()
    targeted = plan is not None and any(
        spec.match in task.task_id for spec in plan.faults for task, _ in entries
    )
    if len(entries) < 2 or targeted:
        return {}
    telemetry = get_telemetry()
    start = time.perf_counter()
    try:
        with telemetry.span(f"joint:{len(entries)}", category="bucket", track="tasks",
                            experiments=len(entries)), stepping_policy(policy):
            results = run_staged(gather(
                entry.runner.stages(scale=task.payload["scale"], quick=task.payload["quick"])
                for task, entry in entries
            ))
            checks = [check_experiment(result) for result in results]
    except Exception as exc:
        # Each experiment then runs alone, where a failure names it.
        get_logger().warn("joint_run_declined", experiments=len(entries), error=repr(exc))
        return {}
    wall_time = time.perf_counter() - start
    if telemetry.enabled:
        # Zero-length member spans, as a matrix bucket's members get: the
        # joint span alone claims the wall time.
        for task, _ in entries:
            telemetry.add_span(task.task_id, "task", telemetry.now_us(), 0.0,
                               track="tasks", args={"kind": task.kind, "joint": True})
    return {
        task.task_id: ExperimentRecord(
            experiment_id=entry.experiment_id,
            result=result,
            checks=check,
            wall_time=wall_time,
            joint=True,
        ).to_payload()
        for (task, entry), result, check in zip(entries, results, checks)
    }


def run_campaign(
    scale: str = "reduced",
    quick: bool = False,
    experiments: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str, ExperimentRecord], None]] = None,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    stepping: Optional[SteppingPolicy] = None,
) -> CampaignResult:
    """Run every (or a subset of the) table/figure reproduction and grade it.

    Parameters
    ----------
    scale:
        Scale preset passed to each experiment (``"tiny"``, ``"reduced"``,
        ``"paper"``).
    quick:
        Use each experiment's reduced sweep-point count.
    experiments:
        Optional explicit list of experiment ids; defaults to all registered
        experiments in presentation order.
    progress:
        Optional callback invoked as ``progress(experiment_id, record)`` after
        each experiment completes (used by the CLI to stream status lines).
        Under ``jobs > 1`` it fires in completion order; the campaign's
        ``records`` always keep presentation order.
    jobs:
        Worker processes to fan the experiments across.  At 1 the pending
        staged experiments run together in-process
        (:func:`run_joint_experiments`), the rest one by one.  Experiments
        run under the executor's strict default policy: the first
        experiment that fails (including one hit by a ``REPRO_CHAOS`` fault
        plan) stops the campaign with :class:`~repro.errors.ExperimentError`
        naming it.
    cache_dir:
        When given, completed experiments are stored in (and served from) a
        content-addressed cache there, keyed by
        ``(experiment_id, scale, quick, overrides, version)`` — so repeating
        or resuming a killed campaign only re-runs what is missing.
    stepping:
        Optional :class:`~repro.config.control.SteppingPolicy` applied to
        every simulation of the campaign (the experiments build their
        scenarios internally, so the policy travels as the process-wide
        default — set in each worker).  Non-default policies are part of the
        cache fingerprint, so fixed and adaptive results never mix.
    """
    # Imported here (not at module level) so that `import repro.analysis`
    # does not drag every experiment module in — and so that the experiment
    # package, which itself uses repro.analysis helpers, can be imported
    # first without creating an import cycle.
    from repro.experiments.registry import get_experiment, list_experiments

    ids = (
        [get_experiment(e).experiment_id for e in experiments]
        if experiments is not None
        else [entry.experiment_id for entry in list_experiments()]
    )
    campaign = CampaignResult(scale=scale, started_at=time.time())
    t0 = time.perf_counter()

    cache = ResultCache(cache_dir) if cache_dir else None
    # An explicit fixed policy is the default behaviour (tolerance/max_dt are
    # ignored outside adaptive mode): normalize it to None so it shares the
    # default cache fingerprint instead of re-simulating everything.
    if stepping is not None and not stepping.is_adaptive:
        stepping = None
    stepping_dict = None if stepping is None else stepping.to_dict()
    overrides = {} if stepping is None else {"stepping": stepping_dict}
    tasks = [
        TaskSpec(
            task_id=experiment_id,
            kind="experiment",
            payload={"experiment_id": experiment_id, "scale": scale, "quick": quick,
                     "stepping": stepping_dict},
        )
        for experiment_id in ids
    ]

    records: Dict[str, ExperimentRecord] = {}

    def on_result(task: TaskSpec, payload: Dict[str, object], from_cache: bool) -> None:
        record = ExperimentRecord.from_payload(payload, from_cache=from_cache)
        records[task.task_id] = record
        if progress is not None:
            progress(task.task_id, record)

    execute_cached(
        tasks,
        jobs=jobs,
        cache=cache,
        fingerprint_for=lambda task: fingerprint(
            task.task_id, scale, quick, overrides=overrides
        ),
        key_material_for=lambda task: {"experiment_id": task.task_id, "scale": scale,
                                       "quick": quick, "overrides": overrides,
                                       "version": __version__},
        progress=on_result,
        batch_runner=(
            (lambda pending: run_joint_experiments(pending, stepping))
            if jobs == 1 else None
        ),
    )

    campaign.records = [records[experiment_id] for experiment_id in ids]
    campaign.wall_time = time.perf_counter() - t0
    return campaign


# --------------------------------------------------------------------------- #
# Markdown rendering
# --------------------------------------------------------------------------- #


_PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Reproduction report for *On the Root Causes of Cross-Application I/O
Interference in HPC Storage Systems* (Yildiz, Dorier, Ibrahim, Ross, Antoniu —
IPDPS 2016), generated by `repro-io campaign` (repro version {version}).

The paper's campaign ran on Grid'5000 (2 x 480 cores against a 12-server
OrangeFS deployment); this repository replays every experiment against the
simulated I/O path described in `DESIGN.md`.  Absolute write times therefore
differ from the paper's — the comparison targets the *shape* of each result:
which configuration wins, by roughly what factor, whether the Δ-graph is
triangular/flat/asymmetric, and where the qualitative crossovers fall.
All runs below use the `{scale}` scale preset (see `repro.config.presets`).

Regenerate with:

```bash
repro-io campaign --scale {scale} --output EXPERIMENTS.md
# or, per experiment:
pytest benchmarks/ --benchmark-only
```
"""


def campaign_to_markdown(campaign: CampaignResult, include_timing: bool = False) -> str:
    """Render a campaign as the EXPERIMENTS.md document.

    Timing lines are opt-in (``include_timing=True``): the default report is
    fully deterministic, so serial, parallel, and cache-served campaigns all
    render byte-identical markdown.
    """
    lines: List[str] = [
        _PREAMBLE.format(version=__version__, scale=campaign.scale),
        "## Summary",
        "",
        f"- experiments reproduced: **{campaign.n_experiments}**",
        f"- paper claims evaluated: **{campaign.n_claims}**, agreeing: "
        f"**{campaign.n_agreeing}**",
    ]
    if include_timing:
        lines.append(f"- campaign wall time: {campaign.wall_time:.0f} s")
    lines += [
        "",
        rows_to_markdown(campaign.summary_rows(include_timing=include_timing)),
        "",
    ]

    reference = paper_reference_tables()
    for record in campaign.records:
        result = record.result
        lines.append(f"## {record.title}")
        lines.append("")
        runtime = f"; runtime {record.runtime} s" if include_timing else ""
        lines.append(f"*Paper reference: {result.paper_reference}{runtime}.*")
        lines.append("")

        # Paper-reported quantitative values, when we have them.
        if record.experiment_id == "table1":
            lines.append("Paper-reported values (Table I):")
            lines.append("")
            lines.append(rows_to_markdown(reference["table1"]))
            lines.append("")
        if record.experiment_id == "figure6":
            lines.append("Paper-reported values (Table II):")
            lines.append("")
            lines.append(rows_to_markdown(reference["table2"]))
            lines.append("")

        # Measured tables.
        for name, rows in result.tables.items():
            lines.append(f"Measured — `{name}`:")
            lines.append("")
            lines.append(rows_to_markdown(rows))
            lines.append("")

        # Headline sweep metrics, if any sweeps were recorded.
        if result.sweeps:
            sweep_rows = []
            for name, sweep in result.sweeps.items():
                sweep_rows.append(
                    {
                        "sweep": name,
                        "peak interference factor": round(sweep.peak_interference_factor(), 2),
                        "asymmetry index": round(sweep.asymmetry_index(), 3),
                        "flat": sweep.is_flat(),
                        "window collapses": sweep.total_collapses(),
                    }
                )
            lines.append("Δ-graph headline metrics:")
            lines.append("")
            lines.append(rows_to_markdown(sweep_rows))
            lines.append("")

        # Claim-by-claim agreement.
        if record.checks:
            lines.append("Agreement with the paper:")
            lines.append("")
            claim_rows = []
            for check in record.checks:
                claim_rows.append(
                    {
                        "claim": check.claim.statement,
                        "agrees": check.passed,
                        "measured": check.detail,
                    }
                )
            lines.append(rows_to_markdown(claim_rows, columns=["claim", "agrees", "measured"]))
            lines.append("")

        for note in result.notes:
            lines.append(f"> {note}")
            lines.append("")

    return "\n".join(lines)


def write_experiments_md(
    path: str, campaign: CampaignResult, include_timing: bool = False
) -> str:
    """Write the campaign report to ``path`` and return the rendered text."""
    text = campaign_to_markdown(campaign, include_timing=include_timing)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
