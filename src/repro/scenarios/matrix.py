"""The interference-matrix campaign: all pairs of workload archetypes.

For N specs the campaign runs N *alone* simulations plus N·(N+1)/2
*pair* simulations (unordered pairs including the self-pair), served from
the content-addressed result cache on repeats.  The misses run as
``bucket`` work units (:func:`run_matrix_tasks`): lockstep buckets of many
runs, and width-1 units for the runs of a demoted bucket, under
``--no-batch`` and for a lone miss, mapped by
:class:`repro.runner.executor.ParallelExecutor` in-process or across
worker processes.  From those runs it fills the full NxN ordered matrix:
cell ``(a, b)`` is the slowdown of ``a`` co-running with ``b``, read from
the unordered pair run (the mirror cell reads the other side of the same
run).

Everything the campaign produces is deterministic — per-task seeds derive
from the spec identities, reports carry no timestamps, and the stored
``matrix.json`` manifest is pinned — so a warm-cache re-run is a 100% cache
hit with byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro._version import __version__
from repro.analysis.interference import (
    attribute_pair,
    dilation,
    pair_asymmetry,
    slowdown,
)
from repro.config.control import SteppingPolicy
from repro.core.delta import jsonify
from repro.errors import AnalysisError, ConfigurationError, ExperimentError
from repro.obs.telemetry import get_telemetry
from repro.runner.cache import ResultCache, fingerprint_payload
from repro.runner.executor import TaskSpec, execute_cached
from repro.scenarios.spec import BuiltScenario, ScenarioSpec, build_scenario
from repro.sim.tracing import UNTRACED

__all__ = [
    "PairCell",
    "InterferenceMatrix",
    "explain_matrix_buckets",
    "matrix_artifacts",
    "rerun_matrix_document",
    "run_interference_matrix",
    "run_matrix_tasks",
    "matrix_fingerprint",
    "matrix_run_id",
    "store_matrix",
]

#: Deployment knobs a matrix run shares across every simulation; everything
#: here is part of each task's cache fingerprint.
_OPTION_DEFAULTS: Dict[str, Any] = {
    "device": "hdd",
    "sync_mode": "sync-on",
    "network": "10g",
    "stripe_kib": 64.0,
    "delay": 0.0,
    "seed": None,
}


def _normalize_options(options: Dict[str, Any]) -> Dict[str, Any]:
    unknown = sorted(set(options) - set(_OPTION_DEFAULTS))
    if unknown:
        raise ConfigurationError(
            f"unknown matrix options {unknown}; available: "
            f"{sorted(_OPTION_DEFAULTS)}"
        )
    merged = dict(_OPTION_DEFAULTS)
    merged.update(options)
    merged["stripe_kib"] = float(merged["stripe_kib"])
    merged["delay"] = float(merged["delay"])
    if merged["seed"] is not None:
        merged["seed"] = int(merged["seed"])
    return merged


# --------------------------------------------------------------------------- #
# Result types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PairCell:
    """Outcome of one unordered pair run (``a`` starts first)."""

    a: str
    b: str
    alone_a: float
    alone_b: float
    pair_a: float
    pair_b: float
    makespan: float
    window_collapses: int
    root_cause: str
    root_cause_scores: Dict[str, float] = field(default_factory=dict)

    @property
    def slowdown_a(self) -> float:
        """Slowdown of workload ``a`` in this pairing."""
        return slowdown(self.pair_a, self.alone_a)

    @property
    def slowdown_b(self) -> float:
        """Slowdown of workload ``b`` in this pairing."""
        return slowdown(self.pair_b, self.alone_b)

    @property
    def dilation(self) -> float:
        """Makespan of the pair over the longer alone phase."""
        return dilation(self.makespan, self.alone_a, self.alone_b)

    @property
    def asymmetry(self) -> float:
        """Positive when ``a`` suffers more than ``b``."""
        return pair_asymmetry(self.slowdown_a, self.slowdown_b)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "a": self.a,
            "b": self.b,
            "alone_a": float(self.alone_a),
            "alone_b": float(self.alone_b),
            "pair_a": float(self.pair_a),
            "pair_b": float(self.pair_b),
            "makespan": float(self.makespan),
            "window_collapses": int(self.window_collapses),
            "root_cause": self.root_cause,
            "root_cause_scores": {
                k: float(v) for k, v in sorted(self.root_cause_scores.items())
            },
            # Derived, stored for human readers of matrix.json only:
            "slowdown_a": float(self.slowdown_a),
            "slowdown_b": float(self.slowdown_b),
            "dilation": float(self.dilation),
            "asymmetry": float(self.asymmetry),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PairCell":
        """Rebuild a cell from :meth:`to_dict` output (derived fields recompute)."""
        return cls(
            a=str(data["a"]),
            b=str(data["b"]),
            alone_a=float(data["alone_a"]),
            alone_b=float(data["alone_b"]),
            pair_a=float(data["pair_a"]),
            pair_b=float(data["pair_b"]),
            makespan=float(data["makespan"]),
            window_collapses=int(data["window_collapses"]),
            root_cause=str(data["root_cause"]),
            root_cause_scores={
                str(k): float(v)
                for k, v in dict(data.get("root_cause_scores", {})).items()
            },
        )


def _pair_key(a: str, b: str) -> str:
    return f"{a}|{b}"


@dataclass
class InterferenceMatrix:
    """The full all-pairs result: N alone baselines + N·(N+1)/2 pair cells."""

    scale: str
    names: List[str]
    alone: Dict[str, float]
    cells: Dict[str, PairCell]
    options: Dict[str, Any] = field(default_factory=dict)
    stepping: Optional[Dict[str, object]] = None
    specs: List[Dict[str, object]] = field(default_factory=list)
    #: Quarantined tasks (``TaskFailure.to_dict()`` records) from a
    #: supervised campaign that completed despite failures.  Empty on a
    #: clean run — and then omitted from :meth:`to_dict`, so fault-tolerant
    #: execution cannot perturb the bytes of a healthy ``matrix.json``.
    failed_tasks: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-task provenance (origin/wall time) gathered when telemetry is
    #: enabled.  Deliberately outside to_dict()/from_dict() and excluded
    #: from comparisons: it describes *this* execution, not the matrix, so
    #: fingerprints and warm-cache byte-identity are unaffected.
    task_records: Dict[str, Dict[str, Any]] = field(
        default_factory=dict, compare=False, repr=False
    )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def alone_time(self, name: str) -> float:
        """Interference-free phase time of one workload."""
        try:
            return self.alone[name]
        except KeyError as exc:
            raise AnalysisError(
                f"no alone baseline for {name!r}; have {sorted(self.alone)}"
            ) from exc

    def cell(self, a: str, b: str) -> PairCell:
        """The unordered pair cell covering ``a`` and ``b``."""
        found = self.cell_or_none(a, b)
        if found is None:
            raise AnalysisError(f"matrix has no cell for pair ({a!r}, {b!r})")
        return found

    def cell_or_none(self, a: str, b: str) -> Optional[PairCell]:
        """Like :meth:`cell` but ``None`` for a missing (quarantined) pair."""
        key = _pair_key(a, b)
        if key in self.cells:
            return self.cells[key]
        return self.cells.get(_pair_key(b, a))

    def slowdown_of(self, victim: str, aggressor: str) -> float:
        """Ordered lookup: slowdown of ``victim`` co-running with ``aggressor``."""
        cell = self.cell(victim, aggressor)
        return cell.slowdown_a if cell.a == victim else cell.slowdown_b

    def cells_in_order(self) -> List[PairCell]:
        """Cells in deterministic row-major (upper-triangle) order.

        Pairs lost to quarantine are skipped — a degraded matrix still
        renders and summarizes from whatever completed.
        """
        ordered = []
        for i, a in enumerate(self.names):
            for b in self.names[i:]:
                found = self.cell_or_none(a, b)
                if found is not None:
                    ordered.append(found)
        return ordered

    def worst_pair(self) -> PairCell:
        """The cell with the largest single-workload slowdown."""
        cells = self.cells_in_order()
        if not cells:
            raise AnalysisError("the matrix has no cells")
        return max(cells, key=lambda c: max(c.slowdown_a, c.slowdown_b))

    def to_rows(self) -> List[Dict[str, Any]]:
        """Flat ordered rows (CSV export): victim, aggressor, metrics."""
        rows = []
        for victim in self.names:
            for aggressor in self.names:
                cell = self.cell_or_none(victim, aggressor)
                if cell is None:
                    continue
                rows.append({
                    "victim": victim,
                    "aggressor": aggressor,
                    "slowdown": round(self.slowdown_of(victim, aggressor), 4),
                    "dilation": round(cell.dilation, 4),
                    "root_cause": cell.root_cause,
                })
        return rows

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        document = {
            "version": __version__,
            "scale": self.scale,
            "names": list(self.names),
            "alone": {k: float(v) for k, v in sorted(self.alone.items())},
            "cells": {k: self.cells[k].to_dict() for k in sorted(self.cells)},
            "options": jsonify(dict(self.options)),
            "stepping": self.stepping,
            "specs": list(self.specs),
        }
        if self.failed_tasks:
            document["failed_tasks"] = [dict(f) for f in self.failed_tasks]
        return document

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InterferenceMatrix":
        """Rebuild a matrix from :meth:`to_dict` output."""
        return cls(
            scale=str(data["scale"]),
            names=[str(n) for n in data["names"]],
            alone={str(k): float(v) for k, v in dict(data["alone"]).items()},
            cells={
                str(k): PairCell.from_dict(v)
                for k, v in dict(data["cells"]).items()
            },
            options=dict(data.get("options", {})),
            stepping=data.get("stepping"),
            specs=[dict(s) for s in data.get("specs", [])],
            failed_tasks=[dict(f) for f in data.get("failed_tasks", [])],
        )

    def regenerate_command(self) -> str:
        """The exact ``repro-io matrix`` invocation that reproduces this matrix.

        Includes every deployment knob that differs from the CLI defaults,
        so following the hint in a report never silently rebuilds a
        different matrix.
        """
        parts = [
            "repro-io matrix",
            f"--archetypes {','.join(self.names)}",
            f"--scale {self.scale}",
        ]
        flags = {"device": "--device", "sync_mode": "--sync",
                 "network": "--network", "delay": "--delay"}
        for option, flag in flags.items():
            value = self.options.get(option, _OPTION_DEFAULTS[option])
            if value != _OPTION_DEFAULTS[option]:
                parts.append(f"{flag} {value}")
        if self.stepping is not None:
            parts.append(f"--stepping {self.stepping.get('mode', 'adaptive')}")
            tolerance = self.stepping.get("tolerance")
            if tolerance is not None:
                parts.append(f"--step-tolerance {tolerance:g}")
        return " ".join(parts)

    def describe(self) -> str:
        """One-line summary for logs."""
        prefix = (
            f"interference matrix at scale {self.scale!r}: "
            f"{len(self.names)} archetypes, {len(self.cells)} pair runs"
        )
        if self.failed_tasks:
            prefix += f", {len(self.failed_tasks)} quarantined"
        if not self.cells:
            return prefix + ", no completed cells"
        worst = self.worst_pair()
        return (
            f"{prefix}, worst pair {worst.a}+{worst.b} "
            f"(slowdown {max(worst.slowdown_a, worst.slowdown_b):.2f}, "
            f"{worst.root_cause})"
        )


# --------------------------------------------------------------------------- #
# The runner of cache misses
# --------------------------------------------------------------------------- #


def _phase_time(result, names: Sequence[str]) -> float:
    """Phase time of one spec's group: first start to last completion."""
    apps = [result.applications[name] for name in names]
    return max(a.end_time for a in apps) - min(a.start_time for a in apps)


def _build_from_payload(payload: Dict[str, Any]) -> BuiltScenario:
    """The task's scenario, untraced: what the matrix keeps of a run (its
    payload and root-cause attribution) reads no trace recorder."""
    specs = [ScenarioSpec.from_dict(s) for s in payload["specs"]]
    options = payload["options"]
    stepping = payload.get("stepping")
    policy = None if stepping is None else SteppingPolicy.from_dict(stepping)
    from repro import units

    return build_scenario(
        specs,
        payload["scale"],
        device=options["device"],
        sync_mode=options["sync_mode"],
        network=options["network"],
        stripe_size=float(options["stripe_kib"]) * units.KiB,
        delay=float(options["delay"]),
        seed=options.get("seed"),
        stepping=policy,
        trace=UNTRACED,
    )


def _alone_payload_from_result(built: BuiltScenario, result) -> Dict[str, Any]:
    """The cached payload of one alone run."""
    return {
        "phase_time": float(_phase_time(result, built.groups[0])),
        "simulated_time": float(result.simulated_time),
        "n_steps": int(result.n_steps),
        "window_collapses": int(result.total_window_collapses()),
    }


def _pair_payload_from_result(built: BuiltScenario, result) -> Dict[str, Any]:
    """The cached payload of one pair run."""
    apps = list(result.applications.values())
    makespan = max(a.end_time for a in apps) - min(a.start_time for a in apps)
    root_cause, scores = attribute_pair(result)
    return {
        "phase_times": [
            float(_phase_time(result, group)) for group in built.groups
        ],
        "makespan": float(makespan),
        "simulated_time": float(result.simulated_time),
        "window_collapses": int(result.total_window_collapses()),
        "root_cause": root_cause,
        "root_cause_scores": {k: float(v) for k, v in sorted(scores.items())},
    }


#: Task kind -> payload extraction from the finished RunResult.  A task's
#: kind also namespaces its cache entries.
_PAYLOAD_EXTRACTORS: Dict[str, Callable[[BuiltScenario, Any], Dict[str, Any]]] = {
    "matrix-alone": _alone_payload_from_result,
    "matrix-pair": _pair_payload_from_result,
}


def run_matrix_tasks(
    pending: Sequence[TaskSpec],
    on_done: Callable[[TaskSpec, Dict[str, Any]], None],
    task_records: Optional[Dict[str, Dict[str, Any]]],
    *,
    jobs: int = 1,
    batch: bool = True,
    fault_policy=None,
    failures: Optional[Dict[str, Dict[str, Any]]] = None,
) -> None:
    """Runner of the matrix's cache misses (:func:`execute_cached`): every
    run is a ``bucket`` work unit.

    Builds every pending task's scenario.  With ``batch`` and at least two
    misses it first plans buckets with :func:`repro.model.batch.bucket_units`
    (each group of one transport and server configuration splits into
    ``jobs`` chunks, each run as a queue under the lane budget; mixed
    deployments, widths and stepping policies share a bucket) and maps each
    bucket as one unit, labelled with its members' task ids, through
    :class:`~repro.runner.executor.ParallelExecutor` — in-process at
    ``jobs=1``; otherwise ``jobs`` pool workers advance ``jobs`` batched
    kernels concurrently.  These units get no retries and a deadline of the
    campaign's per-task timeout (``fault_policy``, if any) times the widest
    bucket.  As each unit completes, each member's payload is extracted
    from its :class:`~repro.model.results.RunResult`
    (:data:`_PAYLOAD_EXTRACTORS`) and reported through ``on_done``.

    A bucket whose kernel raises (or whose worker dies, or whose member a
    chaos plan targets) is *demoted*: its members run alone afterwards, in
    task order, each as a width-1 unit — a batching bug degrades
    throughput, never correctness (``batch.demotions`` counts the members).
    So does every task under ``batch=False``, and a lone miss.  A width-1
    unit is named after its task id and carries no labels, so the executor
    injects chaos faults, retries it and quarantines it into ``failures``
    under ``fault_policy`` as a task of its own; a quarantine record keeps
    the task's matrix kind.  A member of a bucket is bitwise-equivalent to
    its run alone, so every route yields identical payloads (and therefore
    identical cache entries).

    Accounting: the executor records one ``bucket`` span per bucket unit,
    which carries the bucket's wall time, and one ``task`` span per width-1
    unit.  Each bucket member gets a zero-length ``task`` span tagged
    ``batched`` with its bucket, a ``task_records`` entry with
    ``wall_time_s`` 0 that names its bucket and the bucket's wall
    (``bucket_wall_s``), and one ``executor.tasks.completed`` count, so a
    bucket's wall is counted once, never once per member.
    """
    from repro.model.batch import bucket_units
    from repro.runner.executor import FaultPolicy, ParallelExecutor

    built = {task.task_id: _build_from_payload(task.payload) for task in pending}
    telemetry = get_telemetry()
    alone = list(pending)
    if batch and len(pending) >= 2:
        buckets, units = bucket_units(
            [(built[task.task_id].scenario, None) for task in pending], jobs,
            labels=[task.task_id for task in pending],
        )
        members = {
            unit.task_id: [pending[i] for i in bucket.indices]
            for bucket, unit in zip(buckets, units)
        }
        base_timeout = None if fault_policy is None else fault_policy.task_timeout_s
        widest = max(len(bucket.indices) for bucket in buckets)
        unit_policy = FaultPolicy(
            task_timeout_s=None if base_timeout is None else base_timeout * widest,
            max_retries=0,
            grace_s=5.0 if fault_policy is None else fault_policy.grace_s,
        )
        unit_records: Dict[str, Dict[str, Any]] = {}

        def on_unit(unit: TaskSpec, out: Dict[str, Any]) -> None:
            timing = unit_records[unit.task_id]
            # The executor keeps every output until the map returns: keep
            # none of the runs.
            for task, result in zip(members[unit.task_id], out.pop("results")):
                payload = _PAYLOAD_EXTRACTORS[task.kind](built[task.task_id], result)
                if telemetry.enabled:
                    telemetry.add_span(
                        task.task_id, "task", telemetry.now_us(), 0.0,
                        track="tasks",
                        args={"kind": task.kind, "batched": True,
                              "bucket": unit.task_id},
                    )
                    telemetry.count("executor.tasks.completed")
                if task_records is not None:
                    task_records[task.task_id] = {
                        "wall_time_s": 0.0,
                        "queue_wait_s": timing["queue_wait_s"],
                        "batched": True,
                        "bucket": unit.task_id,
                        "bucket_wall_s": timing["wall_time_s"],
                    }
                on_done(task, payload)

        failed: Dict[str, Dict[str, Any]] = {}
        ParallelExecutor(jobs=jobs, fault_policy=unit_policy).map(
            units, progress=on_unit, task_records=unit_records, failures=failed
        )
        demoted = {task.task_id for unit_id in failed for task in members[unit_id]}
        if demoted and telemetry.enabled:
            telemetry.count("batch.demotions", len(demoted))
        alone = [task for task in pending if task.task_id in demoted]

    by_id = {task.task_id: task for task in alone}

    def on_alone(unit: TaskSpec, out: Dict[str, Any]) -> None:
        task = by_id[unit.task_id]
        (result,) = out.pop("results")
        on_done(task, _PAYLOAD_EXTRACTORS[task.kind](built[task.task_id], result))

    ParallelExecutor(jobs=jobs, fault_policy=fault_policy).map(
        [
            TaskSpec(task.task_id, "bucket",
                     {"requests": [(built[task.task_id].scenario, None)]})
            for task in alone
        ],
        progress=on_alone, task_records=task_records, failures=failures,
    )
    for task_id, failure in (failures or {}).items():
        failure["kind"] = by_id[task_id].kind


# --------------------------------------------------------------------------- #
# The campaign
# --------------------------------------------------------------------------- #


def matrix_fingerprint(
    specs: Sequence[ScenarioSpec],
    scale: str,
    options: Dict[str, Any],
    stepping: Optional[Dict[str, object]],
) -> str:
    """Identity of a whole matrix run (names its stored run directory)."""
    return fingerprint_payload("interference-matrix", {
        "specs": [s.to_dict() for s in specs],
        "scale": str(scale),
        "options": jsonify(options),
        "stepping": stepping,
    })


def matrix_run_id(
    archetypes: Sequence[Union[str, ScenarioSpec]],
    scale: str = "tiny",
    *,
    stepping: Optional[SteppingPolicy] = None,
    **options: Any,
) -> str:
    """The run-directory id a matrix campaign will store under.

    Computable *before* the campaign runs (it hashes only inputs), which is
    what lets the CLI place the progress journal inside the eventual run
    directory and find it again for ``--resume``.  Matches
    :func:`store_matrix` exactly — both derive from
    :func:`matrix_fingerprint`.
    """
    specs = [ScenarioSpec.coerce(a) for a in archetypes]
    opts = _normalize_options(options)
    if stepping is not None and not stepping.is_adaptive:
        stepping = None
    stepping_dict = None if stepping is None else stepping.to_dict()
    fp = matrix_fingerprint(specs, scale, opts, stepping_dict)
    return f"matrix_{fp[:12]}"


def _matrix_task_list(
    specs: Sequence[ScenarioSpec],
    scale: str,
    opts: Dict[str, Any],
    stepping_dict: Optional[Dict[str, object]],
) -> Tuple[List[str], List[TaskSpec], List[Tuple[str, str]]]:
    """The campaign's task list: N alone runs plus N·(N+1)/2 unordered pairs.

    Shared by :func:`run_interference_matrix` and
    :func:`explain_matrix_buckets`, so the bucket-plan diagnostic always
    describes exactly the tasks the campaign would run.
    """
    names = [s.resolved_name for s in specs]
    if len(set(names)) != len(names):
        raise ExperimentError(
            f"duplicate workload names in matrix: {names}; give duplicate "
            "archetypes distinct ScenarioSpec names"
        )
    spec_by_name = dict(zip(names, specs))

    def make_task(task_id: str, kind: str, task_specs: List[ScenarioSpec]) -> TaskSpec:
        task_opts = dict(opts)
        if kind == "matrix-alone":
            # The pair delay cannot affect a single-workload run; normalizing
            # it keeps alone baselines cache-shared across delay sweeps.
            task_opts["delay"] = 0.0
        return TaskSpec(
            task_id=task_id,
            kind=kind,
            payload={
                "specs": [s.to_dict() for s in task_specs],
                "scale": str(scale),
                "options": task_opts,
                "stepping": stepping_dict,
            },
        )

    tasks: List[TaskSpec] = []
    for name in names:
        tasks.append(make_task(f"alone:{name}", "matrix-alone", [spec_by_name[name]]))
    pair_ids: List[Tuple[str, str]] = []
    for i, a in enumerate(names):
        for b in names[i:]:
            pair_ids.append((a, b))
            tasks.append(
                make_task(
                    f"pair:{a}+{b}", "matrix-pair",
                    [spec_by_name[a], spec_by_name[b]],
                )
            )
    return names, tasks, pair_ids


def explain_matrix_buckets(
    archetypes: Sequence[Union[str, ScenarioSpec]],
    scale: str = "tiny",
    *,
    stepping: Optional[SteppingPolicy] = None,
    **options: Any,
) -> str:
    """Render the bucket plan ``repro-io perf --explain-buckets`` prints.

    Builds exactly the task list :func:`run_interference_matrix` would run,
    plans buckets the way the batched route does at ``--jobs 1``, and
    reports per bucket its width (members), connection lanes, the set of
    its members' resolved steps, the live-lane budget it runs under (a
    bucket wider than the budget refills as its runs finish) and the set of
    admission-group widths that pad together.
    """
    from repro.model.batch import _BUCKET_LANES, group_widths, plan_buckets

    specs = [ScenarioSpec.coerce(a) for a in archetypes]
    if len(specs) < 2:
        raise ExperimentError(
            "an interference matrix needs at least two archetypes"
        )
    opts = _normalize_options(options)
    if stepping is not None and not stepping.is_adaptive:
        stepping = None
    stepping_dict = None if stepping is None else stepping.to_dict()
    names, tasks, _ = _matrix_task_list(specs, scale, opts, stepping_dict)
    built = [_build_from_payload(t.payload) for t in tasks]
    buckets, _ = plan_buckets([b.scenario for b in built])

    lines = [
        f"bucket plan: {len(tasks)} tasks over {'+'.join(names)} @ {scale} "
        f"-> {len(buckets)} buckets"
    ]
    for k, bucket in enumerate(buckets):
        scenarios = [built[i].scenario for i in bucket.indices]
        groups = [group_widths(s) for s in scenarios]
        widths = sorted({w for group in groups for w in group})
        steps = sorted({
            s.control.resolve_step(s.estimate_duration()) for s in scenarios
        })
        padded = "padded" if len(widths) > 1 else "uniform"
        lanes = sum(map(sum, groups))
        refill = " (refills)" if lanes > _BUCKET_LANES else ""
        lines.append(
            f"  bucket[{k}]  B={len(bucket.indices)}  "
            f"lanes={lanes}  "
            f"steps={{{','.join(f'{dt:.6g}' for dt in steps)}}}s  "
            f"live<={_BUCKET_LANES}{refill}  "
            f"group_widths={{{','.join(str(w) for w in widths)}}} ({padded})"
        )
        lines.append(
            "    members: "
            + ", ".join(tasks[i].task_id for i in bucket.indices)
        )
    return "\n".join(lines)


def run_interference_matrix(
    archetypes: Sequence[Union[str, ScenarioSpec]],
    scale: str = "tiny",
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    stepping: Optional[SteppingPolicy] = None,
    progress: Optional[Callable[[str, bool], None]] = None,
    batch: bool = True,
    fault_policy=None,
    journal=None,
    **options: Any,
) -> InterferenceMatrix:
    """Run the all-pairs interference campaign over the given archetypes.

    Parameters
    ----------
    archetypes:
        At least two archetype names (or ready specs).  Duplicate instance
        names are rejected — name specs explicitly to pair an archetype with
        a differently-tuned copy of itself.
    scale:
        Scale preset for every run (default ``tiny``: the matrix multiplies
        run counts, so the conservative scale is the default).
    jobs:
        Worker processes for the executor (alone and pair runs are
        independent tasks).
    batch:
        Run cache misses in lockstep buckets of many runs
        (:mod:`repro.model.batch`).  With ``jobs > 1`` each planned bucket
        becomes one pool work unit, and a deployment's tasks split into at
        least ``jobs`` buckets, so ``N`` workers advance ``N`` batched
        kernels concurrently — the two multipliers compose.  Disable to run
        every task as a width-1 bucket of its own, on the same route;
        results are bitwise identical either way.
    cache_dir:
        When given, every task is served from / stored into the
        content-addressed cache — a repeated matrix is a 100% cache hit.
    stepping:
        Optional stepping policy for every simulation; non-default policies
        join each task's cache fingerprint.
    progress:
        Optional callback ``progress(task_id, from_cache)`` per finished task.
    fault_policy:
        Optional :class:`~repro.runner.executor.FaultPolicy`.  With one the
        campaign is *fault tolerant*: failing tasks retry with backoff,
        deadline overruns are interrupted, broken pools are rebuilt, and
        tasks that exhaust their retries are quarantined — the campaign
        completes and the returned matrix carries their
        :attr:`~InterferenceMatrix.failed_tasks` records (pair cells that
        lost a run, or either alone baseline, are simply absent).  Without
        one the executor's strict default applies: the first failing task
        raises :class:`~repro.errors.ExperimentError`.
    journal:
        Optional :class:`~repro.runner.journal.ProgressJournal`; every task
        completion and quarantined failure appends one line, making an
        interrupted campaign resumable.
    **options:
        Deployment knobs shared by every run: ``device``, ``sync_mode``,
        ``network``, ``stripe_kib``, ``delay`` (start offset of the second
        workload of each pair), ``seed``.
    """
    specs = [ScenarioSpec.coerce(a) for a in archetypes]
    if len(specs) < 2:
        raise ExperimentError(
            "an interference matrix needs at least two archetypes"
        )
    opts = _normalize_options(options)

    # Normalize an explicit fixed policy to None so it shares the default
    # cache fingerprint (mirrors run_campaign).
    if stepping is not None and not stepping.is_adaptive:
        stepping = None
    stepping_dict = None if stepping is None else stepping.to_dict()

    cache = ResultCache(cache_dir) if cache_dir else None
    names, tasks, pair_ids = _matrix_task_list(specs, scale, opts, stepping_dict)

    def fingerprint_for(task: TaskSpec) -> str:
        return fingerprint_payload(task.kind, {
            "specs": task.payload["specs"],
            "scale": task.payload["scale"],
            "options": jsonify(task.payload["options"]),
            "stepping": task.payload["stepping"],
        })

    def key_material_for(task: TaskSpec) -> Dict[str, Any]:
        # The task's own (normalized) options — not the campaign-level ones —
        # so the recorded key always matches what the fingerprint hashed.
        return {"task_id": task.task_id, "kind": task.kind,
                "scale": task.payload["scale"],
                "options": jsonify(task.payload["options"]),
                "stepping": task.payload["stepping"],
                "specs": task.payload["specs"]}

    def on_result(task: TaskSpec, payload: Dict[str, Any], from_cache: bool) -> None:
        if progress is not None:
            progress(task.task_id, from_cache)

    telemetry = get_telemetry()
    task_records: Optional[Dict[str, Dict[str, Any]]] = (
        {} if telemetry.enabled else None
    )

    failures: Optional[Dict[str, Dict[str, Any]]] = (
        {} if fault_policy is not None else None
    )

    def run(pending: List[TaskSpec], on_done) -> None:
        run_matrix_tasks(
            pending, on_done, task_records, jobs=jobs, batch=batch,
            fault_policy=fault_policy, failures=failures,
        )

    with telemetry.span(
        f"matrix:{scale}",
        category="campaign",
        archetypes=",".join(names),
        n_tasks=len(tasks),
        jobs=jobs,
    ):
        results = execute_cached(
            tasks,
            run,
            cache=cache,
            fingerprint_for=fingerprint_for,
            key_material_for=key_material_for,
            progress=on_result,
            task_records=task_records,
            failures=failures,
            journal=journal,
        )

    # Assemble from whatever completed: a quarantined alone run drops its
    # baseline (and every cell that needs it); a quarantined pair run drops
    # just that cell.  A clean run takes the exact same path with nothing
    # missing, so tolerance costs no bytes in the output.
    alone = {
        name: float(results[f"alone:{name}"]["phase_time"])
        for name in names
        if f"alone:{name}" in results
    }
    cells: Dict[str, PairCell] = {}
    for a, b in pair_ids:
        payload = results.get(f"pair:{a}+{b}")
        if payload is None or a not in alone or b not in alone:
            continue
        phase_a, phase_b = payload["phase_times"]
        cells[_pair_key(a, b)] = PairCell(
            a=a,
            b=b,
            alone_a=alone[a],
            alone_b=alone[b],
            pair_a=float(phase_a),
            pair_b=float(phase_b),
            makespan=float(payload["makespan"]),
            window_collapses=int(payload["window_collapses"]),
            root_cause=str(payload["root_cause"]),
            root_cause_scores={
                str(k): float(v)
                for k, v in dict(payload.get("root_cause_scores", {})).items()
            },
        )

    failed_tasks = (
        [failures[task_id] for task_id in sorted(failures)] if failures else []
    )
    return InterferenceMatrix(
        scale=str(scale),
        names=names,
        alone=alone,
        cells=cells,
        options=opts,
        stepping=stepping_dict,
        specs=[s.to_dict() for s in specs],
        task_records=task_records or {},
        failed_tasks=failed_tasks,
    )


def matrix_artifacts(matrix: InterferenceMatrix) -> Dict[str, str]:
    """The byte-exact deterministic artifact texts of one matrix run.

    ``matrix.json`` is the machine-readable document; ``EXPERIMENTS.md`` is
    the marker-delimited report section exactly as
    :func:`repro.analysis.interference.update_experiments_section` would
    splice it into a report file.  :func:`store_matrix` persists these and
    ``repro-io reproduce`` regenerates them from a re-executed matrix —
    sharing this one function is what makes the byte-for-byte comparison
    meaningful rather than a test of two renderers.
    """
    import json

    from repro.analysis.interference import (
        MATRIX_SECTION_BEGIN,
        MATRIX_SECTION_END,
        matrix_report_markdown,
    )

    section = matrix_report_markdown(matrix)
    return {
        "matrix.json": json.dumps(matrix.to_dict(), indent=2, sort_keys=True)
        + "\n",
        "EXPERIMENTS.md": f"{MATRIX_SECTION_BEGIN}\n{section}\n"
                          f"{MATRIX_SECTION_END}\n",
    }


def rerun_matrix_document(
    document: Dict[str, object],
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch: bool = True,
    progress: Optional[Callable[[str, bool], None]] = None,
) -> InterferenceMatrix:
    """Re-derive and re-execute the task list of a stored ``matrix.json``.

    The stored document carries everything that determined the original
    campaign — serialized specs, scale, deployment options, stepping policy
    — so the reconstructed task list is fingerprint-identical to the
    original's and a warm cache serves every task.  This is the execution
    half of ``repro-io reproduce``: the returned matrix feeds
    :func:`matrix_artifacts` for the byte-for-byte comparison.
    """
    stored = InterferenceMatrix.from_dict(document)
    specs = [ScenarioSpec.from_dict(s) for s in stored.specs]
    if not specs:
        raise AnalysisError(
            "stored matrix document carries no specs; it predates spec "
            "serialization and cannot be re-executed"
        )
    policy = (
        None if stored.stepping is None
        else SteppingPolicy.from_dict(stored.stepping)
    )
    return run_interference_matrix(
        specs,
        stored.scale,
        jobs=jobs,
        cache_dir=cache_dir,
        stepping=policy,
        progress=progress,
        batch=batch,
        **stored.options,
    )


def store_matrix(
    matrix: InterferenceMatrix,
    store_dir: str,
    telemetry=None,
) -> str:
    """Persist ``matrix.json`` + ``EXPERIMENTS.md`` as a verifiable run dir.

    The run id derives from the matrix fingerprint and the manifest
    timestamp is pinned to zero, so re-running an identical matrix rewrites
    the directory byte-identically (the warm-cache acceptance property).
    Returns the run directory path.

    With a live ``telemetry`` registry (the one the campaign ran under), the
    run directory additionally carries the schema-validated
    ``telemetry.json`` document and ``telemetry_events.jsonl`` log, and the
    manifest records per-task provenance — those describe one concrete
    execution, so a telemetry-carrying run dir is *not* expected to be
    byte-stable across reruns (the default path is unchanged).
    """
    import json

    from repro.runner.store import (
        TELEMETRY_DOCUMENT_ARTIFACT,
        TELEMETRY_EVENTS_ARTIFACT,
        RunStore,
    )

    specs = [ScenarioSpec.from_dict(s) for s in matrix.specs]
    fp = matrix_fingerprint(specs, matrix.scale, matrix.options, matrix.stepping)
    run_id = f"matrix_{fp[:12]}"
    seed = matrix.options.get("seed")
    artifacts = dict(matrix_artifacts(matrix))
    tasks = None
    if telemetry is not None and telemetry.enabled:
        from repro.obs.schema import validate_telemetry_document

        document = telemetry.to_document(run_id=run_id)
        validate_telemetry_document(document)
        artifacts[TELEMETRY_DOCUMENT_ARTIFACT] = (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        artifacts[TELEMETRY_EVENTS_ARTIFACT] = telemetry.events_jsonl()
        tasks = {
            task_id: {
                **record,
                "wall_time_s": round(float(record.get("wall_time_s", 0.0)), 6),
                "queue_wait_s": round(float(record.get("queue_wait_s", 0.0)), 6),
            }
            for task_id, record in matrix.task_records.items()
        }
    run_path = RunStore(store_dir).write_run(
        run_id,
        seed=0 if seed is None else int(seed),
        config=jsonify({
            "scale": matrix.scale,
            "archetypes": list(matrix.names),
            "options": dict(matrix.options),
            "stepping": matrix.stepping,
        }),
        artifacts=artifacts,
        timestamp=0.0,
        tasks=tasks,
    )
    return str(run_path)
