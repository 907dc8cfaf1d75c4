"""Outside-in per-layer ledger for the repro-io benchmark.

The ledger wraps the public entry points of every layer of the program from
the benchmark's own code, so nothing under ``src/`` changes.  Each wrapped
call is a span: its duration is added to its *key* (inclusive time and call
count) and its duration minus the wrapped calls inside it is added to its
*layer* (self time).  Summed over every layer, self time equals the time the
outermost wrapped calls cover, so

    wall = sum(self time of every layer) + unattributed

holds by construction; :func:`check_accounting` verifies it on a finished
run.  Counters (engine events, server commits, bucket widths, ...) are taken
from the arguments and results of the same calls.

Usage::

    ledger = Ledger()
    ledger.install()          # after every ``repro`` module is imported
    try:
        wall = ledger.measure(run_the_workload)
    finally:
        ledger.uninstall()
    metrics = layer_metrics(ledger)
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers whose self time the ledger reports as ``self.<layer>_s``.  The
#: seven kernel phases are layers too; they are reported as ``phase.*_s``.
LAYERS = (
    "scenarios", "batch.plan", "batch.control", "batch.kernel", "simulator",
    "engine", "core", "experiments", "analysis.attribute", "analysis.render",
    "executor", "cache", "store", "journal", "obs",
)

#: Counts that must repeat exactly across runs of one workload and seed.
DETERMINISTIC_COUNTS = (
    "batch.ticks", "batch.member_steps", "simulator.steps",
    "pfs.server_commits", "engine.events", "cache.puts",
)

EXPERIMENT_IDS = (
    "table1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
)


class Ledger:
    """Span stack, per-layer self time, per-key inclusive time and counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        # Child-time accumulators, one per open span; the bottom entry
        # collects the outermost spans of a measured region.
        self._stack: List[float] = [0.0]
        #: Duration of the most recent call per key (read by ``after`` hooks).
        self.last_s: Dict[str, float] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------- #

    def span(
        self,
        key: str,
        layer: str,
        fn: Callable,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Wrap ``fn`` as a span of ``layer`` recorded under ``key``.

        ``before(*args, **kwargs)`` runs outside the timed region and its
        return value is handed to ``after(token, result, *args, **kwargs)``,
        which runs after the span closes and only if the call returned.
        """
        clock = time.perf_counter
        stack = self._stack
        self_s, total_s, calls, last_s = (
            self.self_s, self.total_s, self.calls, self.last_s)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                child = stack.pop()
                stack[-1] += duration
                self_s[layer] += duration - child
                total_s[key] += duration
                last_s[key] = duration
                calls[key] += 1
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count its calls under ``key`` without timing it."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def measure(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the measured region; its wall time is ``wall_s``."""
        self._stack[:] = [0.0]
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall_s = time.perf_counter() - t0

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - self._stack[0]

    # -- patching ------------------------------------------------------- #

    def patch_method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make(original))

    def patch_function(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a function everywhere a ``repro`` module bound it by name."""
        original = getattr(module, name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        """Wrap every layer's entry points (import ``repro`` modules first)."""
        from repro.analysis import campaign as campaign_mod
        from repro.analysis import interference
        from repro.core import delta
        from repro.core.experiment import TwoApplicationExperiment
        from repro.experiments.registry import ExperimentEntry
        from repro.model import batch
        from repro.model.simulator import IOPathSimulator
        from repro.model.stepper import ModelStepper
        from repro.obs import schema
        from repro.obs.telemetry import Telemetry
        from repro.pfs.server import PVFSServer
        from repro.runner import executor
        from repro.runner.cache import ResultCache
        from repro.runner.journal import ProgressJournal
        from repro.scenarios import matrix, spec
        from repro.sim.engine import Simulator

        counts = self.counts
        span = self.span

        # scenarios
        self.patch_function(spec, "build_scenario",
                            lambda f: span("scenarios.build", "scenarios", f))

        # model.batch
        def after_plan(_token, result, *args, **kwargs):
            buckets, _fallback = result
            counts["batch.buckets"] += len(buckets)
            for bucket in buckets:
                width = len(bucket.indices)
                counts["batch.members"] += width
                counts["batch.width1_buckets"] += width == 1

        def before_bucket(scenarios, *args, **kwargs):
            return self.calls["batch.step"]

        def after_bucket(ticks_before, results, scenarios, *args, **kwargs):
            ticks = self.calls["batch.step"] - ticks_before
            counts["batch.lanes"] += len(scenarios) * ticks
            counts["batch.member_steps"] += sum(r.n_steps for r in results)

        self.patch_function(batch, "plan_buckets",
                            lambda f: span("batch.plan", "batch.plan", f, after=after_plan))
        self.patch_function(batch, "run_bucket",
                            lambda f: span("batch.bucket", "batch.control", f,
                                           before_bucket, after_bucket))
        self.patch_method(batch.BatchedStepper, "step_batch",
                          lambda f: span("batch.step", "batch.kernel", f))

        # model.stepper: every phase the public PHASES names, on both steppers
        for phase in ModelStepper.PHASES:
            method = f"_phase_{phase}"
            for cls in (ModelStepper, batch.BatchedStepper):
                if method in cls.__dict__:
                    self.patch_method(
                        cls, method,
                        lambda f, p=phase: span(f"phase.{p}", f"phase.{p}", f),
                    )

        # model.simulator
        def after_sim(_token, result, *args, **kwargs):
            counts["simulator.steps"] += result.n_steps

        self.patch_method(IOPathSimulator, "run",
                          lambda f: span("simulator.run", "simulator", f, after=after_sim))

        # sim.engine / pfs
        def before_engine(engine, *args, **kwargs):
            return engine.events_processed

        def after_engine(events_before, _result, engine, *args, **kwargs):
            counts["engine.events"] += engine.events_processed - events_before

        self.patch_method(Simulator, "run",
                          lambda f: span("engine.run", "engine", f,
                                         before_engine, after_engine))
        self.patch_method(PVFSServer, "commit",
                          lambda f: self.counter("pfs.server_commits", f))

        # core and experiments
        def before_baseline(exp, force=False):
            if exp._alone_result is None or force:
                counts["core.baselines"] += 1

        self.patch_function(delta, "run_delta_sweep",
                            lambda f: span("core.sweep", "core", f))
        self.patch_method(TwoApplicationExperiment, "baseline",
                          lambda f: span("core.baseline", "core", f, before_baseline))

        def experiment_run(f):
            @functools.wraps(f)
            def run(entry, *args, **kwargs):
                return span(f"experiments.{entry.experiment_id}", "experiments",
                            f)(entry, *args, **kwargs)
            return run

        self.patch_method(ExperimentEntry, "run", experiment_run)

        # analysis
        self.patch_function(interference, "attribute_pair",
                            lambda f: span("analysis.attribute", "analysis.attribute", f))
        for module, name in ((interference, "matrix_report_markdown"),
                             (interference, "update_experiments_section"),
                             (campaign_mod, "campaign_to_markdown"),
                             (matrix, "matrix_artifacts")):
            self.patch_function(module, name,
                                lambda f, n=name: span(f"analysis.{n}", "analysis.render", f))

        # runner.executor
        def after_map(_token, outs, pool, tasks, *args, **kwargs):
            counts["executor.work_units"] += len(tasks)
            bucket_walls = [o["wall_s"] for o in outs
                            if isinstance(o, dict) and "wall_s" in o]
            if bucket_walls:
                counts["executor.bucket_wall_s"] += sum(bucket_walls)
                counts["executor.pool_capacity_s"] += (
                    self.last_s["executor.map"] * pool.jobs
                )

        self.patch_function(executor, "execute_cached",
                            lambda f: span("executor.execute_cached", "executor", f))
        self.patch_method(executor.ParallelExecutor, "map",
                          lambda f: span("executor.map", "executor", f, after=after_map))
        self.patch_method(executor.FaultPolicy, "backoff_s",
                          lambda f: self.counter("executor.retries", f))

        # runner.cache / store / journal
        def after_put(_token, path, *args, **kwargs):
            counts["cache.bytes_written"] += os.path.getsize(path)

        self.patch_method(ResultCache, "put",
                          lambda f: span("cache.put", "cache", f, after=after_put))
        # Campaigns probe through get_many only; its misses call get, so
        # wrapping get as well would count that time twice.
        self.patch_method(ResultCache, "get_many",
                          lambda f: span("cache.probe", "cache", f))
        self.patch_function(matrix, "store_matrix",
                            lambda f: span("store.persist", "store", f))
        self.patch_method(ProgressJournal, "record",
                          lambda f: span("journal.append", "journal", f))

        # obs
        def after_document(_token, document, *args, **kwargs):
            counts["obs.spans"] += len(document["spans"])
            counts["obs.counters"] += len(document["counters"])

        self.patch_method(Telemetry, "to_document",
                          lambda f: span("obs.to_document", "obs", f, after=after_document))
        self.patch_method(Telemetry, "events_jsonl",
                          lambda f: span("obs.events", "obs", f))
        self.patch_function(schema, "validate_telemetry_document",
                            lambda f: span("obs.validate", "obs", f))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: Ledger) -> Dict[str, float]:
    """The per-layer metrics of one traced run (seconds, counts, ratios)."""
    t, s, n, c = ledger.total_s, ledger.self_s, ledger.calls, ledger.counts
    ticks = n["batch.step"]
    member_steps = c["batch.member_steps"]
    kernel_s = t["batch.step"]
    sim_steps = c["simulator.steps"]
    m: Dict[str, float] = {
        "scenarios.build_s": t["scenarios.build"],
        "scenarios.builds": n["scenarios.build"],
        "batch.plan_s": t["batch.plan"],
        "batch.buckets": c["batch.buckets"],
        "batch.width1_buckets": c["batch.width1_buckets"],
        "batch.members_per_bucket": _ratio(c["batch.members"], c["batch.buckets"]),
        "batch.ticks": ticks,
        "batch.member_steps": member_steps,
        "batch.member_steps_per_tick": _ratio(member_steps, ticks),
        "batch.dead_lane_frac": (
            1.0 - _ratio(member_steps, c["batch.lanes"]) if c["batch.lanes"] else 0.0
        ),
        "batch.kernel_s": kernel_s,
        "batch.control_s": t["batch.bucket"] - kernel_s,
        "batch.member_steps_per_s": _ratio(member_steps, kernel_s),
    }
    from_phases = {f"phase.{p}_s": s[f"phase.{p}"] for p in (
        "workload_mix", "drain", "offer", "admission", "window_dynamics",
        "accounting", "completion")}
    m.update(from_phases)
    m.update({
        "simulator.runs": n["simulator.run"],
        "simulator.steps": sim_steps,
        "simulator.s": t["simulator.run"],
        "simulator.steps_per_s": _ratio(sim_steps, t["simulator.run"]),
        "engine.events": c["engine.events"],
        "pfs.server_commits": c["pfs.server_commits"],
        "core.sweeps": n["core.sweep"],
        "core.sweep_s": t["core.sweep"],
        "core.baselines": c["core.baselines"],
    })
    for experiment_id in EXPERIMENT_IDS:
        m[f"experiments.{experiment_id}_s"] = t[f"experiments.{experiment_id}"]
    m.update({
        "analysis.attribute_s": s["analysis.attribute"],
        "analysis.render_s": s["analysis.render"],
        "executor.map_s": t["executor.map"],
        "executor.self_s": s["executor"],
        "executor.work_units": c["executor.work_units"],
        "executor.retries": c["executor.retries"],
        "executor.pool_utilization": _ratio(
            c["executor.bucket_wall_s"], c["executor.pool_capacity_s"]
        ),
        "cache.puts": n["cache.put"],
        "cache.put_s": t["cache.put"],
        "cache.bytes_written": c["cache.bytes_written"],
        "cache.probe_s": t["cache.probe"],
        "store.persist_s": t["store.persist"],
        "journal.appends": n["journal.append"],
        "journal.append_s": t["journal.append"],
        "obs.persist_s": s["obs"],
        "obs.spans": c["obs.spans"],
        "obs.counters": c["obs.counters"],
    })
    for layer in LAYERS:
        m[f"self.{layer}_s"] = s[layer]
    m["ledger.wall_s"] = ledger.wall_s
    m["ledger.unattributed_s"] = ledger.unattributed_s
    m["ledger.unattributed_frac"] = _ratio(ledger.unattributed_s, ledger.wall_s)
    return {k: float(v) for k, v in m.items()}


def check_accounting(ledger: Ledger, tolerance_s: float = 1e-6) -> List[str]:
    """Problems with one run's books (empty when they balance).

    Self times must be non-negative and, with the unattributed remainder,
    sum to the measured wall time.
    """
    problems = []
    for layer, value in sorted(ledger.self_s.items()):
        if value < -tolerance_s:
            problems.append(f"layer {layer} has negative self time {value:.6f}s")
    total = ledger.attributed_s + ledger.unattributed_s
    if abs(total - ledger.wall_s) > tolerance_s * max(1, len(ledger.calls)):
        problems.append(
            f"self times + unattributed = {total:.6f}s != wall {ledger.wall_s:.6f}s"
        )
    if ledger.unattributed_s < -tolerance_s:
        problems.append(f"negative unattributed time {ledger.unattributed_s:.6f}s")
    return problems
