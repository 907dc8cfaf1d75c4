"""The canonical stepping-kernel benchmark and its ``BENCH_stepper.json``.

The harness measures *steps per second* of the stepping kernel
(:meth:`~repro.model.batch.BatchedStepper.step_batch`) on a fixed scenario
set:

* ``active/*`` — the kernel alone, one simulation per step (a batch of
  one): both applications started, the model in its contended active phase,
  stepped a fixed number of base steps with no engine or tracing overhead in
  the loop.  ``active/reduced-hdd-sync-on`` is the canonical active-phase
  scenario every speedup claim refers to.
* ``e2e/*`` — a complete :func:`simulate_scenario` run (engine, tracing and
  completion handling included), normalized by its own step count.
* ``batched/*`` (optional) — the same kernel loop as ``active``, advancing
  ``B`` copies of the tiny scenario per step.

Every number is a min-of-N wall measurement (:func:`repro.perf.timing.best_of_ns`)
so single-CPU container noise does not leak into the committed trajectory.
The emitted document embeds a fixed *reference* — the same measurements taken
on the seed kernel right before the StepWorkspace rewrite, on the same
container class — and the per-scenario speedup against it.  Cross-machine
comparisons of absolute numbers are meaningless; the regression gate
(:mod:`repro.perf.compare`) therefore compares like with like: a fresh
measurement against the committed document from the same environment, with a
generous margin.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PerfError
from repro.perf.counters import StepProfiler
from repro.perf.schema import BENCH_SCHEMA_V2
from repro.perf.timing import best_of_ns

__all__ = [
    "BENCH_SCHEMA_ID",
    "BenchScenario",
    "CANONICAL_SCENARIOS",
    "DEFAULT_BATCH_SIZES",
    "REFERENCE_BASELINE",
    "run_perf",
    "scenarios_for_scale",
]

BENCH_SCHEMA_ID = BENCH_SCHEMA_V2

#: Batch widths measured when ``repro-io perf`` runs with ``--batch`` and no
#: explicit sizes: the committed batched throughput curve.
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 8, 32, 128)

#: Steps measured per repeat of an ``active`` scenario — comfortably below
#: the ~220 steps the reduced contended scenario needs to complete, so the
#: model stays in its active phase for the whole measurement.
ACTIVE_STEPS = 150


@dataclass(frozen=True)
class BenchScenario:
    """One entry of the canonical scenario set."""

    key: str            #: stable document key, e.g. "active/reduced-hdd-sync-on"
    scale: str          #: preset scale ("tiny" | "reduced")
    device: str
    sync_mode: str
    kind: str           #: "active" (kernel-only loop) or "e2e" (full run)


CANONICAL_SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario("active/tiny-hdd-sync-on", "tiny", "hdd", "sync-on", "active"),
    BenchScenario("e2e/tiny-hdd-sync-on", "tiny", "hdd", "sync-on", "e2e"),
    BenchScenario("active/reduced-hdd-sync-on", "reduced", "hdd", "sync-on", "active"),
    BenchScenario("active/reduced-ssd-sync-off", "reduced", "ssd", "sync-off", "active"),
)

#: Throughput of the seed stepping kernel (before the StepWorkspace rewrite,
#: PR 3 tree), measured with this same harness (min of 5) on the repo's
#: single-CPU dev container.  Kept as the fixed reference the committed
#: ``BENCH_stepper.json`` reports its speedup against.
REFERENCE_BASELINE: Dict[str, object] = {
    "label": "seed stepping kernel before the StepWorkspace rewrite (PR 3 tree)",
    "scenarios": {
        "active/tiny-hdd-sync-on": {"steps_per_sec": 2772.30},
        "e2e/tiny-hdd-sync-on": {"steps_per_sec": 2721.91},
        "active/reduced-hdd-sync-on": {"steps_per_sec": 996.16},
        "active/reduced-ssd-sync-off": {"steps_per_sec": 1117.41},
    },
}


def scenarios_for_scale(scale: str) -> Tuple[BenchScenario, ...]:
    """The canonical scenarios measurable at ``scale``.

    ``tiny`` keeps only the tiny entries (the CI smoke set); ``reduced``
    measures everything.
    """
    if scale == "tiny":
        return tuple(s for s in CANONICAL_SCENARIOS if s.scale == "tiny")
    if scale == "reduced":
        return CANONICAL_SCENARIOS
    raise PerfError(f"unknown perf scale {scale!r}; expected 'tiny' or 'reduced'")


def _measure_e2e(spec: BenchScenario, repeats: int) -> Dict[str, object]:
    from repro.config.presets import make_scenario
    from repro.model.simulator import simulate_scenario

    def setup():
        return make_scenario(spec.scale, device=spec.device, sync_mode=spec.sync_mode)

    def run(scenario):
        return simulate_scenario(scenario)

    best_ns, result = best_of_ns(run, repeats=repeats, setup=setup)
    n_steps = int(result.n_steps)
    return {
        "scale": spec.scale,
        "kind": spec.kind,
        "n_steps": n_steps,
        "best_ns": int(best_ns),
        "steps_per_sec": n_steps / (best_ns / 1e9),
    }


#: The scenario the batched throughput curve steps ``B`` copies of.
_BATCHED_SPEC = BenchScenario("batched", "tiny", "hdd", "sync-on", "batched")


def _build_started_batch(batch_size: int, spec: BenchScenario = _BATCHED_SPEC):
    """A :class:`~repro.model.batch.BatchSimulator` of ``batch_size`` copies
    of ``spec``'s scenario, every member's applications started."""
    from repro.config.presets import make_scenario
    from repro.model.batch import BatchSimulator

    scenarios = [
        make_scenario(spec.scale, device=spec.device, sync_mode=spec.sync_mode)
        for _ in range(batch_size)
    ]
    batch = BatchSimulator(scenarios)
    for member in batch.members:
        for index in range(len(member.sim.state.applications)):
            member.sim.start_application(member.engine, index)
    return batch


def _step_active(batch) -> None:
    """``ACTIVE_STEPS`` kernel steps with no engine in the loop."""
    stepper = batch.stepper
    clock = batch.clock
    for _ in range(ACTIVE_STEPS):
        np.add(clock, batch.steps, out=clock)
        stepper.step_batch(clock)
        for member in batch.members:
            # Advance by hand; issues are not measured.
            member.engine._now = float(clock[member.index])


def _measure_batched(
    batch_size: int, repeats: int, spec: BenchScenario = _BATCHED_SPEC
) -> Dict[str, object]:
    """Kernel throughput with ``batch_size`` copies of ``spec`` per step.

    ``steps_per_sec`` is aggregate member-steps per second
    (``ACTIVE_STEPS * batch_size / wall``), so every width is directly
    comparable to the B=1 ``active`` entries, which this measures too.
    """
    best_ns, _ = best_of_ns(
        _step_active, repeats=repeats,
        setup=lambda: _build_started_batch(batch_size, spec),
    )
    entry: Dict[str, object] = {"scale": spec.scale, "kind": spec.kind}
    if spec.kind == "batched":
        entry["batch"] = int(batch_size)
    entry.update({
        "n_steps": ACTIVE_STEPS,
        "best_ns": int(best_ns),
        "steps_per_sec": ACTIVE_STEPS * batch_size / (best_ns / 1e9),
    })
    return entry


def _profile_phases(spec: BenchScenario) -> Dict[str, Dict[str, float]]:
    """One instrumented (untimed) pass collecting per-phase counters."""
    batch = _build_started_batch(1, spec)
    profiler = StepProfiler()
    batch.stepper.profiler = profiler
    _step_active(batch)
    return profiler.report()


def run_perf(
    scale: str = "reduced",
    repeats: int = 5,
    profile: bool = False,
    reference: Optional[Dict[str, object]] = None,
    batch_sizes: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Measure the canonical scenario set; return the bench document.

    ``batch_sizes`` adds one ``batched/tiny-hdd-sync-on@b{B}`` entry per
    width: the lockstep kernel advancing ``B`` copies of the tiny scenario
    per step (always measured at tiny scale, whatever ``scale`` is).

    The document validates against :func:`repro.perf.schema.validate_bench_document`
    and is what ``repro-io perf`` writes to ``BENCH_stepper.json``.
    """
    if repeats < 1:
        raise PerfError("repeats must be >= 1")
    if reference is None:
        reference = REFERENCE_BASELINE
    scenarios: Dict[str, Dict[str, object]] = {}
    for spec in scenarios_for_scale(scale):
        if spec.kind == "active":
            scenarios[spec.key] = _measure_batched(1, repeats, spec)
        else:
            scenarios[spec.key] = _measure_e2e(spec, repeats)
    for batch_size in batch_sizes or ():
        if batch_size < 1:
            raise PerfError(f"batch sizes must be >= 1, got {batch_size}")
        key = f"batched/tiny-hdd-sync-on@b{int(batch_size)}"
        scenarios[key] = _measure_batched(int(batch_size), repeats)

    speedup: Dict[str, float] = {}
    ref_scenarios = reference.get("scenarios", {}) if reference else {}
    for key, entry in scenarios.items():
        ref = ref_scenarios.get(key)
        if ref:
            speedup[key] = float(entry["steps_per_sec"]) / float(ref["steps_per_sec"])

    document: Dict[str, object] = {
        "schema": BENCH_SCHEMA_ID,
        "python": platform.python_version(),
        "scale": scale,
        "repeats": int(repeats),
        "scenarios": scenarios,
        "reference": reference,
        "speedup": speedup,
    }
    if profile:
        document["phase_profile"] = {
            "scenario": "active/%s-hdd-sync-on" % ("tiny" if scale == "tiny" else "reduced"),
            "n_steps": ACTIVE_STEPS,
            "phases": _profile_phases(
                BenchScenario(
                    "profile", "tiny" if scale == "tiny" else "reduced",
                    "hdd", "sync-on", "active",
                )
            ),
        }
    return document
