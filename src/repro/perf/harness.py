"""The canonical stepping-kernel benchmark and its ``BENCH_stepper.json``.

The harness measures *steps per second* of the stepping kernel
(:meth:`~repro.model.batch.BatchedStepper.step_batch`) on a fixed scenario
set:

* ``active/*`` — the kernel alone, one simulation per step (a batch of
  one): both applications started, the model in its contended active phase,
  stepped a fixed number of base steps with no control plane or tracing
  overhead in the loop.  ``active/reduced-hdd-sync-on`` is the canonical active-phase
  scenario every speedup claim refers to.
* ``e2e/*`` — a complete :func:`simulate_scenario` run (control plane,
  tracing and completion handling included), normalized by its own step
  count.
  ``e2e/tiny-hdd-sync-on@telemetry`` is the same run inside a telemetry
  session.
* ``batched/*`` (optional) — the same kernel loop as ``active``, advancing
  ``B`` copies of the tiny scenario per step.

Every number is the fastest of N rounds, each round timing every entry once
(:func:`repro.perf.timing.best_of_ns`), so container noise does not leak
into the committed trajectory and slows both entries of a ratio alike.
The emitted document embeds a fixed *reference* — the same measurements taken
on the seed kernel right before the StepWorkspace rewrite, on the same
container class — and the per-scenario speedup against it.  Absolute numbers
are only comparable on one machine, so the gate (:func:`check_ratios`)
compares entries of one document with each other: the batched kernel
against B=1, and the run with telemetry against the same run without.
"""

from __future__ import annotations

import functools
import platform
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PerfError
from repro.perf.counters import StepProfiler
from repro.perf.schema import BENCH_SCHEMA_ID
from repro.perf.timing import best_of_ns

__all__ = [
    "BATCH_FLOOR",
    "BATCH_FLOOR_WIDTH",
    "BENCH_SCHEMA_ID",
    "BenchScenario",
    "CANONICAL_SCENARIOS",
    "DEFAULT_BATCH_SIZES",
    "REFERENCE_BASELINE",
    "TELEMETRY_FLOOR",
    "TELEMETRY_SUFFIX",
    "check_ratios",
    "format_summary",
    "run_perf",
    "scenarios_for_scale",
]

#: Batch widths measured when ``repro-io perf`` runs with ``--batch`` and no
#: explicit sizes: the committed batched throughput curve.
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 8, 32, 128)

#: Steps measured per repeat of an ``active`` scenario — comfortably below
#: the ~220 steps the reduced contended scenario needs to complete, so the
#: model stays in its active phase for the whole measurement.
ACTIVE_STEPS = 150

#: The narrowest batched width :data:`BATCH_FLOOR` gates; ``perf --check``
#: needs at least one measured width this wide.
BATCH_FLOOR_WIDTH = 8

#: Lowest allowed ratio of a batched entry at width >= BATCH_FLOOR_WIDTH to
#: ``active/tiny-hdd-sync-on`` (B=1) of the same run.  b8 / B=1 read
#: 3.62-6.76 (median 4.88) in 30 runs of ``perf --scale tiny --repeats 5
#: --batch 8`` on a loaded 2-CPU container, whose B=1 read 2,664-5,129
#: steps/s meanwhile, and 3.65 in the committed document, which another
#: machine measured.
BATCH_FLOOR = 2.5

#: Lowest allowed ratio of ``e2e/tiny-hdd-sync-on@telemetry`` to
#: ``e2e/tiny-hdd-sync-on`` of the same run: what a telemetry session may
#: cost the tiny end-to-end run.  It read 0.65-0.90 (median 0.76) in the
#: same 30 runs.
TELEMETRY_FLOOR = 0.6

#: Suffix of the key of an ``e2e`` entry measured inside a telemetry session.
TELEMETRY_SUFFIX = "@telemetry"

#: The B=1 kernel entry every batched width is gated against.
_KERNEL_KEY = "active/tiny-hdd-sync-on"


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


def _measure_e2e(spec: BenchScenario) -> Dict[str, object]:
    """One timed :func:`simulate_scenario` run of ``spec``'s scenario."""
    from repro.config.presets import make_scenario
    from repro.model.simulator import simulate_scenario

    def setup():
        return make_scenario(spec.scale, device=spec.device, sync_mode=spec.sync_mode)

    def run(scenario):
        return simulate_scenario(scenario)

    best_ns, result = best_of_ns(run, repeats=1, setup=setup)
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
            member.sim.start_application(index, member.t0)
    return batch


def _step_active(batch) -> None:
    """``ACTIVE_STEPS`` kernel steps with no control plane in the loop
    (issues are not measured)."""
    stepper = batch.stepper
    clock = batch.clock
    for _ in range(ACTIVE_STEPS):
        np.add(clock, batch.steps, out=clock)
        stepper.step_batch(clock)


def _measure_batched(
    batch_size: int, spec: BenchScenario = _BATCHED_SPEC
) -> Dict[str, object]:
    """One timed pass of the kernel with ``batch_size`` copies of ``spec``
    per step.

    ``steps_per_sec`` is aggregate member-steps per second
    (``ACTIVE_STEPS * batch_size / wall``), so every width is directly
    comparable to the B=1 ``active`` entries, which this measures too.
    """
    best_ns, _ = best_of_ns(
        _step_active, repeats=1,
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
    profiler = StepProfiler(probe_allocations=True)
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

    Every ``e2e`` entry is measured twice, the second time inside a
    telemetry session under its key plus ``@telemetry``.  ``batch_sizes``
    adds one ``batched/tiny-hdd-sync-on@b{B}`` entry per width: the
    lockstep kernel advancing ``B`` copies of the tiny scenario per step
    (always measured at tiny scale, whatever ``scale`` is).

    The document validates against :func:`repro.perf.schema.validate_bench_document`
    and is what ``repro-io perf`` writes to ``BENCH_stepper.json``.
    """
    from repro.obs.telemetry import telemetry_session

    if repeats < 1:
        raise PerfError("repeats must be >= 1")
    if reference is None:
        reference = REFERENCE_BASELINE

    def with_telemetry(spec: BenchScenario) -> Dict[str, object]:
        with telemetry_session("perf"):
            return _measure_e2e(spec)

    measures: Dict[str, Callable[[], Dict[str, object]]] = {}
    for spec in scenarios_for_scale(scale):
        if spec.kind == "active":
            measures[spec.key] = functools.partial(_measure_batched, 1, spec)
        else:
            measures[spec.key] = functools.partial(_measure_e2e, spec)
            measures[spec.key + TELEMETRY_SUFFIX] = functools.partial(with_telemetry, spec)
    for batch_size in batch_sizes or ():
        if batch_size < 1:
            raise PerfError(f"batch sizes must be >= 1, got {batch_size}")
        key = f"batched/tiny-hdd-sync-on@b{int(batch_size)}"
        measures[key] = functools.partial(_measure_batched, int(batch_size))
    # Each round times every entry once, and each entry keeps its fastest
    # round.  Interleaved, a busy machine slows all entries of a round
    # alike, so the ratios check_ratios gates hold on it: timed one entry
    # after another, the telemetry ratio read 0.47-0.88 in 15 runs on a
    # loaded 2-CPU container, interleaved 0.67-0.98 in 15 runs alternating
    # with those.
    scenarios: Dict[str, Dict[str, object]] = {}
    for _ in range(repeats):
        for key, measure in measures.items():
            entry = measure()
            if key not in scenarios or entry["best_ns"] < scenarios[key]["best_ns"]:
                scenarios[key] = entry

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


def check_ratios(document: Dict) -> List[str]:
    """Gate a bench document on ratios of its own entries; return one
    failure per pair below its floor (empty = gate green).

    Every batched entry at width >= :data:`BATCH_FLOOR_WIDTH` must reach
    :data:`BATCH_FLOOR` times the B=1 kernel, and every ``@telemetry`` entry
    :data:`TELEMETRY_FLOOR` times its twin without telemetry.  Both numbers
    of a pair come from one run on one machine, so the gate holds wherever
    the document was measured.  A document missing either kind of pair
    raises :class:`~repro.errors.PerfError`: the gate never passes while
    gating nothing.
    """
    scenarios = document["scenarios"]
    batched = [
        (key, _KERNEL_KEY, BATCH_FLOOR)
        for key, entry in scenarios.items()
        if entry["kind"] == "batched" and entry["batch"] >= BATCH_FLOOR_WIDTH
    ]
    telemetry = [
        (key, key[: -len(TELEMETRY_SUFFIX)], TELEMETRY_FLOOR)
        for key in scenarios
        if key.endswith(TELEMETRY_SUFFIX)
    ]
    if not batched:
        raise PerfError(f"no batched entry of width >= {BATCH_FLOOR_WIDTH} to gate")
    if not telemetry:
        raise PerfError(f"no {TELEMETRY_SUFFIX} entry to gate")
    failures: List[str] = []
    for key, base, floor in batched + telemetry:
        if base not in scenarios:
            raise PerfError(f"{key} has no {base} entry to compare with")
        ratio = float(scenarios[key]["steps_per_sec"]) / float(
            scenarios[base]["steps_per_sec"]
        )
        if ratio < floor:
            failures.append(f"{key} / {base} = {ratio:.2f}, below the floor {floor}")
    return failures


def format_summary(document: Dict) -> str:
    """Human-readable one-line-per-scenario summary of a bench document."""
    lines = []
    speedup = document.get("speedup", {})
    for key in sorted(document["scenarios"]):
        entry = document["scenarios"][key]
        line = f"{key:32s} {float(entry['steps_per_sec']):10.0f} steps/s"
        if key in speedup:
            line += f"   {float(speedup[key]):.2f}x vs reference"
        lines.append(line)
    return "\n".join(lines)
