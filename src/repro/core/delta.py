"""Δ-graph sweeps.

The paper's main experimental instrument (borrowed from the CALCioM paper,
its reference [1]) is the Δ-graph: run the two-application experiment many
times, varying the delay ``dt`` between the start of the first and the second
application's I/O burst, and plot each application's write time against
``dt``.  Each point of a Δ-graph is an independent experiment, not a
timeline.

:func:`run_delta_sweep` executes such a sweep against the simulator and
returns a :class:`DeltaSweep`, which carries the raw points plus the metrics
of :mod:`repro.core.metrics` (peak interference factor, asymmetry, flatness).

Staged computations
-------------------
A sweep's delays depend on its baseline's alone time, so its simulations
come in two stages: first the alone run, then the points.  A *staged
computation* is a generator that yields one round of requests at a time —
a list of ``(scenario, seed)`` pairs — and is sent their
:class:`~repro.model.results.RunResult` objects in the same order; its
return value is its result.  :func:`delta_stages` is a sweep in that form,
:func:`gather` runs several staged computations side by side (each round
merges every member's requests), and :func:`run_staged` drives one, each
round one :func:`~repro.model.batch.simulate_many` call, which runs each
distinct request once in planned lockstep buckets, in-process or spread
across worker processes as ``bucket`` work units.  The paper campaign and
the parameter grid gather every sweep this way, so all their baselines run
in one round and all their points in the next.

The points run untraced: a :class:`DeltaPoint` reads only write times,
throughputs, window collapses and simulated time, none of which comes from
the trace recorder, while a round may hold hundreds of point results at
once, whose recorded marks and series would dominate its memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.core import metrics
from repro.errors import AnalysisError, ExperimentError
from repro.model.results import RunResult
from repro.sim.tracing import TraceConfig

__all__ = [
    "DeltaPoint",
    "DeltaSweep",
    "Request",
    "Staged",
    "alone_stage",
    "delta_points",
    "delta_stages",
    "gather",
    "run_staged",
    "run_delta_sweep",
    "default_deltas",
    "alone_times_for",
    "jsonify",
]

#: One simulation request: a scenario and its seed override (``None``: the
#: scenario's own seed).
Request = Tuple[ScenarioConfig, Optional[int]]

#: A staged computation: yields each round's requests, is sent their results
#: in the same order, and returns its result.
Staged = Generator[List[Request], List[RunResult], Any]

#: The trace configuration of a Δ-point: it records nothing.
_UNTRACED = TraceConfig(
    record_windows=False,
    record_progress=False,
    record_server_state=False,
    record_marks=False,
)


def jsonify(value):
    """Recursively convert numpy scalars/arrays to plain Python types.

    Result payloads travel through ``json`` (the runner cache and the run
    store) and across process boundaries; numpy scalars are not JSON
    serializable, so every ``to_dict`` below funnels through this helper.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


@dataclass(frozen=True)
class DeltaPoint:
    """One point of a Δ-graph (one two-application run)."""

    delta: float
    write_times: Dict[str, float]
    throughputs: Dict[str, float]
    window_collapses: Dict[str, int]
    simulated_time: float

    def write_time(self, app: str) -> float:
        """Write time of one application at this delay."""
        try:
            return self.write_times[app]
        except KeyError as exc:
            raise AnalysisError(f"no application {app!r} at delta {self.delta}") from exc

    def first_application(self) -> str:
        """Name of the application that starts first at this delay."""
        names = sorted(self.write_times)
        if len(names) < 2:
            return names[0]
        # By convention application "A" starts at 0 and the second at `delta`.
        return names[0] if self.delta >= 0 else names[1]

    def second_application(self) -> str:
        """Name of the application that starts second at this delay."""
        names = sorted(self.write_times)
        if len(names) < 2:
            return names[0]
        return names[1] if self.delta >= 0 else names[0]

    @classmethod
    def from_run_result(cls, delta: float, result: RunResult) -> "DeltaPoint":
        """Build the point for one simulated two-application run."""
        return cls(
            delta=float(delta),
            write_times={name: app.write_time for name, app in result.applications.items()},
            throughputs={name: app.throughput for name, app in result.applications.items()},
            window_collapses={
                name: app.window_collapses for name, app in result.applications.items()
            },
            simulated_time=result.simulated_time,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "delta": jsonify(self.delta),
            "write_times": jsonify(self.write_times),
            "throughputs": jsonify(self.throughputs),
            "window_collapses": {k: int(v) for k, v in self.window_collapses.items()},
            "simulated_time": jsonify(self.simulated_time),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeltaPoint":
        """Rebuild a point from :meth:`to_dict` output."""
        return cls(
            delta=float(data["delta"]),
            write_times={k: float(v) for k, v in data["write_times"].items()},
            throughputs={k: float(v) for k, v in data["throughputs"].items()},
            window_collapses={k: int(v) for k, v in data["window_collapses"].items()},
            simulated_time=float(data["simulated_time"]),
        )


@dataclass
class DeltaSweep:
    """A complete Δ-graph: points plus interference-free baselines."""

    points: List[DeltaPoint]
    alone_times: Dict[str, float]
    label: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Raw accessors
    # ------------------------------------------------------------------ #

    @property
    def deltas(self) -> np.ndarray:
        """Delays of the sweep (sorted ascending)."""
        return np.array([p.delta for p in self.points], dtype=np.float64)

    @property
    def applications(self) -> Tuple[str, ...]:
        """Application names present in the sweep."""
        if not self.points:
            return tuple(sorted(self.alone_times))
        return tuple(sorted(self.points[0].write_times))

    def write_times(self, app: str) -> np.ndarray:
        """Write times of one application across the sweep."""
        return np.array([p.write_time(app) for p in self.points], dtype=np.float64)

    def interference_factors(self, app: str) -> np.ndarray:
        """Interference factors of one application across the sweep."""
        alone = self.alone_time(app)
        return self.write_times(app) / alone

    def alone_time(self, app: str) -> float:
        """Interference-free write time of one application."""
        try:
            return self.alone_times[app]
        except KeyError as exc:
            raise AnalysisError(f"no interference-free baseline for {app!r}") from exc

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def peak_interference_factor(self, app: Optional[str] = None) -> float:
        """Largest interference factor over the sweep (Table II)."""
        apps = [app] if app else list(self.applications)
        return max(
            metrics.peak_interference_factor(self.write_times(a), self.alone_time(a))
            for a in apps
        )

    def flatness_index(self, app: Optional[str] = None) -> float:
        """Peak interference factor minus one (0 = perfectly flat graph)."""
        return self.peak_interference_factor(app) - 1.0

    def is_flat(self, tolerance: float = 0.15) -> bool:
        """True when no application ever exceeds ``1 + tolerance`` slowdown."""
        return self.flatness_index() <= tolerance

    def asymmetry_index(self) -> float:
        """Mean relative penalty of the second application versus the first.

        Positive values reproduce the paper's observation that the
        application entering its I/O phase first gets better performance.
        Points where the phases do not overlap (both applications run at
        their interference-free time) are excluded.
        """
        firsts, seconds, deltas = [], [], []
        for p in self.points:
            if len(p.write_times) < 2:
                continue
            first_app, second_app = p.first_application(), p.second_application()
            t_first, t_second = p.write_time(first_app), p.write_time(second_app)
            alone_first = self.alone_time(first_app)
            alone_second = self.alone_time(second_app)
            overlap = (t_first > 1.05 * alone_first) or (t_second > 1.05 * alone_second)
            if not overlap:
                continue
            firsts.append(t_first)
            seconds.append(t_second)
            deltas.append(p.delta)
        if not firsts:
            return 0.0
        return metrics.asymmetry_index(deltas, firsts, seconds)

    def total_collapses(self) -> int:
        """Window collapses summed over every point of the sweep."""
        return int(
            sum(sum(p.window_collapses.values()) for p in self.points)
        )

    def point_at(self, delta: float) -> DeltaPoint:
        """The sweep point closest to ``delta``."""
        if not self.points:
            raise AnalysisError("the sweep has no points")
        return min(self.points, key=lambda p: abs(p.delta - delta))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def rows(self) -> List[Dict[str, float]]:
        """One flat dictionary per point (for tables / CSV export)."""
        rows = []
        for p in self.points:
            row: Dict[str, float] = {"delta": p.delta}
            for app, t in sorted(p.write_times.items()):
                row[f"write_time.{app}"] = t
                row[f"interference_factor.{app}"] = t / self.alone_time(app)
            rows.append(row)
        return rows

    def summary(self) -> Dict[str, float]:
        """Headline metrics of the sweep."""
        out: Dict[str, float] = {
            "peak_interference_factor": self.peak_interference_factor(),
            "asymmetry_index": self.asymmetry_index(),
            "flatness_index": self.flatness_index(),
            "total_window_collapses": float(self.total_collapses()),
        }
        for app in self.applications:
            out[f"alone_time.{app}"] = self.alone_time(app)
        out.update(self.extra)
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "points": [p.to_dict() for p in self.points],
            "alone_times": jsonify(self.alone_times),
            "label": self.label,
            "extra": jsonify(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeltaSweep":
        """Rebuild a sweep from :meth:`to_dict` output."""
        return cls(
            points=[DeltaPoint.from_dict(p) for p in data["points"]],
            alone_times={k: float(v) for k, v in data["alone_times"].items()},
            label=str(data.get("label", "")),
            extra={k: float(v) for k, v in data.get("extra", {}).items()},
        )


def default_deltas(alone_time: float, n_points: int = 9) -> List[float]:
    """Pick a symmetric set of delays spanning the interference window.

    The interference window of a Δ-graph is roughly ``[-alone, +alone]``
    (beyond that the two phases no longer overlap); the paper samples it
    symmetrically.  ``n_points`` is forced to be odd so that dt = 0 is
    included.
    """
    if alone_time <= 0:
        raise ExperimentError("alone_time must be positive")
    if n_points < 3:
        raise ExperimentError("a delta sweep needs at least 3 points")
    if n_points % 2 == 0:
        n_points += 1
    span = 1.2 * alone_time
    return [float(d) for d in np.linspace(-span, span, n_points)]


def alone_times_for(scenario: ScenarioConfig, alone_result: RunResult) -> Dict[str, float]:
    """Per-application interference-free baselines from one alone run.

    Both applications are identically configured in the paper's methodology;
    the first application's measured baseline is reused for any application
    the provided result does not cover.
    """
    baseline = alone_result.applications[scenario.applications[0].name]
    return {
        app.name: (
            alone_result.applications[app.name].write_time
            if app.name in alone_result.applications
            else baseline.write_time
        )
        for app in scenario.applications
    }


def gather(stages: Iterable[Staged]) -> Staged:
    """Run staged computations side by side; returns their results in order.

    Each round yields the concatenation of every live member's requests and
    sends each member its own slice of the results.  A member that returns
    leaves the next rounds (members with fewer rounds finish early), and an
    exception in a member propagates.
    """
    results: List[Any] = []
    live: List[Tuple[int, Staged, List[Request]]] = []

    def advance(i: int, stage: Staged, sent: Optional[List[RunResult]]) -> None:
        try:
            requests = stage.send(sent)
        except StopIteration as stop:
            results[i] = stop.value
        else:
            live.append((i, stage, list(requests)))

    for stage in stages:
        results.append(None)
        advance(len(results) - 1, stage, None)
    while live:
        outs = yield [request for _, _, requests in live for request in requests]
        current = live[:]
        live.clear()
        start = 0
        for i, stage, requests in current:
            advance(i, stage, outs[start:start + len(requests)])
            start += len(requests)
    return results


def run_staged(stage: Staged, jobs: int = 1) -> Any:
    """Drive one staged computation to its result: each round is one
    :func:`~repro.model.batch.simulate_many` call across ``jobs`` worker
    processes."""
    # Imported here, as the matrix does: importing repro.core stays free of
    # the kernel module until a round runs.
    from repro.model.batch import simulate_many

    sent: Optional[List[RunResult]] = None
    while True:
        try:
            requests = stage.send(sent)
        except StopIteration as stop:
            return stop.value
        sent = simulate_many(
            [scenario for scenario, _ in requests], [seed for _, seed in requests],
            jobs=jobs,
        )


def alone_stage(scenario: ScenarioConfig, seed: Optional[int]) -> Staged:
    """One round: the interference-free run of ``scenario``'s first
    application.  Returns its result."""
    (result,) = yield [(scenario.with_applications(scenario.applications[:1]), seed)]
    return result


def delta_points(scenario: ScenarioConfig, deltas: Sequence[float]) -> List[ScenarioConfig]:
    """The untraced point scenarios of a sweep of ``scenario`` at ``deltas``."""
    untraced = scenario.with_control(replace(scenario.control, trace=_UNTRACED))
    return [untraced.with_delay(float(delta)) for delta in deltas]


def delta_stages(
    scenario: ScenarioConfig,
    deltas: Sequence[float],
    *,
    alone_result: Optional[RunResult] = None,
    seed: Optional[int] = None,
    label: str = "",
) -> Staged:
    """A Δ-graph sweep as a staged computation (see :func:`run_delta_sweep`
    for the parameters): round 1 is the alone run, skipped when
    ``alone_result`` is given; round 2 is the points, untraced, every one
    with ``seed``.  Returns the :class:`DeltaSweep`."""
    if len(scenario.applications) < 2:
        raise ExperimentError("a delta sweep needs a two-application scenario")
    if alone_result is None:
        alone_result = yield from alone_stage(scenario, seed)
    deltas = [float(delta) for delta in deltas]
    results = yield [(point, seed) for point in delta_points(scenario, deltas)]
    points = [
        DeltaPoint.from_run_result(delta, result)
        for delta, result in zip(deltas, results)
    ]
    return DeltaSweep(
        points=sorted(points, key=lambda p: p.delta),
        alone_times=alone_times_for(scenario, alone_result),
        label=label or scenario.label,
    )


def run_delta_sweep(
    scenario: ScenarioConfig,
    deltas: Sequence[float],
    *,
    alone_result: Optional[RunResult] = None,
    seed: Optional[int] = None,
    label: str = "",
    jobs: int = 1,
) -> DeltaSweep:
    """Run a Δ-graph sweep for a two-application scenario.

    Parameters
    ----------
    scenario:
        The base two-application scenario; its second application's start
        time is replaced by each delay in turn.
    deltas:
        Delays (seconds) between the first and the second application.
    alone_result:
        Optional pre-computed interference-free run (first application only).
        If omitted, it is simulated here.
    seed:
        Seed override applied to every point (common random numbers across
        the Δ axis reduce point-to-point noise).
    label:
        Label stored on the resulting sweep.
    jobs:
        Worker processes.  The sweep is :func:`run_staged` over
        :func:`delta_stages` at every ``jobs``: the baseline round, then the
        points round, each run in planned lockstep buckets, under either
        stepping policy; with ``jobs > 1`` each round's buckets are spread
        across that many workers.  Every point gets the same ``seed``, and a
        point's result does not depend on its bucket or worker, so the
        sweep is the same at every ``jobs``.
    """
    return run_staged(delta_stages(
        scenario, deltas, alone_result=alone_result, seed=seed, label=label
    ), jobs=jobs)
