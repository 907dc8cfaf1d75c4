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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.core import metrics
from repro.errors import AnalysisError, ExperimentError
from repro.model.results import RunResult
from repro.model.simulator import simulate_scenario

__all__ = [
    "DeltaPoint",
    "DeltaSweep",
    "run_delta_sweep",
    "run_delta_point_task",
    "default_deltas",
    "alone_times_for",
    "jsonify",
]


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


def run_delta_point_task(payload: Dict[str, object], seed: Optional[int]) -> Dict[str, object]:
    """Executor worker (task kind ``delta-point``): simulate one Δ point.

    Payload keys: ``scenario`` (a :class:`~repro.config.scenario.ScenarioConfig`)
    and ``delta``.  Returns the serialized :class:`DeltaPoint`.
    """
    delta = float(payload["delta"])
    result = simulate_scenario(payload["scenario"].with_delay(delta), seed=seed)
    return DeltaPoint.from_run_result(delta, result).to_dict()


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
        With ``jobs > 1`` each point is one ``delta-point`` task fanned
        across that many worker processes by
        :class:`~repro.runner.executor.ParallelExecutor` (useful at the
        ``paper`` scale, where each point is an expensive simulation).
        Every point gets the same ``seed`` either way, so the sweep equals
        the serial one.  The baseline always runs here.
    """
    if len(scenario.applications) < 2:
        raise ExperimentError("a delta sweep needs a two-application scenario")

    if alone_result is None:
        alone_scenario = scenario.with_applications(scenario.applications[:1])
        alone_result = simulate_scenario(alone_scenario, seed=seed)
    alone_times = alone_times_for(scenario, alone_result)

    if jobs > 1:
        # Imported here: repro.runner depends on repro.core, not vice versa.
        from repro.runner.executor import ParallelExecutor, TaskSpec

        tasks = [
            TaskSpec(
                task_id=f"delta[{i}]={float(delta):+.6g}",
                kind="delta-point",
                payload={"scenario": scenario, "delta": float(delta)},
                seed=seed,
            )
            for i, delta in enumerate(deltas)
        ]
        points = [
            DeltaPoint.from_dict(p) for p in ParallelExecutor(jobs=jobs).map(tasks)
        ]
    else:
        points = [
            DeltaPoint.from_run_result(
                delta, simulate_scenario(scenario.with_delay(float(delta)), seed=seed)
            )
            for delta in deltas
        ]

    points.sort(key=lambda p: p.delta)
    return DeltaSweep(points=points, alone_times=alone_times, label=label or scenario.label)
