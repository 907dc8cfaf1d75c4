"""Cross-application I/O scheduling (CALCioM-style coordination).

The related work the paper builds on (its reference [1], CALCioM, and the
batch-scheduler line of work by Zhou et al. and Gainaru et al.) avoids
interference by *coordinating* the applications: when two I/O phases would
overlap, one of them is delayed until the other finishes, trading waiting
time for interference-free transfers.

The standard :class:`~repro.mitigation.base.Mitigation` interface cannot
express this policy — it rewrites a static scenario, while coordination is a
decision made per delay — so this module provides its own evaluation helper:

* :func:`coordinated_start_times` — the serialized schedule for one delay,
* :func:`evaluate_coordination` — run both the interfering and the
  coordinated execution for a set of delays and compare write times *and*
  completion times (including the waiting introduced by the scheduler).

The resulting :class:`CoordinationOutcome` quantifies the paper's remark that
scheduling-level solutions "can help control the level of interference [but
do] not always lead to improved performance at the same time": the write time
always improves, the completion time may not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.scenario import ScenarioConfig
from repro.core.delta import Staged, alone_stage, default_deltas, run_staged
from repro.errors import ExperimentError

__all__ = [
    "CoordinationPoint",
    "CoordinationOutcome",
    "coordinated_start_times",
    "evaluate_coordination",
]


@dataclass(frozen=True)
class CoordinationPoint:
    """Comparison of interfering vs. coordinated execution at one delay."""

    delta: float
    interfering_write_times: Dict[str, float]
    coordinated_write_times: Dict[str, float]
    interfering_completion_times: Dict[str, float]
    coordinated_completion_times: Dict[str, float]
    scheduler_wait: Dict[str, float]

    def write_time_improvement(self, app: str) -> float:
        """Write-time reduction for one application (positive = faster)."""
        return self.interfering_write_times[app] - self.coordinated_write_times[app]

    def completion_change(self, app: str) -> float:
        """Completion-time change (positive = the application finished later)."""
        return (
            self.coordinated_completion_times[app]
            - self.interfering_completion_times[app]
        )


@dataclass
class CoordinationOutcome:
    """Aggregate outcome of a coordination evaluation."""

    points: List[CoordinationPoint]
    alone_times: Dict[str, float]
    label: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #

    @property
    def applications(self) -> Tuple[str, ...]:
        """Application names covered by the evaluation."""
        if not self.points:
            return tuple(sorted(self.alone_times))
        return tuple(sorted(self.points[0].interfering_write_times))

    def peak_interference_factor(self, coordinated: bool = False) -> float:
        """Worst write-time slowdown across delays and applications."""
        worst = 1.0
        for point in self.points:
            times = (
                point.coordinated_write_times if coordinated else point.interfering_write_times
            )
            for app, t in times.items():
                worst = max(worst, t / self.alone_times[app])
        return worst

    def mean_completion_change(self) -> float:
        """Average completion-time change introduced by the coordination.

        Positive values mean applications finish later on average — the
        scheduler converted interference into waiting instead of removing the
        cost altogether.
        """
        changes = [
            point.completion_change(app)
            for point in self.points
            for app in point.coordinated_completion_times
        ]
        return float(np.mean(changes)) if changes else 0.0

    def max_scheduler_wait(self) -> float:
        """Largest waiting time the scheduler imposed on any application."""
        waits = [max(point.scheduler_wait.values()) for point in self.points]
        return float(max(waits)) if waits else 0.0

    def rows(self) -> List[Dict[str, float]]:
        """One flat row per delay (for tables and CSV)."""
        rows = []
        for point in self.points:
            row: Dict[str, float] = {"delta": point.delta}
            for app in sorted(point.interfering_write_times):
                row[f"interfering_write_time.{app}"] = point.interfering_write_times[app]
                row[f"coordinated_write_time.{app}"] = point.coordinated_write_times[app]
                row[f"scheduler_wait.{app}"] = point.scheduler_wait[app]
                row[f"completion_change.{app}"] = point.completion_change(app)
            rows.append(row)
        return rows

    def summary(self) -> Dict[str, float]:
        """Headline metrics of the evaluation."""
        out = {
            "peak_if_interfering": self.peak_interference_factor(coordinated=False),
            "peak_if_coordinated": self.peak_interference_factor(coordinated=True),
            "mean_completion_change": self.mean_completion_change(),
            "max_scheduler_wait": self.max_scheduler_wait(),
        }
        out.update(self.extra)
        return out


def coordinated_start_times(
    scenario: ScenarioConfig,
    delta: float,
    alone_times: Dict[str, float],
    slack: float = 0.0,
) -> Dict[str, float]:
    """Serialized start times for a two-application scenario at one delay.

    The first application (by requested start time) keeps its start; every
    following application is pushed back until the previous one's I/O phase
    is expected to be over (its start plus its interference-free write time,
    plus ``slack``).
    """
    if len(scenario.applications) < 2:
        raise ExperimentError("coordination needs at least two applications")
    requested = {app.name: 0.0 for app in scenario.applications}
    requested[scenario.applications[1].name] = float(delta)
    order = sorted(requested, key=lambda name: (requested[name], name))
    starts: Dict[str, float] = {}
    previous_end: Optional[float] = None
    for name in order:
        start = requested[name]
        if previous_end is not None:
            start = max(start, previous_end + slack)
        starts[name] = start
        previous_end = start + alone_times[name]
    return starts


def evaluate_coordination(
    scenario: ScenarioConfig,
    deltas: Optional[Sequence[float]] = None,
    n_points: int = 5,
    slack: float = 0.0,
    seed: Optional[int] = None,
    label: str = "",
) -> CoordinationOutcome:
    """Compare interfering execution against coordinated (serialized) execution.

    Parameters
    ----------
    scenario:
        The two-application scenario to evaluate.
    deltas:
        Delays between the applications' *requested* I/O phases; defaults to
        a symmetric span around the interference window.
    n_points:
        Number of delays when ``deltas`` is not given.
    slack:
        Extra gap (seconds) the scheduler leaves between serialized phases.
    seed:
        Seed override for common random numbers across runs.
    label:
        Label stored on the outcome.
    """
    if len(scenario.applications) < 2:
        raise ExperimentError("coordination evaluation needs two applications")
    return run_staged(_coordination_stages(scenario, deltas, n_points, slack, seed, label))


def _coordination_stages(
    scenario: ScenarioConfig, deltas: Optional[Sequence[float]], n_points: int,
    slack: float, seed: Optional[int], label: str,
) -> Staged:
    """:func:`evaluate_coordination` as a staged computation: the alone run,
    then every interfering and coordinated run in one round."""
    first = scenario.applications[0].name
    alone_result = yield from alone_stage(scenario, seed)
    alone_times = {
        app.name: alone_result.write_time(first) for app in scenario.applications
    }
    if deltas is None:
        deltas = default_deltas(alone_times[first], n_points=n_points)
    deltas = [float(delta) for delta in deltas]

    schedules = [
        coordinated_start_times(scenario, delta, alone_times, slack=slack)
        for delta in deltas
    ]
    runs = []
    for delta, starts in zip(deltas, schedules):
        serialized_apps = [
            app.with_start_time(starts[app.name]) for app in scenario.applications
        ]
        runs += [scenario.with_delay(delta), scenario.with_applications(serialized_apps)]
    results = yield [(run, seed) for run in runs]

    points: List[CoordinationPoint] = []
    for delta, starts, interfering, coordinated in zip(
        deltas, schedules, results[0::2], results[1::2]
    ):
        requested_start = {app.name: 0.0 for app in scenario.applications}
        requested_start[scenario.applications[1].name] = delta
        points.append(
            CoordinationPoint(
                delta=delta,
                interfering_write_times={
                    name: result.write_time for name, result in interfering.applications.items()
                },
                coordinated_write_times={
                    name: result.write_time for name, result in coordinated.applications.items()
                },
                interfering_completion_times={
                    name: result.end_time - requested_start[name]
                    for name, result in interfering.applications.items()
                },
                coordinated_completion_times={
                    name: result.end_time - requested_start[name]
                    for name, result in coordinated.applications.items()
                },
                scheduler_wait={
                    name: starts[name] - requested_start[name]
                    for name in requested_start
                },
            )
        )

    return CoordinationOutcome(
        points=points, alone_times=alone_times, label=label or scenario.label
    )
