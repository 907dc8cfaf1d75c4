"""Declarative parameter grids over the paper's experimental knobs.

A :class:`ParameterGrid` is a cartesian product over named axes — device,
sync mode, access pattern, network, stripe size, request size — turning the
one-off ``repro-io sweep`` into batch scenario exploration:

.. code-block:: python

    from repro.runner.grid import ParameterGrid, run_grid

    grid = ParameterGrid({
        "device": ["hdd", "ssd"],
        "sync": ["sync-on", "sync-off"],
        "pattern": ["contiguous", "strided"],
    })
    result = run_grid(grid, scale="tiny", jobs=4, store_dir="runs/")
    print(result.to_rows())

Each grid point runs a full Δ-graph sweep (in parallel via
:mod:`repro.runner.executor`), gets a deterministic per-task seed, and — when
a store directory is given — is persisted as a run directory with a
verifiable ``manifest.json`` (:mod:`repro.runner.store`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import units
from repro.core.delta import DeltaSweep, jsonify
from repro.errors import ExperimentError
from repro.runner.executor import ParallelExecutor, TaskSpec, derive_task_seed
from repro.runner.store import RunStore

__all__ = [
    "GRID_AXES",
    "ParameterGrid",
    "GridPointResult",
    "GridResult",
    "run_grid",
    "run_grid_point_task",
]


def _scenario_kwargs(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Translate grid-axis values into ``make_scenario`` keyword arguments."""
    kwargs: Dict[str, Any] = {}
    for axis, value in params.items():
        target, convert = GRID_AXES[axis]
        kwargs[target] = convert(value)
    return kwargs


#: Axis name -> (make_scenario keyword, converter).  Sizes are given in KiB
#: on the grid (matching the CLI flags) and converted to bytes here.
GRID_AXES: Dict[str, Tuple[str, Callable[[Any], Any]]] = {
    "device": ("device", str),
    "sync": ("sync_mode", str),
    "pattern": ("pattern", str),
    "network": ("network", str),
    "stripe_kib": ("stripe_size", lambda v: float(v) * units.KiB),
    "request_kib": ("request_size", lambda v: float(v) * units.KiB),
}


@dataclass(frozen=True)
class ParameterGrid:
    """A cartesian product over named experiment axes.

    ``axes`` maps axis names (a subset of :data:`GRID_AXES`) to the values to
    explore.  Point order is deterministic: axes iterate in insertion order,
    values in the order given.
    """

    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ExperimentError("a parameter grid needs at least one axis")
        for axis, values in self.axes.items():
            if axis not in GRID_AXES:
                raise ExperimentError(
                    f"unknown grid axis {axis!r}; available: {sorted(GRID_AXES)}"
                )
            if not values:
                raise ExperimentError(f"grid axis {axis!r} has no values")

    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> "ParameterGrid":
        """Parse CLI-style axis specs: ``["device=hdd,ssd", "sync=sync-on"]``."""
        axes: Dict[str, List[str]] = {}
        for spec in specs:
            if "=" not in spec:
                raise ExperimentError(
                    f"bad axis spec {spec!r}; expected NAME=VALUE[,VALUE...]"
                )
            name, _, raw = spec.partition("=")
            values = [v.strip() for v in raw.split(",") if v.strip()]
            if not values:
                raise ExperimentError(f"axis spec {spec!r} lists no values")
            axes[name.strip()] = values
        return cls(axes)

    def __len__(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def points(self) -> List[Dict[str, Any]]:
        """Every grid point as an ``{axis: value}`` mapping (stable order)."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]

    @staticmethod
    def point_id(params: Mapping[str, Any]) -> str:
        """Stable, filesystem-safe identifier of one grid point."""
        parts = []
        for axis in sorted(params):
            value = params[axis]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            parts.append(f"{axis}-{text}" if axis.endswith("_kib") else text)
        return "_".join(parts).replace("/", "-").replace(" ", "-")


@dataclass
class GridPointResult:
    """Outcome of one grid point: its sweep, summary, and (optional) run dir."""

    point_id: str
    params: Dict[str, Any]
    seed: int
    sweep: DeltaSweep
    summary: Dict[str, float]
    run_dir: Optional[str] = None


@dataclass
class GridResult:
    """Outcome of one full grid execution."""

    scale: str
    points: List[GridPointResult] = field(default_factory=list)
    store_root: Optional[str] = None

    def __len__(self) -> int:
        return len(self.points)

    def point(self, point_id: str) -> GridPointResult:
        """The result of one grid point."""
        for pt in self.points:
            if pt.point_id == point_id:
                return pt
        raise ExperimentError(f"grid has no point {point_id!r}")

    def to_rows(self) -> List[Dict[str, Any]]:
        """One flat summary row per grid point (for table/CSV export)."""
        rows = []
        for pt in self.points:
            row: Dict[str, Any] = dict(pt.params)
            row["peak_IF"] = round(pt.summary["peak_interference_factor"], 2)
            row["asymmetry"] = round(pt.summary["asymmetry_index"], 3)
            row["flatness"] = round(pt.summary["flatness_index"], 2)
            row["collapses"] = int(pt.summary["total_window_collapses"])
            if pt.run_dir:
                row["run_dir"] = pt.run_dir
            rows.append(row)
        return rows


def run_grid_point_task(payload: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    """Executor worker (task kind ``grid-point``): one point's full Δ-sweep.

    Payload keys: ``scale``, ``params`` (``make_scenario`` keyword
    overrides, already translated by :func:`_scenario_kwargs`),
    ``n_points``.  Returns the serialized sweep plus its headline summary.
    """
    from repro.core.experiment import TwoApplicationExperiment

    params = dict(payload["params"])
    if seed is not None:
        params.setdefault("seed", int(seed))
    experiment = TwoApplicationExperiment(payload["scale"], **params)
    sweep = experiment.run_sweep(n_points=int(payload["n_points"]))
    return {
        "sweep": sweep.to_dict(),
        "summary": jsonify(sweep.summary()),
        "alone_time": float(experiment.alone_time()),
    }


def run_grid(
    grid: ParameterGrid,
    scale: str = "reduced",
    *,
    n_points: int = 5,
    jobs: int = 1,
    master_seed: int = 0,
    store_dir: Optional[str] = None,
    progress: Optional[Callable[[str, GridPointResult], None]] = None,
) -> GridResult:
    """Execute every grid point (parallel across points) and persist runs.

    Parameters
    ----------
    grid:
        The parameter grid to explore.
    scale:
        Scale preset for every point (``"tiny"``, ``"reduced"``, ``"paper"``).
    n_points:
        Δ-sweep points per grid point.
    jobs:
        Worker processes for the executor.  Every point runs under the
        executor's strict default policy: the first point that fails stops
        the grid with :class:`~repro.errors.ExperimentError` naming it,
        after the points already completed were persisted.
    master_seed:
        Seed the per-task seeds are derived from.
    store_dir:
        When given, each point is persisted as a run directory (manifest +
        sweep/summary artifacts) under this root.
    progress:
        Optional callback ``progress(point_id, result)`` per completed point.
    """
    from repro.analysis.tables import rows_to_csv  # local: avoids import cycle

    point_params = grid.points()
    params_by_id: Dict[str, Dict[str, Any]] = {}
    tasks = []
    for params in point_params:
        point_id = ParameterGrid.point_id(params)
        params_by_id[point_id] = params
        tasks.append(
            TaskSpec(
                task_id=point_id,
                kind="grid-point",
                payload={
                    "scale": scale,
                    "params": _scenario_kwargs(params),
                    "n_points": n_points,
                },
                seed=derive_task_seed(master_seed, point_id),
            )
        )

    store = RunStore(store_dir) if store_dir else None
    result = GridResult(scale=scale, store_root=str(store.root) if store else None)
    by_id: Dict[str, GridPointResult] = {}

    def on_done(task: TaskSpec, payload: Dict[str, Any]) -> None:
        params = params_by_id[task.task_id]
        sweep = DeltaSweep.from_dict(payload["sweep"])
        point = GridPointResult(
            point_id=task.task_id,
            params=dict(params),
            seed=int(task.seed),
            sweep=sweep,
            summary={k: float(v) for k, v in payload["summary"].items()},
        )
        if store is not None:
            import json

            run_path = store.write_run(
                task.task_id,
                seed=point.seed,
                config=jsonify(
                    {"scale": scale, "n_points": n_points, "params": dict(params)}
                ),
                artifacts={
                    "sweep.json": json.dumps(payload["sweep"], indent=2, sort_keys=True),
                    "summary.json": json.dumps(
                        payload["summary"], indent=2, sort_keys=True
                    ),
                    "sweep.csv": rows_to_csv(sweep.rows()),
                },
            )
            point.run_dir = str(run_path)
        by_id[task.task_id] = point
        if progress is not None:
            progress(task.task_id, point)

    ParallelExecutor(jobs=jobs).map(tasks, progress=on_done)
    result.points = [by_id[t.task_id] for t in tasks]
    return result
