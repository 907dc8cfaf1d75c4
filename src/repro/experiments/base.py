"""Common result container for the table/figure reproductions.

Every experiment module exposes a ``run(scale=..., quick=...)`` function that
returns an :class:`ExperimentResult`: a set of named tables (lists of flat
row dictionaries), named Δ-graph sweeps, headline metrics, and a plain-text
report.  Benchmarks print the report; tests assert on the metrics; the CLI
can export the tables as CSV.

An experiment that simulates is written as a staged computation
(:mod:`repro.core.delta`) and decorated with :func:`staged`, which keeps
``run`` returning its result and exposes the generator function as
``run.stages`` for the campaign to gather with other experiments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.analysis.tables import rows_to_csv
from repro.core.delta import DeltaSweep, Staged, jsonify, run_staged
from repro.core.reporting import format_delta_sweep, format_summary, format_table
from repro.errors import AnalysisError

__all__ = ["ExperimentResult", "staged"]


@dataclass
class ExperimentResult:
    """Everything produced by one table/figure reproduction."""

    experiment_id: str
    title: str
    paper_reference: str
    tables: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    sweeps: Dict[str, DeltaSweep] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Mutation helpers used by the experiment modules
    # ------------------------------------------------------------------ #

    def add_table(self, name: str, rows: List[Dict[str, object]]) -> None:
        """Attach a named table (list of flat row dictionaries)."""
        if not rows:
            raise AnalysisError(f"table {name!r} has no rows")
        self.tables[name] = rows

    def add_sweep(self, name: str, sweep: DeltaSweep) -> None:
        """Attach a named Δ-graph sweep."""
        self.sweeps[name] = sweep
        self.metrics[f"{name}.peak_interference_factor"] = sweep.peak_interference_factor()
        self.metrics[f"{name}.asymmetry_index"] = sweep.asymmetry_index()
        self.metrics[f"{name}.flatness_index"] = sweep.flatness_index()

    def add_metric(self, name: str, value: float) -> None:
        """Attach one headline metric."""
        self.metrics[name] = float(value)

    def add_note(self, text: str) -> None:
        """Attach a free-form note shown at the end of the report."""
        self.notes.append(text)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def table(self, name: str) -> List[Dict[str, object]]:
        """A named table."""
        try:
            return self.tables[name]
        except KeyError as exc:
            raise AnalysisError(
                f"experiment {self.experiment_id} has no table {name!r}; "
                f"available: {sorted(self.tables)}"
            ) from exc

    def sweep(self, name: str) -> DeltaSweep:
        """A named Δ-graph sweep."""
        try:
            return self.sweeps[name]
        except KeyError as exc:
            raise AnalysisError(
                f"experiment {self.experiment_id} has no sweep {name!r}; "
                f"available: {sorted(self.sweeps)}"
            ) from exc

    def metric(self, name: str) -> float:
        """A named headline metric."""
        try:
            return self.metrics[name]
        except KeyError as exc:
            raise AnalysisError(
                f"experiment {self.experiment_id} has no metric {name!r}"
            ) from exc

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def report(self) -> str:
        """Full plain-text report (tables, sweeps, metrics, notes)."""
        lines = [f"{self.experiment_id}: {self.title}", f"paper: {self.paper_reference}", ""]
        for name, rows in self.tables.items():
            columns = list(rows[0].keys())
            lines.append(
                format_table(columns, [[row.get(c, "") for c in columns] for row in rows],
                             title=f"[table] {name}")
            )
            lines.append("")
        for name, sweep in self.sweeps.items():
            lines.append(format_delta_sweep(sweep, title=f"[delta-graph] {name}"))
            lines.append("")
        if self.metrics:
            lines.append(format_summary(self.metrics, title="[metrics]"))
            lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def table_csv(self, name: str) -> str:
        """CSV export of one named table."""
        return rows_to_csv(self.table(name))

    def summary(self) -> Mapping[str, float]:
        """All headline metrics."""
        return dict(self.metrics)

    # ------------------------------------------------------------------ #
    # Serialization (runner cache / run store / cross-process transport)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "tables": jsonify(self.tables),
            "sweeps": {name: sweep.to_dict() for name, sweep in self.sweeps.items()},
            "metrics": jsonify(self.metrics),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            paper_reference=str(data["paper_reference"]),
            tables={name: [dict(row) for row in rows]
                    for name, rows in data.get("tables", {}).items()},
            sweeps={name: DeltaSweep.from_dict(payload)
                    for name, payload in data.get("sweeps", {}).items()},
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            notes=[str(n) for n in data.get("notes", [])],
        )


def optional_int(value: Optional[int], default: int) -> int:
    """Small helper for experiment modules with optional point counts."""
    return default if value is None else int(value)


def staged(stages: Callable[..., Staged]) -> Callable[..., "ExperimentResult"]:
    """Make an experiment's ``run`` from its staged generator function.

    The returned function takes the generator function's arguments and
    drives it alone (:func:`~repro.core.delta.run_staged`) to its
    :class:`ExperimentResult`; ``run.stages`` is the generator function.
    """

    @functools.wraps(stages)
    def run(*args, **kwargs) -> ExperimentResult:
        return run_staged(stages(*args, **kwargs))

    run.stages = stages  # type: ignore[attr-defined]
    return run
