"""Trace recording.

A :class:`TraceRecorder` collects named :class:`~repro.sim.timeseries.TimeSeries`
plus discrete event marks (application start/end, Incast collapse episodes,
flush activations).  The I/O-path model owns one recorder per run; analysis
code in :mod:`repro.core` and :mod:`repro.analysis` consumes it.

Tracing is opt-in per category so that large sweeps (hundreds of Δ-graph
points) don't pay for per-connection window traces they never read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.sim.timeseries import TimeSeries

__all__ = ["TraceMark", "TraceRecorder", "TraceConfig"]


@dataclass(frozen=True)
class TraceMark:
    """A discrete, timestamped annotation (no value series attached)."""

    time: float
    category: str
    label: str
    data: Optional[dict] = None


@dataclass(frozen=True)
class TraceConfig:
    """Which trace categories a run should record.

    Frozen, like every part of a scenario, so equal scenarios hash equal.

    Attributes
    ----------
    series_sample_period:
        Period (simulated seconds) at which periodic series (buffer levels,
        progress, windows) are sampled.
    record_windows:
        Record per-connection congestion-window series for the traced
        connections (Figures 10 and 11).  Expensive for large runs, so the
        set of traced connections can be restricted with
        ``window_connection_limit``.
    record_progress:
        Record per-application progress series (fraction of bytes completed).
    record_server_state:
        Record per-server buffer occupancy, drain rate and utilization.
    record_marks:
        Record discrete marks (collapse episodes, phase starts/ends).
    window_connection_limit:
        Maximum number of connections per application whose windows are
        traced (the paper traces a single client/server pair).
    """

    series_sample_period: float = 0.1
    record_windows: bool = False
    record_progress: bool = True
    record_server_state: bool = True
    record_marks: bool = True
    window_connection_limit: int = 4

    def __post_init__(self) -> None:
        if self.series_sample_period <= 0:
            raise AnalysisError("series_sample_period must be positive")
        if self.window_connection_limit < 0:
            raise AnalysisError("window_connection_limit must be non-negative")

    @property
    def records_series(self) -> bool:
        """True when any periodic series category is enabled.

        The simulator consults this *before* scheduling the sampling event:
        a fully disabled trace skips the per-sample aggregate reductions
        (progress fractions, buffer means, window means) entirely instead of
        computing and discarding them.
        """
        return self.record_windows or self.record_progress or self.record_server_state

    @classmethod
    def minimal(cls) -> "TraceConfig":
        """Cheapest configuration: only discrete marks and progress."""
        return cls(
            series_sample_period=1.0,
            record_windows=False,
            record_progress=False,
            record_server_state=False,
            record_marks=True,
        )

    @classmethod
    def full(cls, sample_period: float = 0.05) -> "TraceConfig":
        """Everything on, for the window/unfairness figures."""
        return cls(
            series_sample_period=sample_period,
            record_windows=True,
            record_progress=True,
            record_server_state=True,
            record_marks=True,
            window_connection_limit=8,
        )


class TraceRecorder:
    """Collects time series and marks produced during one simulation run."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        self._series: Dict[str, TimeSeries] = {}
        self._marks: List[TraceMark] = []

    # ------------------------------------------------------------------ #
    # Series
    # ------------------------------------------------------------------ #

    def series(self, name: str, unit: str = "") -> TimeSeries:
        """Return (creating if needed) the series called ``name``."""
        if name not in self._series:
            self._series[name] = TimeSeries(name=name, unit=unit)
        return self._series[name]

    def record(self, name: str, time: float, value: float, unit: str = "") -> None:
        """Append one sample to the series called ``name``."""
        self.series(name, unit=unit).append(time, value)

    def has_series(self, name: str) -> bool:
        """True if a series called ``name`` exists and has samples."""
        return name in self._series and len(self._series[name]) > 0

    def get_series(self, name: str) -> TimeSeries:
        """Return an existing series or raise :class:`AnalysisError`."""
        if name not in self._series:
            raise AnalysisError(
                f"no trace series named {name!r}; known: {sorted(self._series)[:20]}"
            )
        return self._series[name]

    def series_names(self, prefix: str = "") -> List[str]:
        """Sorted names of recorded series, optionally filtered by prefix."""
        return sorted(name for name in self._series if name.startswith(prefix))

    # ------------------------------------------------------------------ #
    # Marks
    # ------------------------------------------------------------------ #

    def mark(
        self, time: float, category: str, label: str, data: Optional[dict] = None
    ) -> None:
        """Record a discrete annotation if marks are enabled."""
        if not self.config.record_marks:
            return
        self._marks.append(TraceMark(time=time, category=category, label=label, data=data))

    @property
    def marks(self) -> Tuple[TraceMark, ...]:
        """All recorded marks in insertion (and therefore time) order."""
        return tuple(self._marks)

    def marks_in_category(self, category: str) -> List[TraceMark]:
        """All marks with the given category."""
        return [m for m in self._marks if m.category == category]

    def count_marks(self, category: str, label: Optional[str] = None) -> int:
        """Number of marks matching ``category`` (and ``label`` if given)."""
        return sum(
            1
            for m in self._marks
            if m.category == category and (label is None or m.label == label)
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON-serializable dump of all series and marks."""
        return {
            "series": {name: s.to_dict() for name, s in self._series.items()},
            "marks": [
                {
                    "time": m.time,
                    "category": m.category,
                    "label": m.label,
                    "data": m.data,
                }
                for m in self._marks
            ],
        }

    def merge(self, other: "TraceRecorder", prefix: str = "") -> None:
        """Copy series and marks from ``other``, optionally prefixing names."""
        for name, series in other._series.items():
            target = self.series(prefix + name, unit=series.unit)
            target.extend(series.times, series.values)
        for m in other._marks:
            self._marks.append(
                TraceMark(time=m.time, category=m.category, label=prefix + m.label, data=m.data)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecorder series={len(self._series)} marks={len(self._marks)}>"


def iter_series(recorder: TraceRecorder, prefix: str) -> Iterable[TimeSeries]:
    """Yield every series whose name starts with ``prefix``."""
    for name in recorder.series_names(prefix):
        yield recorder.get_series(name)
