"""Compact append-only time series.

The simulator records many per-component series (buffer occupancy, congestion
windows, application progress).  :class:`TimeSeries` stores them in growable
NumPy buffers with amortized O(1) appends and exposes a small analysis API
(resampling, integration, min/max/mean over windows) used by
:mod:`repro.analysis` and :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.errors import AnalysisError

__all__ = ["TimeSeries"]

#: Samples a new series has room for before its first grow.  Most series
#: are short (the tiny fleet matrix records 222, median 32 samples), so a
#: small start saves memory and doubling keeps appends amortized O(1).
_INITIAL_CAPACITY = 16


class TimeSeries:
    """An append-only ``(time, value)`` series backed by NumPy arrays.

    Times must be appended in non-decreasing order; this is validated because
    an out-of-order sample almost always indicates a bug in the caller.
    """

    def __init__(self, name: str = "", unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._values = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #

    def append(self, time: float, value: float) -> None:
        """Append one sample; ``time`` must not precede the last sample."""
        if self._size and time < self._times[self._size - 1]:
            raise AnalysisError(
                f"time series {self.name!r}: sample at t={time} precedes "
                f"last sample at t={self._times[self._size - 1]}"
            )
        if self._size == self._times.shape[0]:
            self._grow()
        self._times[self._size] = time
        self._values[self._size] = value
        self._size += 1

    def extend(self, times: Iterable[float], values: Iterable[float]) -> None:
        """Bulk-append samples: vectorized validation, one capacity grow.

        Equivalent to calling :meth:`append` for each pair, but the
        monotonicity check runs as a single ``np.diff`` and the backing
        arrays grow at most once, so tracing hot paths (periodic sampling,
        recorder merges) pay O(n) instead of n validated appends.
        """
        if not isinstance(times, (np.ndarray, list, tuple)):
            times = list(times)
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise AnalysisError("times and values must have the same shape")
        if times.ndim != 1:
            raise AnalysisError("times and values must be one-dimensional")
        n = times.shape[0]
        if n == 0:
            return
        if times.shape[0] > 1 and np.any(np.diff(times) < 0):
            raise AnalysisError(
                f"time series {self.name!r}: bulk samples are not in "
                "non-decreasing time order"
            )
        if self._size and times[0] < self._times[self._size - 1]:
            raise AnalysisError(
                f"time series {self.name!r}: sample at t={times[0]} precedes "
                f"last sample at t={self._times[self._size - 1]}"
            )
        needed = self._size + n
        if needed > self._times.shape[0]:
            self._grow(minimum=needed)
        self._times[self._size : needed] = times
        self._values[self._size : needed] = values
        self._size = needed

    @classmethod
    def from_arrays(
        cls, times: np.ndarray, values: np.ndarray, name: str = "", unit: str = ""
    ) -> "TimeSeries":
        """Build a series from existing arrays (copied, order-validated)."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise AnalysisError("times and values must have the same shape")
        if times.ndim != 1:
            raise AnalysisError("times and values must be one-dimensional")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise AnalysisError("times must be non-decreasing")
        series = cls(name=name, unit=unit)
        series._times = times.copy()
        series._values = values.copy()
        series._size = times.size
        return series

    def _grow(self, minimum: int = 0) -> None:
        new_capacity = max(_INITIAL_CAPACITY, self._times.shape[0] * 2, minimum)
        new_times = np.empty(new_capacity, dtype=np.float64)
        new_values = np.empty(new_capacity, dtype=np.float64)
        new_times[: self._size] = self._times[: self._size]
        new_values[: self._size] = self._values[: self._size]
        self._times = new_times
        self._values = new_values

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def times(self) -> np.ndarray:
        """View of the sample times (do not mutate)."""
        return self._times[: self._size]

    @property
    def values(self) -> np.ndarray:
        """View of the sample values (do not mutate)."""
        return self._values[: self._size]

    def is_empty(self) -> bool:
        """True if no samples have been recorded."""
        return self._size == 0

    def last(self) -> Tuple[float, float]:
        """Return the most recent ``(time, value)`` sample."""
        if self._size == 0:
            raise AnalysisError(f"time series {self.name!r} is empty")
        return float(self._times[self._size - 1]), float(self._values[self._size - 1])

    def value_at(self, time: float) -> float:
        """Value of the step function defined by the samples at ``time``.

        The series is interpreted as piecewise-constant (sample-and-hold):
        the value at ``time`` is the value of the latest sample at or before
        ``time``.  Before the first sample the first value is returned.
        """
        if self._size == 0:
            raise AnalysisError(f"time series {self.name!r} is empty")
        idx = int(np.searchsorted(self.times, time, side="right")) - 1
        idx = max(idx, 0)
        return float(self._values[idx])

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #

    def duration(self) -> float:
        """Time spanned by the samples (0 for fewer than two samples)."""
        if self._size < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])

    def mean(self) -> float:
        """Time-weighted mean of the piecewise-constant series."""
        if self._size == 0:
            raise AnalysisError(f"time series {self.name!r} is empty")
        if self._size == 1 or self.duration() == 0.0:
            return float(self.values[-1])
        dt = np.diff(self.times)
        mean = float(np.sum(self.values[:-1] * dt) / np.sum(dt))
        # Accumulation rounding can push the quotient a few ULPs outside the
        # sampled range; the exact time-weighted mean never leaves it.
        return float(np.clip(mean, self.min(), self.max()))

    def max(self) -> float:
        """Maximum sampled value."""
        if self._size == 0:
            raise AnalysisError(f"time series {self.name!r} is empty")
        return float(np.max(self.values))

    def min(self) -> float:
        """Minimum sampled value."""
        if self._size == 0:
            raise AnalysisError(f"time series {self.name!r} is empty")
        return float(np.min(self.values))

    def integral(self) -> float:
        """Integral of the piecewise-constant series over its duration."""
        if self._size < 2:
            return 0.0
        dt = np.diff(self.times)
        return float(np.sum(self.values[:-1] * dt))

    def resample(self, times: np.ndarray) -> np.ndarray:
        """Sample-and-hold resampling of the series at ``times``."""
        times = np.asarray(times, dtype=np.float64)
        if self._size == 0:
            raise AnalysisError(f"time series {self.name!r} is empty")
        idx = np.searchsorted(self.times, times, side="right") - 1
        idx = np.clip(idx, 0, self._size - 1)
        return self.values[idx]

    def window(self, start: float, end: float) -> "TimeSeries":
        """Return a new series restricted to samples with start <= t <= end."""
        if end < start:
            raise AnalysisError(f"window end {end} precedes start {start}")
        mask = (self.times >= start) & (self.times <= end)
        return TimeSeries.from_arrays(
            self.times[mask], self.values[mask], name=self.name, unit=self.unit
        )

    def diff(self) -> "TimeSeries":
        """Series of first differences of values, timestamped at the later sample."""
        if self._size < 2:
            return TimeSeries(name=f"{self.name}.diff", unit=self.unit)
        return TimeSeries.from_arrays(
            self.times[1:], np.diff(self.values), name=f"{self.name}.diff", unit=self.unit
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "name": self.name,
            "unit": self.unit,
            "times": self.times.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeries":
        """Inverse of :meth:`to_dict`."""
        return cls.from_arrays(
            np.asarray(data["times"], dtype=np.float64),
            np.asarray(data["values"], dtype=np.float64),
            name=data.get("name", ""),
            unit=data.get("unit", ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "series"
        return f"<TimeSeries {label!r} n={self._size}>"
