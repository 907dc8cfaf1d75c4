"""The canonical two-application experiment.

:class:`TwoApplicationExperiment` wraps the scenario construction of
:func:`repro.config.presets.make_scenario` together with the Δ-graph sweep of
:mod:`repro.core.delta` and the interference-free baseline, so a complete
paper-style experiment reads:

.. code-block:: python

    exp = TwoApplicationExperiment("reduced", device="hdd", sync_mode="sync-on")
    sweep = exp.run_sweep()
    print(sweep.peak_interference_factor(), sweep.asymmetry_index())
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.config.presets import make_scenario
from repro.config.scenario import ScenarioConfig
from repro.core.delta import DeltaSweep, default_deltas, run_delta_sweep
from repro.errors import ExperimentError
from repro.model.results import RunResult
from repro.model.simulator import simulate_scenario

__all__ = ["TwoApplicationExperiment"]


class TwoApplicationExperiment:
    """Two identical applications contending on one PVFS deployment.

    Parameters
    ----------
    scale:
        Scale preset name (``"tiny"``, ``"reduced"``, ``"paper"``) or a
        :class:`~repro.config.presets.ScalePreset`.
    scenario:
        Optional fully built scenario; when given, ``scale`` and the keyword
        arguments are ignored.
    **scenario_kwargs:
        Passed straight to :func:`repro.config.presets.make_scenario`
        (device, sync_mode, pattern, stripe_size, network, ...).
    """

    def __init__(
        self,
        scale: str = "reduced",
        scenario: Optional[ScenarioConfig] = None,
        **scenario_kwargs: Any,
    ) -> None:
        if scenario is not None:
            if len(scenario.applications) < 2:
                raise ExperimentError(
                    "TwoApplicationExperiment needs a scenario with two applications"
                )
            self.scenario = scenario
        else:
            self.scenario = make_scenario(scale, **scenario_kwargs)
        self._alone_result: Optional[RunResult] = None
        self._seed = self.scenario.control.seed

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #

    def baseline(self, force: bool = False) -> RunResult:
        """Interference-free run of the first application (cached)."""
        if self._alone_result is None or force:
            alone = self.scenario.with_applications(self.scenario.applications[:1])
            self._alone_result = simulate_scenario(alone, seed=self._seed)
        return self._alone_result

    def alone_time(self) -> float:
        """Interference-free write time of one application."""
        first = self.scenario.applications[0].name
        return self.baseline().write_time(first)

    def run_point(self, delay: float) -> RunResult:
        """Run both applications with the given start delay."""
        return simulate_scenario(self.scenario.with_delay(float(delay)), seed=self._seed)

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #

    def pick_deltas(self, n_points: int = 9) -> List[float]:
        """Delays spanning the interference window of this configuration."""
        return default_deltas(self.alone_time(), n_points=n_points)

    def run_sweep(
        self,
        deltas: Optional[Sequence[float]] = None,
        n_points: int = 9,
        label: str = "",
        jobs: int = 1,
    ) -> DeltaSweep:
        """Run a full Δ-graph sweep (delays default to :meth:`pick_deltas`).

        ``jobs > 1`` fans the individual sweep points across worker
        processes (see :func:`~repro.core.delta.run_delta_sweep`); the
        result is identical to the serial sweep.
        """
        if deltas is None:
            deltas = self.pick_deltas(n_points=n_points)
        return run_delta_sweep(
            self.scenario,
            deltas,
            alone_result=self.baseline(),
            seed=self._seed,
            label=label or self.scenario.label,
            jobs=jobs,
        )

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    def headline_metrics(
        self, deltas: Optional[Sequence[float]] = None, n_points: int = 7
    ) -> Dict[str, float]:
        """Peak interference factor, asymmetry and flatness for this setup."""
        sweep = self.run_sweep(deltas=deltas, n_points=n_points)
        summary = sweep.summary()
        summary["alone_time"] = self.alone_time()
        return summary

    def describe(self) -> str:
        """Multi-line description of the experiment configuration."""
        return self.scenario.describe()
