"""The canonical two-application experiment.

:class:`TwoApplicationExperiment` wraps the scenario construction of
:func:`repro.config.presets.make_scenario` together with the Δ-graph sweep of
:mod:`repro.core.delta` and the interference-free baseline, so a complete
paper-style experiment reads:

.. code-block:: python

    exp = TwoApplicationExperiment("reduced", device="hdd", sync_mode="sync-on")
    sweep = exp.run_sweep()
    print(sweep.peak_interference_factor(), sweep.asymmetry_index())

:meth:`TwoApplicationExperiment.sweep_stages` is the same sweep as a staged
computation (:mod:`repro.core.delta`): a baseline round, then the points at
delays picked from the baseline's alone time.  An experiment that runs
several sweeps gathers them (:func:`~repro.core.delta.gather`), so all its
baselines run in one round and all its points in the next, and the paper
campaign gathers every experiment's sweeps the same way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.config.presets import make_scenario
from repro.config.scenario import ScenarioConfig
from repro.core.delta import (
    DeltaSweep,
    Staged,
    alone_stage,
    default_deltas,
    delta_stages,
    run_staged,
)
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

    def sweep_stages(
        self,
        deltas: Optional[Sequence[float]] = None,
        n_points: int = 9,
        label: str = "",
    ) -> Staged:
        """:meth:`run_sweep` as a staged computation: a baseline round
        (skipped when the baseline is already cached here), then the points
        of :func:`~repro.core.delta.delta_stages`.  Returns the sweep."""
        if self._alone_result is None:
            self._alone_result = yield from alone_stage(self.scenario, self._seed)
        if deltas is None:
            deltas = self.pick_deltas(n_points=n_points)
        return (yield from delta_stages(
            self.scenario, deltas, alone_result=self._alone_result, seed=self._seed,
            label=label,
        ))

    def run_sweep(
        self,
        deltas: Optional[Sequence[float]] = None,
        n_points: int = 9,
        label: str = "",
        jobs: int = 1,
    ) -> DeltaSweep:
        """Run a full Δ-graph sweep (delays default to :meth:`pick_deltas`).

        Drives :meth:`sweep_stages`; with ``jobs > 1`` each round's buckets
        are spread across that many worker processes
        (:func:`~repro.core.delta.run_staged`), and the result is identical
        to the serial sweep.
        """
        return run_staged(
            self.sweep_stages(deltas, n_points=n_points, label=label), jobs=jobs
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
