"""Common interface for interference mitigations.

A mitigation is a named transformation of a two-application scenario.  The
evaluation harness runs a Δ-graph sweep with and without the mitigation and
reports how the peak interference factor, the asymmetry, and the
interference-free performance change — the last one matters because the
paper warns that removing interference is worthless if it costs more
single-application performance than it saves (Section IV-A7).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.config.scenario import ScenarioConfig
from repro.core.delta import (
    Staged,
    alone_stage,
    default_deltas,
    delta_stages,
    gather,
    run_staged,
)
from repro.errors import ExperimentError

__all__ = ["Mitigation", "MitigationOutcome", "evaluate_mitigation"]


class Mitigation(abc.ABC):
    """A named scenario transformation."""

    #: Human-readable name used in reports.
    name: str = "mitigation"

    @abc.abstractmethod
    def apply(self, scenario: ScenarioConfig) -> ScenarioConfig:
        """Return the scenario with the mitigation applied."""

    def describe(self) -> str:
        """One-line description (defaults to the class docstring's first line)."""
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name


@dataclass(frozen=True)
class MitigationOutcome:
    """Before/after comparison of one mitigation."""

    name: str
    baseline_alone_time: float
    mitigated_alone_time: float
    baseline_peak_if: float
    mitigated_peak_if: float
    baseline_asymmetry: float
    mitigated_asymmetry: float

    @property
    def interference_reduction(self) -> float:
        """Reduction of the peak interference factor (positive = better)."""
        return self.baseline_peak_if - self.mitigated_peak_if

    @property
    def alone_cost(self) -> float:
        """Relative cost to interference-free performance (positive = slower)."""
        return self.mitigated_alone_time / self.baseline_alone_time - 1.0

    def worth_it(self, max_alone_cost: float = 0.25) -> bool:
        """Does the mitigation cut interference without hurting the baseline much?

        The paper's warning (Section IV-A7): a configuration that removes
        interference but is far from optimal for a single application is not
        a real solution.
        """
        return self.interference_reduction > 0.2 and self.alone_cost <= max_alone_cost

    def summary(self) -> Dict[str, float]:
        """Flat dictionary for tables."""
        return {
            "alone_time_baseline": self.baseline_alone_time,
            "alone_time_mitigated": self.mitigated_alone_time,
            "peak_if_baseline": self.baseline_peak_if,
            "peak_if_mitigated": self.mitigated_peak_if,
            "asymmetry_baseline": self.baseline_asymmetry,
            "asymmetry_mitigated": self.mitigated_asymmetry,
            "interference_reduction": self.interference_reduction,
            "alone_cost": self.alone_cost,
        }


def _sweep_stages(scenario: ScenarioConfig, deltas: Optional[Sequence[float]]) -> Staged:
    """One configuration's sweep as a staged computation: its alone run,
    then its points (by default 5, picked from the alone time)."""
    alone_result = yield from alone_stage(scenario, None)
    first = scenario.applications[0].name
    if deltas is None:
        deltas = default_deltas(alone_result.write_time(first), n_points=5)
    return (yield from delta_stages(scenario, deltas, alone_result=alone_result))


def evaluate_mitigation(
    mitigation: Mitigation,
    scenario: ScenarioConfig,
    deltas: Optional[Sequence[float]] = None,
) -> MitigationOutcome:
    """Run the before/after comparison for one mitigation.

    Both the baseline and the mitigated configuration get their own
    interference-free baseline and Δ sweep (delays are chosen per
    configuration since the mitigation may change the interference window).
    The two sweeps run side by side (:func:`~repro.core.delta.gather`): both
    alone runs in one round, then both sets of points.
    """
    if len(scenario.applications) < 2:
        raise ExperimentError("mitigation evaluation needs a two-application scenario")
    mitigated_scenario = mitigation.apply(scenario)
    baseline_sweep, mitigated_sweep = run_staged(gather(
        _sweep_stages(config, deltas) for config in (scenario, mitigated_scenario)
    ))
    first = scenario.applications[0].name
    return MitigationOutcome(
        name=mitigation.name,
        baseline_alone_time=baseline_sweep.alone_time(first),
        mitigated_alone_time=mitigated_sweep.alone_time(
            mitigated_scenario.applications[0].name
        ),
        baseline_peak_if=baseline_sweep.peak_interference_factor(),
        mitigated_peak_if=mitigated_sweep.peak_interference_factor(),
        baseline_asymmetry=baseline_sweep.asymmetry_index(),
        mitigated_asymmetry=mitigated_sweep.asymmetry_index(),
    )
