"""Figure 4 — influence of the network interface (writers per node).

The paper compares two layouts of the same total volume: all 16 cores of
each node writing 64 MiB each, versus a single writer per node writing
16 x 64 MiB.  Fewer writers per node improve single-application performance
*and* remove the unfair interference, because each server talks to 16x fewer
sockets and the node serializes its own requests.
"""

from __future__ import annotations

from typing import Optional

from repro.core.delta import gather
from repro.core.experiment import TwoApplicationExperiment
from repro.core.scenarios import dedicated_writer_scenario
from repro.experiments.base import ExperimentResult, staged

__all__ = ["run"]


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    n_points: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Figure 4 (all cores vs one writer per node)."""
    points = n_points if n_points is not None else (5 if quick else 9)
    result = ExperimentResult(
        experiment_id="figure4",
        title="Influence of the network interface: writers per node",
        paper_reference="Figure 4",
    )

    base = TwoApplicationExperiment(scale, device="hdd", sync_mode="sync-on",
                                    pattern="contiguous")
    dedicated = TwoApplicationExperiment(
        scenario=dedicated_writer_scenario(base.scenario)
    )
    sweep_all, sweep_one = yield from gather([
        base.sweep_stages(n_points=points, label="all cores write"),
        dedicated.sweep_stages(n_points=points, label="1 writer per node"),
    ])
    result.add_sweep("all_cores", sweep_all)
    result.add_sweep("one_writer_per_node", sweep_one)

    rows = [
        {
            "configuration": "16 writers per node",
            "alone_s": round(base.alone_time(), 2),
            "peak_IF": round(sweep_all.peak_interference_factor(), 2),
            "asymmetry": round(sweep_all.asymmetry_index(), 3),
            "collapses": sweep_all.total_collapses(),
        },
        {
            "configuration": "1 writer per node",
            "alone_s": round(dedicated.alone_time(), 2),
            "peak_IF": round(sweep_one.peak_interference_factor(), 2),
            "asymmetry": round(sweep_one.asymmetry_index(), 3),
            "collapses": sweep_one.total_collapses(),
        },
    ]
    result.add_table("figure4_summary", rows)
    result.add_metric("interference_reduction",
                      sweep_all.peak_interference_factor() - sweep_one.peak_interference_factor())
    result.add_note(
        "Expected shape: the single-writer configuration has fewer window "
        "collapses, a lower or equal peak interference factor, and a much "
        "smaller asymmetry (fair sharing)."
    )
    return result
