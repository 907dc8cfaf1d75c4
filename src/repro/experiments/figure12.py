"""Figure 12 — appearance of the Incast problem as the client count grows.

Keeping the deployment fixed (12 servers, HDD, sync ON), the paper varies the
total number of clients from 128 to 960.  At small client counts the
Δ-graph is the symmetric triangle of plain device sharing; as the count
grows, window collapses appear and the graph becomes unfair (the first
application wins).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.delta import gather
from repro.core.experiment import TwoApplicationExperiment
from repro.experiments.base import ExperimentResult, staged

__all__ = ["run"]


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    procs_per_node_values: Optional[Sequence[int]] = None,
    n_points: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Figure 12 (client-count sweep).

    The client count is varied through the number of writer processes per
    node, as in the paper (all nodes stay allocated).  At the reduced scale
    the default sweep is 2, 4, 6 and 8 processes per node (96 to 384 total
    clients).
    """
    values = (
        list(procs_per_node_values)
        if procs_per_node_values is not None
        else ([2, 8] if quick else [2, 4, 6, 8])
    )
    points = n_points if n_points is not None else (5 if quick else 7)
    result = ExperimentResult(
        experiment_id="figure12",
        title="Appearance of Incast as the number of clients grows",
        paper_reference="Figure 12",
    )
    exps = [
        TwoApplicationExperiment(
            scale,
            device="hdd",
            sync_mode="sync-on",
            pattern="contiguous",
            procs_per_node=procs,
        )
        for procs in values
    ]
    clients = [sum(app.n_processes for app in exp.scenario.applications) for exp in exps]
    sweeps = yield from gather(
        exp.sweep_stages(n_points=points, label=f"{total_clients} clients")
        for exp, total_clients in zip(exps, clients)
    )
    rows = []
    for procs, exp, total_clients, sweep in zip(values, exps, clients, sweeps):
        result.add_sweep(f"clients_{total_clients}", sweep)
        rows.append(
            {
                "total_clients": total_clients,
                "procs_per_node": procs,
                "alone_s": round(exp.alone_time(), 2),
                "peak_IF": round(sweep.peak_interference_factor(), 2),
                "asymmetry": round(sweep.asymmetry_index(), 3),
                "collapses": sweep.total_collapses(),
            }
        )
        result.add_metric(f"asymmetry.{total_clients}", sweep.asymmetry_index())
        result.add_metric(f"collapses.{total_clients}", float(sweep.total_collapses()))
    result.add_table("figure12_summary", rows)
    result.add_note(
        "Expected shape: window collapses and the (positive) asymmetry of the "
        "delta-graph appear only above a client-count threshold; below it the "
        "interference is the symmetric sharing of the backend device."
    )
    return result
