"""Figure 6 and Table II — influence of the number of storage servers.

With synchronization disabled, the paper deploys PVFS on 4, 8, 12 and 24
servers.  More servers increase the aggregate throughput an application can
reach (Figure 6(a)) and shift the Δ-graph (Figure 6(b)), but the *relative*
interference barely changes: the peak interference factor stays close to 2
for every deployment size (Table II), because each server still serves the
same number of clients.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import units
from repro.core.delta import gather
from repro.core.experiment import TwoApplicationExperiment
from repro.experiments.base import ExperimentResult, staged

__all__ = ["run", "PAPER_TABLE2"]

#: Table II of the paper: peak interference factor per number of servers.
PAPER_TABLE2 = {4: 2.22, 8: 2.28, 12: 2.07, 24: 2.00}


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    server_counts: Optional[Sequence[int]] = None,
    n_points: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Figure 6 (throughput scaling + Δ-graphs) and Table II."""
    counts = list(server_counts) if server_counts is not None else [4, 8, 12, 24]
    points = n_points if n_points is not None else (5 if quick else 7)

    result = ExperimentResult(
        experiment_id="figure6",
        title="Influence of the number of storage servers",
        paper_reference="Figure 6 (a)-(b) and Table II",
    )
    exps = [
        TwoApplicationExperiment(
            scale,
            device="hdd",
            sync_mode="sync-off",
            pattern="contiguous",
            n_servers=n_servers,
            # The paper reduces the per-client volume on the smallest
            # deployment because of its lower capacity; mirror that.
            bytes_per_process=(
                16 * units.MiB if (n_servers <= 4 and scale != "paper") else None
            ),
            # Use enough client nodes that even the largest deployment stays
            # server-bound, as on the paper's 60-node testbed.
            nodes_per_app=24 if (scale == "reduced" and n_servers >= 24) else None,
        )
        for n_servers in counts
    ]
    sweeps = yield from gather(
        exp.sweep_stages(n_points=points, label=f"{n_servers} servers")
        for n_servers, exp in zip(counts, exps)
    )
    scaling_rows = []
    table2_rows = []
    for n_servers, exp, sweep in zip(counts, exps, sweeps):
        result.add_sweep(f"servers_{n_servers}", sweep)

        first = exp.scenario.applications[0].name
        alone = exp.baseline()
        max_throughput = alone.throughput(first)
        # Minimum throughput: the dt=0 point of the sweep.
        point0 = sweep.point_at(0.0)
        min_throughput = min(point0.throughputs.values())
        peak_if = sweep.peak_interference_factor()

        scaling_rows.append(
            {
                "servers": n_servers,
                "max_throughput_GBps": round(max_throughput / units.GiB, 2),
                "min_throughput_GBps": round(min_throughput / units.GiB, 2),
            }
        )
        table2_rows.append(
            {
                "servers": n_servers,
                "peak_interference_factor": round(peak_if, 2),
                "paper_value": PAPER_TABLE2.get(n_servers, float("nan")),
            }
        )
        result.add_metric(f"peak_if.{n_servers}", peak_if)
        result.add_metric(f"max_throughput.{n_servers}", max_throughput)
    result.add_table("figure6a_scaling", scaling_rows)
    result.add_table("table2_interference", table2_rows)
    result.add_note(
        "Expected shape: the maximum throughput grows with the number of "
        "servers, but the peak interference factor stays roughly constant "
        "around 2 (Table II)."
    )
    return result
