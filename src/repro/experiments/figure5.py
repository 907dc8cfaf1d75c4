"""Figure 5 — influence of the network bandwidth (10 G vs 1 G).

Counter-intuitively, throttling the network from 10 Gbps to 1 Gbps does not
increase interference.  With sync ON (disk-bound) the peak write time is the
same for both networks, but the 1 G graph is symmetric (fair) because the
throttled sources no longer trigger the Incast collapse; with sync OFF the
1 G graph is nearly flat — the network limits each application to a rate the
servers can sustain, so no interference appears at all.
"""

from __future__ import annotations

from typing import Optional

from repro.config.filesystem import SyncMode
from repro.core.delta import gather
from repro.core.experiment import TwoApplicationExperiment
from repro.experiments.base import ExperimentResult, staged

__all__ = ["run"]


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    n_points: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce the Δ-graphs of Figure 5."""
    points = n_points if n_points is not None else (5 if quick else 9)
    result = ExperimentResult(
        experiment_id="figure5",
        title="Influence of the network bandwidth (10G vs 1G Ethernet)",
        paper_reference="Figure 5 (a)-(b)",
    )
    configs = [
        (network, sync, TwoApplicationExperiment(
            scale, device="hdd", sync_mode=sync, pattern="contiguous", network=network
        ))
        for sync in (SyncMode.SYNC_ON, SyncMode.SYNC_OFF)
        for network in ("10g", "1g")
    ]
    sweeps = yield from gather(
        exp.sweep_stages(n_points=points, label=f"{network}/{sync.value}")
        for network, sync, exp in configs
    )
    rows = []
    for (network, sync, exp), sweep in zip(configs, sweeps):
        result.add_sweep(f"{network}.{sync.value}", sweep)
        rows.append(
            {
                "network": network,
                "sync": sync.label,
                "alone_s": round(exp.alone_time(), 2),
                "peak_write_time_s": round(float(max(
                    sweep.write_times(app).max() for app in sweep.applications
                )), 2),
                "peak_IF": round(sweep.peak_interference_factor(), 2),
                "asymmetry": round(sweep.asymmetry_index(), 3),
                "flat": sweep.is_flat(0.35),
            }
        )
    result.add_table("figure5_summary", rows)
    result.add_note(
        "Expected shape: with sync ON the peak write times of 10G and 1G are "
        "close (the disk is the bottleneck) but only the 10G sweep is "
        "asymmetric; with sync OFF the 1G sweep is (nearly) flat while the "
        "10G sweep shows ~2x interference."
    )
    return result
