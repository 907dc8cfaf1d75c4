"""Figure 8 — influence of the data distribution policy (stripe size).

With the strided pattern (256 KiB blocks), the paper varies the PVFS stripe
size: 64 KiB (default), 128 KiB and 256 KiB.  Larger stripes improve
performance in every case, and with synchronization disabled they also make
the interference disappear, because each request is striped over fewer
servers and can no longer be stalled by a single slow server that favoured
the other application.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import units
from repro.config.filesystem import SyncMode
from repro.core.delta import gather
from repro.core.experiment import TwoApplicationExperiment
from repro.experiments.base import ExperimentResult, staged
from repro.pfs.striping import servers_touched

__all__ = ["run"]


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    stripe_sizes: Optional[Sequence[float]] = None,
    n_points: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Figure 8 (stripe-size sweep, strided pattern)."""
    stripes = (
        list(stripe_sizes)
        if stripe_sizes is not None
        else [64 * units.KiB, 128 * units.KiB, 256 * units.KiB]
    )
    points = n_points if n_points is not None else (3 if quick else 5)
    request_size = 256 * units.KiB

    result = ExperimentResult(
        experiment_id="figure8",
        title="Influence of the stripe size (strided pattern)",
        paper_reference="Figure 8 (a)-(b)",
    )
    configs = [
        (stripe, sync, TwoApplicationExperiment(
            scale,
            device="hdd",
            sync_mode=sync,
            pattern="strided",
            request_size=request_size,
            stripe_size=stripe,
        ))
        for sync in (SyncMode.SYNC_ON, SyncMode.SYNC_OFF)
        for stripe in stripes
    ]
    sweeps = yield from gather(
        exp.sweep_stages(
            n_points=points, label=f"stripe {units.bytes_to_human(stripe)}/{sync.value}"
        )
        for stripe, sync, exp in configs
    )
    rows = []
    for (stripe, sync, exp), sweep in zip(configs, sweeps):
        key = f"stripe_{int(stripe // units.KiB)}k.{sync.value}"
        result.add_sweep(key, sweep)
        n_servers_per_request = len(
            servers_touched(0.0, request_size, stripe, exp.scenario.filesystem.all_servers)
        )
        rows.append(
            {
                "sync": sync.label,
                "stripe": units.bytes_to_human(stripe),
                "servers_per_request": n_servers_per_request,
                "alone_s": round(exp.alone_time(), 2),
                "peak_IF": round(sweep.peak_interference_factor(), 2),
            }
        )
    result.add_table("figure8_summary", rows)
    result.add_note(
        "Expected shape: larger stripes are faster for both sync modes; with "
        "sync OFF the interference factor drops toward 1 as each request "
        "involves fewer servers, while with sync ON the disk keeps causing "
        "interference."
    )
    return result
