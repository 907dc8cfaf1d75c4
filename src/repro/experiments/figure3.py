"""Figure 3 — strided pattern, backend devices, sync ON/OFF.

Same two applications as Figure 2 but each process issues 256 strided writes
of 256 KiB.  The paper finds that with synchronization enabled the HDD is
dramatically slower and suffers a larger interference factor than SSD/RAM
(random accesses amplify both), while with synchronization disabled the
devices behave alike.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config.filesystem import SyncMode
from repro.core.delta import gather
from repro.core.experiment import TwoApplicationExperiment
from repro.experiments.base import ExperimentResult, staged

__all__ = ["run"]


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    devices: Optional[Sequence[str]] = None,
    n_points: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce the Δ-graphs of Figure 3."""
    devices = list(devices) if devices is not None else ["hdd", "ssd", "ram"]
    points = n_points if n_points is not None else (3 if quick else 5)

    result = ExperimentResult(
        experiment_id="figure3",
        title="Strided pattern: influence of the backend device",
        paper_reference="Figure 3 (a)-(f)",
    )
    configs = [
        (device, sync, TwoApplicationExperiment(
            scale, device=device, sync_mode=sync, pattern="strided"
        ))
        for sync in (SyncMode.SYNC_ON, SyncMode.SYNC_OFF)
        for device in devices
    ]
    sweeps = yield from gather(
        exp.sweep_stages(n_points=points, label=f"strided/{device}/{sync.value}")
        for device, sync, exp in configs
    )
    rows = []
    for (device, sync, exp), sweep in zip(configs, sweeps):
        result.add_sweep(f"{device}.{sync.value}", sweep)
        rows.append(
            {
                "device": device,
                "sync": sync.label,
                "alone_s": round(exp.alone_time(), 2),
                "peak_IF": round(sweep.peak_interference_factor(), 2),
                "asymmetry": round(sweep.asymmetry_index(), 3),
            }
        )
    result.add_table("figure3_summary", rows)
    result.add_note(
        "Expected shape: with sync ON the HDD write time is an order of "
        "magnitude larger than SSD/RAM and its interference factor is higher; "
        "with sync OFF all devices behave alike."
    )
    return result
