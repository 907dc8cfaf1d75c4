"""Figure 9 — influence of the request size (strided pattern).

With the default 64 KiB stripe, the paper varies the application's block
size: 64, 128, 256 and 512 KiB.  Small blocks involve fewer servers per
request, which mitigates cross-application interference (with sync OFF the
interference disappears for 64/128 KiB blocks) — but those block sizes are
far from optimal for a single application, which is the paper's warning to
anyone proposing interference "solutions" that rely on them.
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
    request_sizes: Optional[Sequence[float]] = None,
    n_points: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Figure 9 (request-size sweep, strided pattern)."""
    sizes = (
        list(request_sizes)
        if request_sizes is not None
        else [64 * units.KiB, 128 * units.KiB, 256 * units.KiB, 512 * units.KiB]
    )
    points = n_points if n_points is not None else (3 if quick else 5)
    stripe = 64 * units.KiB

    result = ExperimentResult(
        experiment_id="figure9",
        title="Influence of the request size (strided pattern)",
        paper_reference="Figure 9 (a)-(b)",
    )
    configs = [
        (request, sync, TwoApplicationExperiment(
            scale,
            device="hdd",
            sync_mode=sync,
            pattern="strided",
            request_size=request,
            stripe_size=stripe,
        ))
        for sync in (SyncMode.SYNC_ON, SyncMode.SYNC_OFF)
        for request in sizes
    ]
    sweeps = yield from gather(
        exp.sweep_stages(
            n_points=points,
            label=f"request {units.bytes_to_human(request)}/{sync.value}",
        )
        for request, sync, exp in configs
    )
    rows = []
    for (request, sync, exp), sweep in zip(configs, sweeps):
        key = f"request_{int(request // units.KiB)}k.{sync.value}"
        result.add_sweep(key, sweep)
        rows.append(
            {
                "sync": sync.label,
                "request": units.bytes_to_human(request),
                "servers_per_request": len(
                    servers_touched(0.0, request, stripe,
                                    exp.scenario.filesystem.all_servers)
                ),
                "alone_s": round(exp.alone_time(), 2),
                "peak_IF": round(sweep.peak_interference_factor(), 2),
            }
        )
    result.add_table("figure9_summary", rows)
    result.add_note(
        "Expected shape: small requests involve fewer servers and show less "
        "interference (sync OFF), yet their interference-free performance is "
        "clearly worse than the larger requests' — no interference does not "
        "mean optimal performance."
    )
    result.add_note(
        "Known deviation: the paper's request-size-dependent interference "
        "(sync OFF) comes from servers serving the two applications' requests "
        "in different orders, so a request striped over several servers waits "
        "for whichever server favoured the other application.  The fluid "
        "model serves both applications simultaneously (proportional "
        "sharing), so this per-request straggler/ordering effect — and hence "
        "the drop to an interference-free regime at 64/128 KiB — is not "
        "reproduced; the per-request-size performance ordering and the "
        "'interference-free is far from optimal' warning are."
    )
    return result
