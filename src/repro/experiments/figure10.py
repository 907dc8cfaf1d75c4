"""Figure 10 — TCP window evolution, alone vs interfering.

The paper captures, with tcpdump, the TCP window of one client/server
connection during a contiguous write: running alone the window stays high;
under contention (HDD backend, sync ON, dt = 0) it repeatedly collapses to
nearly zero — the Incast signature.  The simulator records the congestion
window of a traced connection of each application; this experiment compares
the alone and contended traces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.traces import window_statistics
from repro.config.presets import make_scenario, make_single_app_scenario
from repro.core.flowcontrol import diagnose_flow_control
from repro.experiments.base import ExperimentResult, staged
from repro.sim.tracing import TraceConfig

__all__ = ["run"]


def _traced_scenario(scale: str, alone: bool, sample_period: float):
    trace = TraceConfig(
        series_sample_period=sample_period,
        record_windows=True,
        record_progress=True,
        record_server_state=True,
        window_connection_limit=2,
    )
    if alone:
        return make_single_app_scenario(
            scale, device="hdd", sync_mode="sync-on", pattern="contiguous", trace=trace
        )
    return make_scenario(
        scale, device="hdd", sync_mode="sync-on", pattern="contiguous", delay=0.0, trace=trace
    )


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    sample_period: Optional[float] = None,
) -> ExperimentResult:
    """Reproduce Figure 10 (window traces, alone vs interfering)."""
    period = sample_period if sample_period is not None else (0.05 if not quick else 0.1)
    result = ExperimentResult(
        experiment_id="figure10",
        title="TCP window evolution: independent run vs interfering run",
        paper_reference="Figure 10 (a)-(b)",
    )

    alone_result, contended_result = yield [
        (_traced_scenario(scale, alone=True, sample_period=period), None),
        (_traced_scenario(scale, alone=False, sample_period=period), None),
    ]

    rows = []
    for label, run_result in (("alone", alone_result), ("interfering", contended_result)):
        names = run_result.window_series_names()
        window_names = [n for n in names if not n.startswith("window.mean")]
        stats = [window_statistics(run_result.recorder.get_series(n)) for n in window_names]
        if not stats:
            continue
        mean_window = float(np.mean([s.mean for s in stats]))
        min_window = float(np.min([s.minimum for s in stats]))
        collapse_fraction = float(np.mean([s.collapse_fraction for s in stats]))
        rows.append(
            {
                "run": label,
                "mean_window_KiB": round(mean_window / 1024.0, 1),
                "min_window_KiB": round(min_window / 1024.0, 2),
                "time_near_floor": round(collapse_fraction, 3),
                "window_collapses": run_result.total_window_collapses(),
            }
        )
        result.add_metric(f"{label}.mean_window", mean_window)
        result.add_metric(f"{label}.collapse_fraction", collapse_fraction)
        result.add_metric(f"{label}.window_collapses", run_result.total_window_collapses())
    result.add_table("figure10_windows", rows)

    diagnosis = diagnose_flow_control(contended_result)
    result.add_metric("incast_detected", 1.0 if diagnosis.incast_detected else 0.0)
    result.add_note(diagnosis.describe())
    result.add_note(
        "Expected shape: the interfering run's windows spend far more time "
        "near the floor and produce many timeout collapses; the independent "
        "run does not."
    )
    return result
