"""Figure 11 — window size and progress of the first vs the second application.

With the second application starting 10 seconds after the first (scaled down
with the preset), the paper overlays, for one client of each application, the
TCP window size and the progress of its transfer.  The first application only
slows down when it is already ~90% done; the second is held back from ~40%
on, because its windows hardly recover — the unfairness mechanism.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.traces import progress_slowdown_point, window_statistics
from repro.config.presets import make_scenario
from repro.experiments.base import ExperimentResult, staged
from repro.sim.tracing import TraceConfig

__all__ = ["run"]


@staged
def run(
    scale: str = "reduced",
    quick: bool = False,
    delay: Optional[float] = None,
    sample_period: Optional[float] = None,
) -> ExperimentResult:
    """Reproduce Figure 11 (per-application window and progress traces)."""
    period = sample_period if sample_period is not None else (0.05 if not quick else 0.1)
    result = ExperimentResult(
        experiment_id="figure11",
        title="Unfairness: window size and progress of each application",
        paper_reference="Figure 11 (a)-(b)",
    )
    trace = TraceConfig(
        series_sample_period=period,
        record_windows=True,
        record_progress=True,
        record_server_state=True,
        window_connection_limit=2,
    )
    scenario = make_scenario(
        scale, device="hdd", sync_mode="sync-on", pattern="contiguous", trace=trace
    )
    # The paper uses dt = 10 s with a ~35 s alone time; scale the delay to
    # roughly a third of this preset's interference window.
    if delay is None:
        (alone,) = yield [(scenario.with_applications(scenario.applications[:1]), None)]
        delay = 0.35 * alone.write_time(scenario.applications[0].name)
    (run_result,) = yield [(scenario.with_delay(float(delay)), None)]

    rows = []
    for app in sorted(run_result.applications):
        slowdown_point = progress_slowdown_point(run_result, app)
        window_names = [
            n for n in run_result.window_series_names()
            if n.startswith(f"window.{app}.")
        ]
        stats = [window_statistics(run_result.recorder.get_series(n)) for n in window_names]
        collapse_fraction = (
            float(sum(s.collapse_fraction for s in stats) / len(stats)) if stats else 0.0
        )
        rows.append(
            {
                "application": app,
                "starts": "first" if app == "A" else "second",
                "write_time_s": round(run_result.write_time(app), 2),
                "progress_at_slowdown": round(slowdown_point, 2),
                "window_time_near_floor": round(collapse_fraction, 3),
                "window_collapses": run_result.app(app).window_collapses,
            }
        )
        result.add_metric(f"slowdown_point.{app}", slowdown_point)
        result.add_metric(f"collapses.{app}", run_result.app(app).window_collapses)
    result.add_table("figure11_summary", rows)
    result.add_metric("delay", float(delay))
    result.add_note(
        "Expected shape: the first application sustains progress and only "
        "slows near the end of its transfer, while the second application's "
        "windows collapse early and repeatedly, so it is slowed down from a "
        "much lower progress point and accumulates far more timeouts."
    )
    return result
