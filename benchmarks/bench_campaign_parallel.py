"""Benchmark: serial vs parallel campaign wall time at the tiny scale.

Records both times (and the resulting speedup) under
``benchmarks/results/campaign_parallel.txt`` so future changes can track
how much ``--jobs`` buys on the runner's hardware: the campaign runs the
same joint plan at every ``--jobs``, and with ``--jobs 4`` each round's
buckets spread across four worker processes.  On a single-core box the
speedup is ~1.0 by construction; the byte-identical output invariant is
what the test asserts either way.
"""

import time

from repro.analysis.campaign import campaign_to_markdown, run_campaign

JOBS = 4


def test_campaign_parallel_speedup(benchmark, results_dir):
    """Parallel (--jobs 4) tiny campaign, compared against a serial pass."""
    t0 = time.perf_counter()
    serial = run_campaign(scale="tiny", quick=True)
    serial_s = time.perf_counter() - t0

    parallel = benchmark.pedantic(
        lambda: run_campaign(scale="tiny", quick=True, jobs=JOBS),
        rounds=1, iterations=1,
    )
    parallel_s = benchmark.stats.stats.mean

    speedup = serial_s / parallel_s if parallel_s else float("nan")
    benchmark.extra_info["serial_s"] = round(serial_s, 2)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 2)
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["speedup"] = round(speedup, 2)

    report = (
        f"campaign --scale tiny --quick: serial {serial_s:.1f}s, "
        f"--jobs {JOBS} {parallel_s:.1f}s, speedup {speedup:.2f}x\n"
    )
    (results_dir / "campaign_parallel.txt").write_text(report)
    print()
    print(report, end="")

    # Parallelism must never change the science: byte-identical report.
    assert campaign_to_markdown(parallel) == campaign_to_markdown(serial)
    assert parallel.n_experiments == serial.n_experiments == 12
