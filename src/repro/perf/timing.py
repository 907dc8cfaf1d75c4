"""Shared measurement primitive: min-of-N wall time in nanoseconds.

A single timed round on a busy single-CPU container is dominated by scheduler
noise; the *minimum* over a few repeats converges on the undisturbed cost and
is what every benchmark in this repo reports and what the CI ratio gate
compares.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Tuple

__all__ = ["best_of_ns"]


def best_of_ns(
    runner: Callable[..., Any],
    repeats: int = 5,
    setup: Optional[Callable[[], Any]] = None,
) -> Tuple[int, Any]:
    """Run ``runner`` ``repeats`` times; return ``(min elapsed ns, last result)``.

    ``setup`` (untimed) builds a fresh argument for each repeat — benchmarks
    whose runner mutates state pass a factory here so every repeat measures
    the same work.  When ``setup`` is given, ``runner`` is called with its
    return value; otherwise with no arguments.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best: Optional[int] = None
    result: Any = None
    for _ in range(repeats):
        if setup is not None:
            argument = setup()
            start = time.perf_counter_ns()
            result = runner(argument)
        else:
            start = time.perf_counter_ns()
            result = runner()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best, result
