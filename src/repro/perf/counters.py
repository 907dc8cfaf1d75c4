"""Per-phase timing and allocation counters for the stepping kernel.

A :class:`StepProfiler` attaches to the stepping kernel
(:class:`~repro.model.batch.BatchedStepper`) via its ``profiler`` attribute.
While attached, every phase of every step is wrapped in a timing/allocation
probe; detached (the default), the stepper's hot path pays exactly one
``is None`` check per step, so profiling is strictly opt-in and zero-cost
when off.

Allocation counting uses :func:`sys.getallocatedblocks` deltas — the number
of live CPython memory blocks, which moves whenever NumPy materializes a new
array object.  It is a relative indicator (the probe itself costs a handful
of blocks transiently), good for answering "did this phase stop allocating?"
rather than byte-exact accounting.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["StepProfiler"]


class StepProfiler:
    """Accumulates per-phase wall time, call counts and allocation deltas."""

    def __init__(self) -> None:
        self._ns: Dict[str, int] = {}
        self._calls: Dict[str, int] = {}
        self._blocks: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager wrapping one phase of one step."""
        blocks_before = sys.getallocatedblocks()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            blocks = sys.getallocatedblocks() - blocks_before
            self._ns[name] = self._ns.get(name, 0) + elapsed
            self._calls[name] = self._calls.get(name, 0) + 1
            self._blocks[name] = self._blocks.get(name, 0) + blocks

    @property
    def phases(self) -> tuple:
        """Phase names seen so far, in first-seen order."""
        return tuple(self._ns)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-phase totals: ns, calls, ns/call, allocation-block delta."""
        out: Dict[str, Dict[str, float]] = {}
        for name, ns in self._ns.items():
            calls = self._calls[name]
            out[name] = {
                "ns": int(ns),
                "calls": int(calls),
                "ns_per_call": ns / calls if calls else 0.0,
                "alloc_blocks": int(self._blocks[name]),
            }
        return out

    def reset(self) -> None:
        """Drop all accumulated counters."""
        self._ns.clear()
        self._calls.clear()
        self._blocks.clear()
