"""Per-phase timing (and optionally allocation) counters for the stepping
kernel.

A :class:`StepProfiler` attaches to the stepping kernel
(:class:`~repro.model.batch.BatchedStepper`) via its ``profiler`` attribute.
While attached, it runs every step phase by phase (:meth:`StepProfiler.step`)
and accumulates each phase's ``perf_counter_ns`` delta; detached (the
default), the stepper's hot path pays exactly one ``is None`` check per
step, so profiling is strictly opt-in and zero-cost when off.  Telemetry
attaches a timing-only profiler to every batch, which costs two clock reads
and a few dictionary updates per phase.

``StepProfiler(probe_allocations=True)`` (``repro-io perf --profile``) also
wraps each phase in an allocation probe: :func:`sys.getallocatedblocks`
deltas, the number of live CPython memory blocks, which moves whenever NumPy
materializes a new array object.  It is a relative indicator (the probe
itself costs a handful of blocks transiently), good for answering "did this
phase stop allocating?" rather than byte-exact accounting, and it costs a
few microseconds per phase.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["StepProfiler"]


class StepProfiler:
    """Accumulates per-phase wall time, call counts and, when it probes
    allocations, allocation deltas."""

    def __init__(self, probe_allocations: bool = False) -> None:
        self.probe_allocations = probe_allocations
        self._ns: Dict[str, int] = {}
        self._calls: Dict[str, int] = {}
        self._blocks: Dict[str, int] = {}

    def step(self, stepper, ctx) -> None:
        """Run one step of ``stepper``'s phases (``stepper.PHASES``, each
        its ``_phase_<name>`` method) in order, timing each."""
        clock = time.perf_counter_ns
        for name in stepper.PHASES:
            run = getattr(stepper, "_phase_" + name)
            if self.probe_allocations:
                with self.phase(name):
                    run(ctx)
                continue
            start = clock()
            run(ctx)
            self._add(name, clock() - start, 0)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager wrapping one phase of one step, probing its
        allocations."""
        blocks_before = sys.getallocatedblocks()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._add(name, elapsed, sys.getallocatedblocks() - blocks_before)

    def _add(self, name: str, ns: int, blocks: int) -> None:
        self._ns[name] = self._ns.get(name, 0) + ns
        self._calls[name] = self._calls.get(name, 0) + 1
        self._blocks[name] = self._blocks.get(name, 0) + blocks

    @property
    def phases(self) -> tuple:
        """Phase names seen so far, in first-seen order."""
        return tuple(self._ns)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-phase totals: ns, calls, ns/call, allocation-block delta (0
        without allocation probing)."""
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
