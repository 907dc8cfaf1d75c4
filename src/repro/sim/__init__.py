"""Discrete-event simulation substrate.

This subpackage contains the generic machinery that the models in
:mod:`repro.model` are built on:

* :mod:`repro.sim.engine` — the event heap and simulation clock (the local
  write model of Table I runs on it),
* :mod:`repro.sim.events` — event records and priorities,
* :mod:`repro.sim.rng` — reproducible, named random streams,
* :mod:`repro.sim.timeseries` — compact time-series storage,
* :mod:`repro.sim.tracing` — trace recording for post-hoc analysis.

Nothing in here knows about storage, networks, or file systems; it is a small
general-purpose DES kernel with deterministic ordering guarantees.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventPriority
from repro.sim.rng import RandomStreams
from repro.sim.timeseries import TimeSeries
from repro.sim.tracing import TraceRecorder

__all__ = [
    "Simulator",
    "Event",
    "EventPriority",
    "RandomStreams",
    "TimeSeries",
    "TraceRecorder",
]
