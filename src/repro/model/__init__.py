"""The integrated I/O-path model.

This package assembles the substrates (network, PVFS servers, storage
devices, workloads) into one vectorized fluid/discrete-event simulation:

* :mod:`repro.model.state`     — builds the vectorized per-connection and
  per-application state from a :class:`~repro.config.scenario.ScenarioConfig`,
* :mod:`repro.model.stepper`   — the per-step update's workspace and the
  data-plane phases every simulation shares (drain → offer → admit),
* :mod:`repro.model.batch`     — the one stepping kernel, which advances a
  batch of simulations per step, and its one lockstep driver (fixed and
  adaptive stepping alike), plus bucket planning,
* :mod:`repro.model.simulator` — :class:`IOPathSimulator`, one run's state,
  control plane and result; it runs as a batch of one,
* :mod:`repro.model.results`   — :class:`RunResult`, per-application write
  times plus component statistics and traces,
* :mod:`repro.model.local`     — the single-node model used for the paper's
  Table I (local writes without a network).
"""

from repro.model.results import ApplicationResult, RunResult
from repro.model.simulator import IOPathSimulator, simulate_scenario
from repro.model.local import LocalWriteResult, simulate_local_writes

__all__ = [
    "ApplicationResult",
    "RunResult",
    "IOPathSimulator",
    "simulate_scenario",
    "LocalWriteResult",
    "simulate_local_writes",
]
