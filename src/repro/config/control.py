"""Stepping-policy control of the simulation core.

The fluid model advances in discrete steps.  How the next step instant is
chosen is a *policy*, independent of the model itself:

* ``fixed``    — the seed behaviour: one step every ``dt`` seconds from the
  first application start to the last completion, regardless of whether
  anything in the model can change.  Deterministic, byte-identical to the
  historical output, and the default everywhere.
* ``adaptive`` — each run derives the largest safe step from the current
  rates (:meth:`repro.model.simulator.IOPathSimulator.next_bound`); quiescent
  intervals (every connection stalled in RTO, buffers empty, an application
  start still far away) collapse into a single jump to the next
  state-changing instant.

:class:`SteppingPolicy` is carried by
:class:`~repro.config.scenario.SimulationControl`.  Because the experiment
modules build their scenarios internally (they only take ``scale``/``quick``),
the module also keeps a *process-wide default policy*: scenarios whose
control block does not pin a policy resolve to it at run time.  The campaign
runner sets it (in every worker process) from the ``--stepping`` CLI flag via
:func:`stepping_policy`.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import ConfigurationError

__all__ = [
    "SteppingMode",
    "SteppingPolicy",
    "default_stepping_policy",
    "set_default_stepping_policy",
    "stepping_policy",
]


class SteppingMode(str, enum.Enum):
    """How the simulator chooses the instant of the next model step."""

    FIXED = "fixed"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class SteppingPolicy:
    """Time-advance policy of the simulation core.

    Attributes
    ----------
    mode:
        ``fixed`` (seed behaviour, the default) or ``adaptive``.
    tolerance:
        Fraction of the time-to-the-next-state-change an *active* adaptive
        step may cross.  Smaller values track the fixed-step trajectory more
        closely (at ``tolerance -> 0`` every active step is the base step);
        it also serves as the relative error budget the adaptive results are
        validated against.  Ignored in ``fixed`` mode.
    max_dt:
        Optional cap (seconds) on a single adaptive jump.  ``None`` leaves
        quiescent jumps bounded only by the next state-changing instant
        (RTO expiry, pending operation issue, scheduled control event).
    """

    mode: SteppingMode = SteppingMode.FIXED
    tolerance: float = 0.05
    max_dt: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, SteppingMode):
            try:
                object.__setattr__(self, "mode", SteppingMode(str(self.mode).lower()))
            except ValueError:
                raise ConfigurationError(
                    f"unknown stepping mode {self.mode!r}; expected "
                    f"{[m.value for m in SteppingMode]}"
                ) from None
        if not 0.0 < self.tolerance <= 1.0:
            raise ConfigurationError(
                f"stepping tolerance must be in (0, 1], got {self.tolerance}"
            )
        if self.max_dt is not None and self.max_dt <= 0:
            raise ConfigurationError("max_dt must be positive when given")

    # ------------------------------------------------------------------ #

    @property
    def is_adaptive(self) -> bool:
        """True when the policy allows variable step sizes."""
        return self.mode is SteppingMode.ADAPTIVE

    @classmethod
    def fixed(cls) -> "SteppingPolicy":
        """The seed behaviour: a fixed-cadence step."""
        return cls(mode=SteppingMode.FIXED)

    @classmethod
    def adaptive(
        cls, tolerance: float = 0.05, max_dt: Optional[float] = None
    ) -> "SteppingPolicy":
        """Adaptive time advance with quiescence skipping."""
        return cls(mode=SteppingMode.ADAPTIVE, tolerance=tolerance, max_dt=max_dt)

    # ------------------------------------------------------------------ #
    # Transport (runner payloads, cache fingerprints)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "mode": self.mode.value,
            "tolerance": float(self.tolerance),
            "max_dt": None if self.max_dt is None else float(self.max_dt),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SteppingPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        max_dt = data.get("max_dt")
        return cls(
            mode=SteppingMode(str(data.get("mode", "fixed"))),
            tolerance=float(data.get("tolerance", 0.05)),
            max_dt=None if max_dt is None else float(max_dt),
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        if not self.is_adaptive:
            return "fixed"
        cap = "unbounded" if self.max_dt is None else f"max_dt={self.max_dt:g}s"
        return f"adaptive (tolerance={self.tolerance:g}, {cap})"


# --------------------------------------------------------------------------- #
# Process-wide default policy
# --------------------------------------------------------------------------- #

_DEFAULT_POLICY = SteppingPolicy.fixed()


def default_stepping_policy() -> SteppingPolicy:
    """The policy scenarios resolve to when their control block pins none."""
    return _DEFAULT_POLICY


def set_default_stepping_policy(policy: Optional[SteppingPolicy]) -> SteppingPolicy:
    """Replace the process-wide default policy; returns the previous one.

    ``None`` restores the built-in ``fixed`` default.
    """
    global _DEFAULT_POLICY
    previous = _DEFAULT_POLICY
    _DEFAULT_POLICY = policy if policy is not None else SteppingPolicy.fixed()
    return previous


@contextmanager
def stepping_policy(policy: Optional[SteppingPolicy]) -> Iterator[SteppingPolicy]:
    """Scoped override of the process-wide default policy.

    ``None`` is a no-op (the current default stays in force), which lets
    callers thread an optional policy without branching::

        with stepping_policy(maybe_policy):
            run_campaign(...)
    """
    if policy is None:
        yield _DEFAULT_POLICY
        return
    previous = set_default_stepping_policy(policy)
    try:
        yield policy
    finally:
        set_default_stepping_policy(previous)
