"""Deterministic fault injection for the campaign fabric.

A :class:`FaultPlan` names the faults to inject — worker crashes, raised
exceptions, stalls past the task deadline, and merely-slow tasks — and *where*
to inject them: each :class:`FaultSpec` matches task ids by substring, fires
on a bounded number of attempts (so retries can observe recovery), and can be
made probabilistic with a deterministic per-``(seed, task, attempt)`` coin so
chaos runs are reproducible bit-for-bit.

Activation crosses process boundaries through the ``REPRO_CHAOS`` environment
variable (the plan's JSON form), because pool workers are fresh processes that
never see the parent's Python state.  In-process code (tests, tasks the
executor runs in the supervisor process) can instead install a plan directly
with :func:`fault_plan`.

The harness exists to *prove the recovery paths run*: the executor
(:mod:`repro.runner.executor`), which injects before every task attempt of
every verb, must retry crashed tasks, time out stalled ones, rebuild broken
pools and quarantine tasks that exhaust their retries — and the chaos tests
in ``tests/test_chaos.py`` plus the CI ``chaos-smoke`` job assert exactly
that, with byte-identical results after recovery.  :func:`run_probe_task`
is the model-free task kind (``probe``) the executor's own tests drive.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import ReproError, TaskTimeout

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosError",
    "FaultSpec",
    "FaultPlan",
    "fault_plan",
    "get_fault_plan",
    "mark_pool_worker",
    "run_probe_task",
    "set_fault_plan",
]

CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Exit code of an injected worker crash — distinctive in pool post-mortems.
CRASH_EXIT_CODE = 13

_MODES = ("exception", "crash", "stall", "slow")


class ChaosError(ReproError, RuntimeError):
    """An injected failure (never raised outside chaos testing)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    Parameters
    ----------
    match:
        Substring matched against the task id (``"pair:checkpoint"`` matches
        every pair task involving the checkpoint archetype as first member;
        ``""`` matches everything).
    mode:
        ``"exception"`` raises :class:`ChaosError`; ``"crash"`` kills the
        worker process with ``os._exit`` (demoted to an exception anywhere
        but a pool worker — chaos must never kill the campaign supervisor
        itself); ``"stall"`` sleeps ``delay_s`` seconds
        (pick it larger than the task timeout to exercise the deadline path);
        ``"slow"`` sleeps ``delay_s`` and then lets the task proceed.
    times:
        Inject only while ``attempt < times`` (attempts are 0-based), so a
        ``times=1`` fault fails the first attempt and lets the retry succeed.
        Use a large value for a poisoned task that must exhaust its retries.
    delay_s:
        Sleep duration for ``stall``/``slow``.
    probability:
        Chance of injecting on a matching attempt.  The coin is a
        deterministic hash of ``(plan.seed, task_id, attempt)`` — the same
        plan over the same task list always injects at the same places.
    """

    match: str
    mode: str = "exception"
    times: int = 1
    delay_s: float = 30.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ReproError(
                f"unknown fault mode {self.mode!r}; known: {_MODES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "match": self.match,
            "mode": self.mode,
            "times": int(self.times),
            "delay_s": float(self.delay_s),
            "probability": float(self.probability),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(
            match=str(data["match"]),
            mode=str(data.get("mode", "exception")),
            times=int(data.get("times", 1)),
            delay_s=float(data.get("delay_s", 30.0)),
            probability=float(data.get("probability", 1.0)),
        )


def _coin(seed: int, task_id: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one injection decision."""
    material = f"{seed}|{task_id}|{attempt}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of injection rules, JSON-round-trippable for env transport."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def of(cls, *faults: FaultSpec, seed: int = 0) -> "FaultPlan":
        return cls(faults=tuple(faults), seed=int(seed))

    def spec_for(self, task_id: str, attempt: int) -> Optional[FaultSpec]:
        """The first rule that fires for this ``(task_id, attempt)``, if any."""
        for spec in self.faults:
            if spec.match not in task_id:
                continue
            if attempt >= spec.times:
                continue
            if spec.probability < 1.0 and (
                _coin(self.seed, task_id, attempt) >= spec.probability
            ):
                continue
            return spec
        return None

    def maybe_inject(self, task_id: str, attempt: int = 0) -> None:
        """Inject the matching fault, if any, at the current execution site.

        A ``crash`` fault calls ``os._exit`` only inside a disposable pool
        worker process (see :func:`mark_pool_worker`).  Anywhere else —
        a task the executor runs in-process, a bucket work unit at
        ``--jobs 1`` — the crash is demoted to :class:`ChaosError`: killing
        the supervisor would fail the campaign rather than exercise its
        recovery.
        """
        spec = self.spec_for(task_id, attempt)
        if spec is None:
            return
        if spec.mode == "crash":
            if _IN_POOL_WORKER:
                os._exit(CRASH_EXIT_CODE)
            raise ChaosError(
                f"chaos: injected crash for {task_id!r} (attempt {attempt}; "
                "demoted to an exception outside a worker process)"
            )
        if spec.mode in ("stall", "slow"):
            time.sleep(spec.delay_s)
            if spec.mode == "slow":
                return
            raise ChaosError(
                f"chaos: injected stall for {task_id!r} outlived its sleep "
                f"({spec.delay_s:g}s) without hitting a deadline"
            )
        raise ChaosError(
            f"chaos: injected exception for {task_id!r} (attempt {attempt})"
        )

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": int(self.seed),
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            faults=tuple(
                FaultSpec.from_dict(entry) for entry in data.get("faults", [])
            ),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ReproError(f"unparseable fault plan JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ReproError("a fault plan must be a JSON object")
        return cls.from_dict(data)


def run_probe_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Executor worker (task kind ``probe``): optionally sleep, then echo.

    Exists for the supervision and chaos tests — a task kind with no model
    dependencies whose wall-clock behaviour (``sleep_s``) and output
    (``value``) are fully controlled by the payload.  With
    ``uninterruptible`` the sleep swallows the deadline guard's
    :class:`~repro.errors.TaskTimeout` and keeps sleeping — simulating a
    task stuck in native code that only the parent watchdog can reclaim.
    """
    delay = float(payload.get("sleep_s", 0.0))
    if delay > 0.0 and payload.get("uninterruptible"):
        end = time.monotonic() + delay
        while True:
            remaining = end - time.monotonic()
            if remaining <= 0.0:
                break
            try:
                time.sleep(remaining)
            except TaskTimeout:
                continue
    elif delay > 0.0:
        time.sleep(delay)
    return {"value": payload.get("value")}


# --------------------------------------------------------------------------- #
# Activation
# --------------------------------------------------------------------------- #

#: In-process override; wins over the environment when set.
_ACTIVE: Optional[FaultPlan] = None

#: Parse-once cache for the environment route: (raw value, parsed plan).
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)

#: True only in executor pool workers, where a ``crash`` may really exit.
_IN_POOL_WORKER = False


def mark_pool_worker() -> None:
    """Pool initializer: mark this process as a disposable pool worker."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def set_fault_plan(plan: Optional[FaultPlan], *, env: bool = False) -> None:
    """Install (or with ``None`` remove) the active fault plan.

    With ``env=True`` the plan is also exported through ``REPRO_CHAOS`` so
    pool worker processes spawned afterwards inherit it; removal clears the
    variable.
    """
    global _ACTIVE
    _ACTIVE = plan
    if env:
        if plan is None:
            os.environ.pop(CHAOS_ENV_VAR, None)
        else:
            os.environ[CHAOS_ENV_VAR] = plan.to_json()


def get_fault_plan() -> Optional[FaultPlan]:
    """The active fault plan: the in-process override, else ``REPRO_CHAOS``.

    The environment value may be inline JSON or a path to a JSON file (CI
    writes the plan to a file and points the variable at it).  A missing or
    empty variable means chaos is off — the overwhelmingly common case costs
    one dict lookup.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(CHAOS_ENV_VAR)
    if not raw:
        return None
    global _ENV_CACHE
    if _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    text = raw
    if not raw.lstrip().startswith("{"):
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ReproError(
                f"{CHAOS_ENV_VAR} names an unreadable fault-plan file "
                f"{raw!r}: {exc}"
            ) from None
    plan = FaultPlan.from_json(text)
    _ENV_CACHE = (raw, plan)
    return plan


@contextmanager
def fault_plan(plan: FaultPlan, *, env: bool = False) -> Iterator[FaultPlan]:
    """Scope a fault plan to a ``with`` block (always restores the prior state)."""
    previous_active = _ACTIVE
    previous_env = os.environ.get(CHAOS_ENV_VAR)
    set_fault_plan(plan, env=env)
    try:
        yield plan
    finally:
        set_fault_plan(previous_active, env=False)
        if env:
            if previous_env is None:
                os.environ.pop(CHAOS_ENV_VAR, None)
            else:
                os.environ[CHAOS_ENV_VAR] = previous_env
