"""Process-parallel, supervised task execution with deterministic results.

One engine runs every task list in the repository.  ``bucket`` work units,
one planned lockstep bucket each (:func:`repro.model.batch.bucket_units`),
are the one route by which any simulation reaches the kernel through the
executor, and ``probe`` serves the chaos harness.  The engine runs tasks
in-process or across a :class:`concurrent.futures.ProcessPoolExecutor`
(``jobs`` and the task count choose), applies one :class:`FaultPolicy`
(deadlines, retries, quarantine) and any active chaos plan on both routes,
and reassembles results in submission order, so parallel runs are
byte-identical to serial ones.

Determinism rules:

* every simulation request a unit carries holds its own seed, so which
  worker executes a unit never affects its result (:func:`derive_task_seed`
  derives a seed from ``(master_seed, task_id)`` for callers, such as the
  parameter grid, that name their runs);
* results are returned in task order regardless of completion order;
* workers are plain module-level functions of the payload alone, returning
  picklable outputs: a ``bucket`` unit returns its runs' results, from which
  the caller extracts what it keeps.  Each worker lives beside the code that
  builds its payload; this module only maps task kinds to lazy
  ``"module:function"`` references.

:func:`execute_cached` is the cache around a caller's runner: it probes the
result cache, hands every miss to the runner, and stores, journals and
reports each result as the runner completes it.
"""

from __future__ import annotations

import hashlib
import importlib
import signal
import threading
import time
import zlib
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ExperimentError, TaskTimeout
from repro.obs.telemetry import get_telemetry
from repro.runner.chaos import get_fault_plan, mark_pool_worker

__all__ = [
    "TaskSpec",
    "FaultPolicy",
    "TaskFailure",
    "ParallelExecutor",
    "derive_task_seed",
    "execute_task",
    "execute_cached",
    "resolve_task_kind",
]


def derive_task_seed(master_seed: int, task_id: str) -> int:
    """Deterministic per-task seed from ``(master_seed, task_id)``.

    Uses the same crc32 + :class:`numpy.random.SeedSequence` construction as
    :meth:`repro.sim.rng.RandomStreams.stream`, so task streams are
    statistically independent of each other and of the simulator's own named
    streams.
    """
    name_key = zlib.crc32(task_id.encode("utf-8")) & 0xFFFFFFFF
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(name_key,))
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work for the executor.

    ``kind`` selects the worker function; ``payload`` is its (picklable)
    argument mapping, and all the worker gets.  ``span_category`` labels the
    telemetry span the executor records for the task — ``"task"`` for a
    unit that is one task of its caller (a matrix run alone), ``"bucket"``
    for a bucket work unit carrying several runs
    (:func:`repro.model.batch.bucket_units`).  The executor counts
    ``executor.tasks.completed`` and ``executor.quarantined`` for ``task``
    units only: a runner counts the members of a bucket one by one as it
    takes their payloads, and a failed bucket's members are demoted to
    ``task`` units of their own, so nothing is counted twice.
    """

    task_id: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    span_category: str = "task"


# --------------------------------------------------------------------------- #
# Task kinds
# --------------------------------------------------------------------------- #


_Worker = Callable[[Dict[str, Any]], Dict[str, Any]]

#: Task kind -> lazy ``"module:function"`` reference to its worker, which
#: lives beside the code that builds the kind's payload — so this module
#: holds no payload format and imports no model code.  A reference also
#: resolves inside pool *worker processes*, which import this module but not
#: necessarily the layer that submitted the task; resolved workers replace
#: their references.
_TASK_KINDS: Dict[str, Union[str, _Worker]] = {
    "bucket": "repro.model.batch:run_bucket_task",
    "probe": "repro.runner.chaos:run_probe_task",
}


def resolve_task_kind(kind: str) -> _Worker:
    """The worker function for ``kind``, importing lazy references on demand."""
    try:
        worker = _TASK_KINDS[kind]
    except KeyError:
        raise ExperimentError(
            f"unknown task kind {kind!r}; known: {sorted(_TASK_KINDS)}"
        ) from None
    if isinstance(worker, str):
        module_name, _, attr = worker.partition(":")
        worker = getattr(importlib.import_module(module_name), attr)
        _TASK_KINDS[kind] = worker  # memoize for the life of the process
    return worker


def execute_task(task: TaskSpec) -> Dict[str, Any]:
    """Dispatch one task to its worker function (runs inside the pool)."""
    return resolve_task_kind(task.kind)(task.payload)


# --------------------------------------------------------------------------- #
# Supervision: deadlines, bounded retries, quarantine
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FaultPolicy:
    """How the executor treats failing, slow, and stuck tasks.

    ``task_timeout_s`` is the per-task wall-clock deadline (``None``
    disables deadlines).  ``max_retries`` bounds how many times one task is
    re-run after its first failed attempt; a task that fails once more is
    quarantined into the caller's ``failures`` sink, or — without a sink —
    fails the whole map.  Retries back off exponentially from
    ``backoff_base_s`` (capped at ``backoff_cap_s``) with deterministic
    jitter derived from ``(task_id, attempt)`` — reruns of the same campaign
    wait the same amounts.  ``grace_s`` is how long the parent waits past a
    task's deadline before concluding the worker-side guard failed (a worker
    stuck in C code cannot be interrupted by a signal-raised exception) and
    tearing the pool down.

    An executor built without a policy uses the strict default
    ``FaultPolicy(max_retries=0)``: no deadline, no retry.

    In-process caveat: tasks that run in the supervisor process itself
    (``jobs=1``, or a single task) are guarded only by the in-process
    SIGALRM deadline — there is no pool for the parent watchdog to tear
    down, and a task stuck in C code that never returns to the interpreter
    hangs the campaign despite ``task_timeout_s``.  Use ``jobs >= 2`` when
    stuck-in-native-code tasks are a real risk.
    """

    task_timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ExperimentError(
                f"task_timeout_s must be positive, got {self.task_timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ExperimentError(
                "backoff_base_s and backoff_cap_s must be >= 0, got "
                f"{self.backoff_base_s}/{self.backoff_cap_s}"
            )
        if self.grace_s < 0:
            raise ExperimentError(
                f"grace_s must be >= 0, got {self.grace_s}"
            )

    def backoff_s(self, task_key: str, attempt: int) -> float:
        """Delay before running ``attempt`` (1-based retry counter) of a task.

        Exponential in the attempt number, capped, then scaled into
        ``[0.5, 1.0)`` of itself by a deterministic hash of
        ``(task_key, attempt)`` — jitter without irreproducibility.
        """
        if attempt <= 0:
            return 0.0
        base = self.backoff_base_s * (2.0 ** (attempt - 1))
        bounded = min(base, self.backoff_cap_s)
        material = f"{task_key}|{attempt}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
        return bounded * (0.5 + 0.5 * fraction)


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined task: what failed, how, and after how many attempts."""

    task_id: str
    kind: str
    reason: str  # "exception" | "timeout" | "pool-crash"
    error: str
    attempts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "reason": self.reason,
            "error": self.error,
            "attempts": int(self.attempts),
        }


@contextmanager
def _deadline(timeout_s: Optional[float], label: str) -> Iterator[None]:
    """Raise :class:`TaskTimeout` if the block outlives ``timeout_s``.

    Implemented with ``signal.setitimer`` so a stalled task — even one
    sleeping inside library code — is interrupted.  Requires the POSIX
    signal API and the process main thread (pool workers run tasks on
    theirs); anywhere else the guard degrades to a no-op and the parent's
    grace-period watchdog is the only enforcement.
    """
    if (
        not timeout_s
        or timeout_s <= 0
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def on_alarm(signum, frame):  # pragma: no cover - exercised via raise
        raise TaskTimeout(
            f"task {label!r} exceeded its {timeout_s:g}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_attempt(
    task: TaskSpec, attempt: int, timeout_s: Optional[float]
) -> Dict[str, Any]:
    """One attempt: chaos injection + deadline + the task itself.

    The chaos check lives *inside* the deadline guard so an injected stall
    is interrupted exactly like an organic one.
    """
    with _deadline(timeout_s, task.task_id):
        plan = get_fault_plan()
        if plan is not None:
            plan.maybe_inject(task.task_id, attempt)
        return execute_task(task)


def _failure_reason(exc: BaseException) -> str:
    return "timeout" if isinstance(exc, TaskTimeout) else "exception"


def _execute_task_observed(
    task: TaskSpec,
    collect: bool,
    attempt: int = 0,
    timeout_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Pool-side wrapper: time one attempt and (optionally) collect telemetry.

    Runs inside a worker process, where the parent's registry does not
    exist.  When ``collect`` is true a fresh worker-local
    :class:`~repro.obs.telemetry.Telemetry` is installed for the duration of
    the task; its snapshot ships back with the payload and the parent merges
    it (re-anchoring span times via the wall-clock epoch) under the task's
    span.  The wall-clock ``started`` stamp lets the parent compute how long
    the task waited in the pool queue.  Workers inherit any chaos plan
    through ``REPRO_CHAOS``; ``attempt`` selects which injections fire.
    """
    from repro.obs.telemetry import NULL, Telemetry, set_telemetry

    started = time.time()
    t0 = time.perf_counter()
    local = Telemetry(label=task.task_id) if collect else None
    if local is not None:
        set_telemetry(local)
    try:
        payload = _run_attempt(task, attempt, timeout_s)
    finally:
        if local is not None:
            set_telemetry(NULL)
    return {
        "payload": payload,
        "obs": {"started": started, "wall_s": time.perf_counter() - t0,
                "snapshot": None if local is None else local.snapshot()},
    }


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #


class ParallelExecutor:
    """Run tasks under one :class:`FaultPolicy`; reassemble results in order.

    The engine has two routes, chosen by ``jobs`` and the task count:
    ``jobs=1`` (the default) or a single task runs in-process with no pool;
    otherwise tasks fan across a process pool.  Both routes apply the same
    deadline, chaos and retry code.  Failing tasks are retried with backoff,
    deadline overruns are interrupted, a broken pool is rebuilt and only
    unfinished tasks resubmitted.  A task that exhausts its retries is
    quarantined into the caller's ``failures`` sink; without a sink the map
    fails fast on it.  ``fault_policy=None`` means the strict default
    ``FaultPolicy(max_retries=0)``: the first failure ends the map.
    """

    def __init__(
        self, jobs: int = 1, fault_policy: Optional[FaultPolicy] = None
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.fault_policy = (
            FaultPolicy(max_retries=0) if fault_policy is None else fault_policy
        )

    def map(
        self,
        tasks: Sequence[TaskSpec],
        progress: Optional[Callable[[TaskSpec, Dict[str, Any]], None]] = None,
        task_records: Optional[Dict[str, Dict[str, Any]]] = None,
        failures: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> List[Optional[Dict[str, Any]]]:
        """Execute every task; results come back in ``tasks`` order.

        ``progress`` is invoked as ``progress(task, result)`` as tasks
        *complete* (completion order under parallelism); it never fires for
        a quarantined task.

        ``task_records``, when given, is filled with per-task provenance
        ``{task_id: {"wall_time_s", "queue_wait_s"}}`` (a record exists
        before that task's ``progress`` call fires).  With telemetry enabled
        each task additionally gets a span of its ``span_category`` — and,
        in the pool, the worker's own telemetry snapshot merged beneath it.

        A task that exhausts its retries is quarantined: its slot in the
        returned list is ``None`` and its :meth:`TaskFailure.to_dict` record
        lands in ``failures``.  Without a ``failures`` sink the map fails
        fast instead: it submits no further task and raises
        :class:`~repro.errors.ExperimentError` naming the task, chained to
        the failure's cause — failures are never silently dropped.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ExperimentError("task ids must be unique within one map() call")

        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.gauge("executor.jobs", float(self.jobs))
        policy = self.fault_policy

        def charge(task: TaskSpec, attempt: int, exc: BaseException, reason: str) -> bool:
            """Record one failed attempt; True means the task may retry."""
            if telemetry.enabled and reason == "timeout":
                telemetry.count("executor.timeouts")
            if attempt < policy.max_retries:
                if telemetry.enabled:
                    telemetry.count("executor.retries")
                return True
            if failures is None:
                raise ExperimentError(
                    f"task {task.task_id!r} exhausted their retries after "
                    f"{attempt + 1} attempt(s) and no failures sink was "
                    f"provided ({reason}: {exc})"
                ) from exc
            failures[task.task_id] = TaskFailure(
                task_id=task.task_id,
                kind=task.kind,
                reason=reason,
                error=str(exc),
                attempts=attempt + 1,
            ).to_dict()
            if telemetry.enabled and task.span_category == "task":
                telemetry.count("executor.quarantined")
            return False

        if self.jobs == 1 or len(tasks) == 1:
            return self._map_in_process(
                tasks, telemetry, progress, task_records, charge
            )
        return self._map_pool(tasks, telemetry, progress, task_records, charge)

    def _map_in_process(
        self, tasks, telemetry, progress, task_records, charge
    ) -> List[Optional[Dict[str, Any]]]:
        policy = self.fault_policy
        results: List[Optional[Dict[str, Any]]] = []
        for task in tasks:
            attempt = 0
            while True:
                start = time.perf_counter()
                try:
                    # In-process tasks run under the ambient registry, so
                    # simulation spans nest directly beneath this one.
                    with telemetry.span(
                        task.task_id, category=task.span_category,
                        track="tasks", kind=task.kind,
                    ):
                        payload = _run_attempt(task, attempt, policy.task_timeout_s)
                except Exception as exc:
                    if not charge(task, attempt, exc, _failure_reason(exc)):
                        payload = None
                        break
                    attempt += 1
                    time.sleep(policy.backoff_s(task.task_id, attempt))
                    continue
                if telemetry.enabled and task.span_category == "task":
                    telemetry.count("executor.tasks.completed")
                if task_records is not None:
                    task_records[task.task_id] = {
                        "wall_time_s": time.perf_counter() - start,
                        "queue_wait_s": 0.0,
                    }
                break
            results.append(payload)
            if payload is not None and progress is not None:
                progress(task, payload)
        return results

    def _map_pool(
        self, tasks, telemetry, progress, task_records, charge
    ) -> List[Optional[Dict[str, Any]]]:
        policy = self.fault_policy
        timeout_s = policy.task_timeout_s
        results_by_id: Dict[str, Dict[str, Any]] = {}
        # (task, attempt, ready_epoch): the run queue, with backoff encoded
        # as a not-before time so one task's backoff never stalls the rest.
        waiting: "deque[Tuple[TaskSpec, int, float]]" = deque(
            (task, 0, 0.0) for task in tasks
        )
        inflight: Dict[Any, _InFlight] = {}
        pool = self._new_pool(len(tasks))

        def requeue(meta: "_InFlight", exc: BaseException, reason: str) -> None:
            if charge(meta.task, meta.attempt, exc, reason):
                next_attempt = meta.attempt + 1
                waiting.append((
                    meta.task,
                    next_attempt,
                    time.time() + policy.backoff_s(meta.task.task_id, next_attempt),
                ))

        def rebuild_pool(old_pool, *, terminate: bool) -> ProcessPoolExecutor:
            if terminate:
                procs = list((getattr(old_pool, "_processes", None) or {}).values())
                old_pool.shutdown(wait=False, cancel_futures=True)
                for proc in procs:
                    try:
                        proc.terminate()
                    except Exception:  # pragma: no cover - defensive
                        pass
            else:
                old_pool.shutdown(wait=False)
            if telemetry.enabled:
                telemetry.count("executor.pool_rebuilds")
            return self._new_pool(max(1, len(waiting)))

        try:
            while waiting or inflight:
                now = time.time()
                # Fill the submission window with ready work.  Keeping
                # in-flight <= jobs means a pool crash can only strike tasks
                # that were genuinely running, so innocents in the queue are
                # never charged an attempt.
                deferred: List[Tuple[TaskSpec, int, float]] = []
                while waiting and len(inflight) < self.jobs:
                    task, attempt, ready = waiting.popleft()
                    if ready > now:
                        deferred.append((task, attempt, ready))
                        continue
                    future = pool.submit(
                        _execute_task_observed, task, telemetry.enabled,
                        attempt, timeout_s,
                    )
                    hard = None
                    if timeout_s is not None:
                        hard = now + timeout_s + policy.grace_s
                    inflight[future] = _InFlight(task, attempt, now, hard)
                waiting.extendleft(reversed(deferred))

                if not inflight:
                    # Everything is backing off; sleep to the first release.
                    ready_at = min(entry[2] for entry in waiting)
                    time.sleep(max(0.0, ready_at - time.time()))
                    continue

                deadlines = [
                    meta.hard_deadline
                    for meta in inflight.values()
                    if meta.hard_deadline is not None
                ]
                releases = [entry[2] for entry in waiting if entry[2] > now]
                wake_at = min(deadlines + releases) if (deadlines or releases) else None
                timeout = None if wake_at is None else max(0.0, wake_at - time.time())
                done, _ = wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )

                pool_broken = False
                for future in done:
                    meta = inflight.pop(future)
                    try:
                        wrapped = future.result()
                    except BrokenExecutor as exc:
                        pool_broken = True
                        requeue(meta, exc, "pool-crash")
                        continue
                    except Exception as exc:
                        requeue(meta, exc, _failure_reason(exc))
                        continue
                    payload = _unwrap_observed(
                        telemetry, meta.task, wrapped, meta.submitted,
                        task_records,
                    )
                    results_by_id[meta.task.task_id] = payload
                    if progress is not None:
                        progress(meta.task, payload)

                if pool_broken:
                    # The pool is unusable; every still-in-flight task died
                    # with it.  Charge them, rebuild, resubmit only what is
                    # unfinished.
                    for meta in list(inflight.values()):
                        requeue(
                            meta,
                            ExperimentError(
                                "worker pool broke while the task was in flight"
                            ),
                            "pool-crash",
                        )
                    inflight.clear()
                    pool = rebuild_pool(pool, terminate=False)
                    continue

                # Parent-side watchdog: a worker that blew past deadline +
                # grace is stuck beyond the reach of the in-worker signal
                # guard.  The pool API cannot kill one worker, so tear the
                # whole pool down; overdue tasks are charged a timeout,
                # innocent casualties are resubmitted at the same attempt.
                now = time.time()
                overdue = [
                    future
                    for future, meta in inflight.items()
                    if meta.hard_deadline is not None and now > meta.hard_deadline
                ]
                if overdue:
                    survivors = [
                        meta for future, meta in inflight.items()
                        if future not in overdue
                    ]
                    victims = [inflight[future] for future in overdue]
                    inflight.clear()
                    # Requeue before rebuilding (as in the BrokenExecutor
                    # branch): rebuild_pool sizes the new pool from the
                    # waiting queue, so victims and survivors must be back
                    # in it first — otherwise an all-in-flight stall leaves
                    # a one-worker pool serving up to ``jobs`` submissions,
                    # and queue wait counts against the next hard deadline.
                    for meta in victims:
                        requeue(
                            meta,
                            TaskTimeout(
                                f"task {meta.task.task_id!r} exceeded its "
                                "deadline and grace period (parent watchdog)"
                            ),
                            "timeout",
                        )
                    for meta in survivors:
                        waiting.append((meta.task, meta.attempt, 0.0))
                    pool = rebuild_pool(pool, terminate=True)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        # Every task has finished, so the workers are idle: join them, so
        # that none outlives the map and a caller's RUSAGE_CHILDREN counts
        # their CPU time and memory.
        pool.shutdown(wait=True)
        return [results_by_id.get(task.task_id) for task in tasks]

    def _new_pool(self, backlog: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, max(1, backlog)),
            initializer=mark_pool_worker,
        )


@dataclass
class _InFlight:
    """Parent-side bookkeeping for one submitted attempt."""

    task: TaskSpec
    attempt: int
    submitted: float
    hard_deadline: Optional[float]


def _unwrap_observed(
    telemetry,
    task: TaskSpec,
    wrapped: Dict[str, Any],
    submitted: float,
    task_records: Optional[Dict[str, Dict[str, Any]]],
) -> Dict[str, Any]:
    """Parent-side unwrap of one :func:`_execute_task_observed` result.

    Records the task span (anchored at the worker's wall-clock start, so
    queue wait shows as the gap after submission), merges the worker's
    telemetry snapshot beneath it, and fills the task's provenance record.
    Returns the bare payload.
    """
    obs = wrapped["obs"]
    payload = wrapped["payload"]
    queue_wait = max(0.0, obs["started"] - submitted)
    if telemetry.enabled:
        start_us = (obs["started"] - telemetry.epoch) * 1e6
        dur_us = obs["wall_s"] * 1e6
        span_id = telemetry.add_span(
            task.task_id,
            task.span_category,
            start_us,
            dur_us,
            track="tasks",
            args={"kind": task.kind, "queue_wait_s": round(queue_wait, 6)},
        )
        if obs.get("snapshot"):
            telemetry.merge_snapshot(
                obs["snapshot"], parent=span_id, track="workers"
            )
        if task.span_category == "task":
            telemetry.count("executor.tasks.completed")
    if task_records is not None:
        task_records[task.task_id] = {
            "wall_time_s": obs["wall_s"], "queue_wait_s": queue_wait,
        }
    return payload


def execute_cached(
    tasks: Sequence[TaskSpec],
    run: Callable[
        [List[TaskSpec], Callable[[TaskSpec, Dict[str, Any]], None]], None
    ],
    *,
    cache=None,
    fingerprint_for: Optional[Callable[[TaskSpec], str]] = None,
    key_material_for: Optional[Callable[[TaskSpec], Dict[str, Any]]] = None,
    progress: Optional[Callable[[TaskSpec, Dict[str, Any], bool], None]] = None,
    task_records: Optional[Dict[str, Dict[str, Any]]] = None,
    failures: Optional[Dict[str, Dict[str, Any]]] = None,
    journal=None,
) -> Dict[str, Dict[str, Any]]:
    """Serve tasks from a cache and hand every miss to ``run``.

    The shared orchestration of every cached campaign (the experiment
    campaign, the interference matrix): probe the cache once for every
    task, call ``run`` once with the misses, and store, journal and report
    each result as the runner completes it.  Returns ``{task_id: payload}``
    for every task that completed.

    Parameters
    ----------
    tasks:
        The full task list (hits and misses alike).
    run:
        The caller's runner, ``run(pending, on_done)``: it runs every task of
        ``pending`` (the misses, in task order) and calls
        ``on_done(task, payload)`` as each one completes.  It is not called
        when every task is a hit.  A task the runner quarantines into
        ``failures`` simply never completes.
    cache:
        A :class:`repro.runner.cache.ResultCache`, probed in one
        ``get_many`` call (or ``None`` to disable caching — fingerprints are
        then never computed).
    fingerprint_for:
        Callable giving one task's cache fingerprint; required when
        ``cache`` is given.
    key_material_for:
        Optional callable giving the human-readable key material stored
        beside one task's payload.
    progress:
        Optional callback ``progress(task, payload, from_cache)``: cache
        hits fire first (in task order), then completions (in the order the
        runner reports them).
    task_records:
        Optional dict filled with per-task provenance
        ``{task_id: {"origin": "cache"|"computed", "wall_time_s",
        "queue_wait_s", "fingerprint"?}}`` — the material for the
        manifest's task table and the cache-efficiency report.  The runner
        stamps a computed task's timing before it reports the task.
    failures:
        The sink in which the runner quarantines ``{task_id:
        TaskFailure.to_dict()}`` records; each is journaled once the runner
        returns.
    journal:
        Optional :class:`repro.runner.journal.ProgressJournal`; every
        completion (cache hit or computed) and every quarantined failure
        appends one state line, making the campaign resumable after a kill.
    """
    if cache is not None and fingerprint_for is None:
        raise ExperimentError("execute_cached needs fingerprint_for with a cache")

    telemetry = get_telemetry()
    results: Dict[str, Dict[str, Any]] = {}
    fingerprints: Dict[str, str] = {}
    pending: List[TaskSpec] = []
    found: Dict[str, Dict[str, Any]] = {}
    if cache is not None and tasks:
        # One batched multi-probe for the whole campaign (hot-tier backed)
        # instead of one stat+read round-trip per task.
        fingerprints = {task.task_id: fingerprint_for(task) for task in tasks}
        found = cache.get_many([fingerprints[task.task_id] for task in tasks])
    for task in tasks:
        if cache is not None:
            fp = fingerprints[task.task_id]
            payload = found.get(fp)
            if payload is not None:
                results[task.task_id] = payload
                if telemetry.enabled:
                    telemetry.count("executor.tasks.cached")
                if task_records is not None:
                    task_records[task.task_id] = {
                        "origin": "cache",
                        "wall_time_s": 0.0,
                        "queue_wait_s": 0.0,
                        "fingerprint": fp,
                    }
                if journal is not None:
                    journal.record(
                        task.task_id, "completed", fingerprint=fp, origin="cache"
                    )
                if progress is not None:
                    progress(task, payload, True)
                continue
        pending.append(task)

    def on_done(task: TaskSpec, payload: Dict[str, Any]) -> None:
        results[task.task_id] = payload
        if cache is not None:
            cache.put(
                fingerprints[task.task_id],
                payload,
                key_material=(
                    key_material_for(task) if key_material_for is not None else None
                ),
            )
        if task_records is not None:
            # The runner recorded timing before this callback fired; stamp
            # the provenance on top.
            record = task_records.setdefault(
                task.task_id, {"wall_time_s": 0.0, "queue_wait_s": 0.0}
            )
            record["origin"] = "computed"
            if task.task_id in fingerprints:
                record["fingerprint"] = fingerprints[task.task_id]
        if journal is not None:
            journal.record(
                task.task_id,
                "completed",
                fingerprint=fingerprints.get(task.task_id),
                origin="computed",
            )
        if progress is not None:
            progress(task, payload, False)

    if pending:
        run(pending, on_done)
    if journal is not None and failures:
        for task_id, failure in failures.items():
            journal.record(
                task_id,
                "failed",
                attempt=int(failure.get("attempts", 0)),
                error=str(failure.get("error", "")),
            )
    return results
