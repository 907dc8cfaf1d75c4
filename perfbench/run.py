"""The repro-io benchmark: cold fleet matrix and cold paper campaign.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix-cold --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload is a closed loop of cold calls: every call runs in a fresh
process (``worker.py``) with fresh cache, store and output dirs under
``.bench_tmp/``, and the next call starts only after the previous one
finished, until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics (medians over the calls); ``--trace 1`` runs untraced
calls for reference and then one call under the outside-in ledger, and
reports the per-layer metrics.  Every call's outputs are checked (see
``README.md`` in this directory); the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import DETERMINISTIC_COUNTS  # noqa: E402
from worker import MATRIX_WORKLOADS, WORKLOADS  # noqa: E402

#: sha256 prefixes of the default-seed outputs (no seed option passed).
REFERENCE_DIGESTS = {
    "matrix": {"matrix.json": "84cbe593ef2f", "EXPERIMENTS.md": "6a3a8dc2ad2a"},
    "campaign": {"report": "a2a6d1ed8405"},
}
#: (agreeing, total) paper claims of the tiny campaign.
REFERENCE_CLAIMS = [22, 25]
#: The seed that passes no seed option to the matrix.
DEFAULT_SEED = 0

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
#: Measured inside the matrix-cold traced run rather than as a workload of
#: its own, so that 22 runs of every listed workload fit in an hour on a
#: 2-CPU machine.  ``--workload matrix-cold-telemetry`` still runs it alone.
TELEMETRY_WORKLOAD = "matrix-cold-telemetry"
OBS_METRICS = ("obs.persist_s", "obs.spans", "obs.counters")
SETUP_PROBES = 3
CALL_TIMEOUT_S = 170.0
#: No new call starts once this much of the run has passed.
RUN_BUDGET_S = 120.0

TMP_ROOT = ROOT / ".bench_tmp"
STATE_ROOT = ROOT / ".bench_state"


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program being wrong)."""


def source_digest() -> str:
    """Identity of the program under test: a hash of every file in ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


# --------------------------------------------------------------------------- #
# Worker processes
# --------------------------------------------------------------------------- #


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_worker(
    workload: str, seed: Optional[int], trace: int, setup_only: bool = False
) -> Dict[str, Any]:
    """Run one worker process to completion and return its JSON result."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="call-", dir=TMP_ROOT))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--trace", str(trace), "--tmp", str(tmp)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.Popen(
            cmd + ["--spawned", repr(time.monotonic())], cwd=str(tmp),
            env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} call exceeded {CALL_TIMEOUT_S:.0f}s")
        if proc.returncode != 0:
            raise BenchError(
                f"{workload} worker exited {proc.returncode}:\n{err.strip()[-2000:]}"
            )
        return json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------------- #


class StateFile:
    """First-writer-wins records shared by runs of one program version.

    Used for facts that must repeat across runs: the outputs of the three
    matrix workloads at one seed, and the deterministic counts of a traced
    workload at one seed.
    """

    def __init__(self, name: str) -> None:
        self.path = STATE_ROOT / source_digest() / f"{name}.json"

    def check(self, value: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Record ``value`` if new; else return the recorded one if it differs."""
        if self.path.exists():
            recorded = json.loads(self.path.read_text(encoding="utf-8"))
            return None if recorded == value else recorded
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(value, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
        return None


def output_problems(workload: str, seed: int, result: Dict[str, Any]) -> List[str]:
    """Why one call's outputs are wrong (empty when they are right)."""
    digests = result["digests"]
    if workload not in MATRIX_WORKLOADS:
        problems = []
        if digests != REFERENCE_DIGESTS["campaign"]:
            problems.append(f"campaign report digest {digests} != "
                            f"{REFERENCE_DIGESTS['campaign']}")
        if result["claims"] != REFERENCE_CLAIMS:
            problems.append(f"campaign claims {result['claims']} != {REFERENCE_CLAIMS}")
        return problems
    if seed == DEFAULT_SEED:
        expected: Optional[Dict[str, Any]] = REFERENCE_DIGESTS["matrix"]
        if digests == expected:
            return []
    else:
        expected = StateFile(f"matrix-outputs-seed{seed}").check(digests)
        if expected is None:
            return []
    return [f"{workload} outputs {digests} != {expected} (seed {seed})"]


def count_problems(workload: str, seed: int, layers: Dict[str, float]) -> List[str]:
    counts = {name: layers[name] for name in DETERMINISTIC_COUNTS}
    recorded = StateFile(f"counts-{workload}-seed{seed}").check(counts)
    if recorded is None:
        return []
    drift = {k: (recorded[k], counts[k]) for k in counts if recorded[k] != counts[k]}
    return [f"{workload} counts drifted (recorded, now): {drift}"]


# --------------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------------- #


class Tally:
    """Tasks attempted and failed over a run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def flag(self, problems: List[str]) -> None:
        self.failed += len(problems)
        self.problems += problems

    def add_call(self, workload: str, seed: int, result: Dict[str, Any]) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed_tasks"]
        if result["failed_tasks"]:
            self.problems.append(
                f"{workload}: {result['failed_tasks']} task(s) quarantined")
        self.flag(output_problems(workload, seed, result))


def program_seed(seed: int) -> Optional[int]:
    """The matrix seed option for a benchmark seed (``None``: pass none)."""
    return None if seed == DEFAULT_SEED else seed


def closed_loop(workload: str, seed: int, seconds: float, tally: Tally) -> List[Dict[str, Any]]:
    """Untraced calls back to back until ``seconds`` have passed (at least one)."""
    results: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        result = spawn_worker(workload, program_seed(seed), trace=0)
        tally.add_call(workload, seed, result)
        results.append(result)
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + result["wall_s"] > RUN_BUDGET_S:
            return results


def end_to_end_metrics(workload: str, seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    calls = closed_loop(workload, seed, seconds, tally)
    setups = [c["setup_s"] for c in calls]
    setups += [spawn_worker(workload, None, 0, setup_only=True)["setup_s"]
               for _ in range(SETUP_PROBES)]
    metrics = {name: statistics.median(c[name] for c in calls)
               for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    metrics["calls"] = len(calls)
    return metrics


def untraced_wall(workload: str, seed: int, seconds: float, tally: Tally) -> float:
    return statistics.median(
        c["wall_s"] for c in closed_loop(workload, seed, seconds, tally))


def traced_call(workload: str, seed: int, tally: Tally) -> Dict[str, Any]:
    """One call under the ledger, with its books and counts checked."""
    traced = spawn_worker(workload, program_seed(seed), trace=1)
    tally.add_call(workload, seed, traced)
    tally.flag([f"{workload} ledger: {p}" for p in traced["accounting_problems"]])
    tally.flag(count_problems(workload, seed, traced["layers"]))
    return traced


def layer_metrics(workload: str, seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    """One traced call, plus the untraced calls its overhead ratios need.

    On ``matrix-cold`` the ``obs`` rows come from a second pair of calls
    with telemetry on, as ``matrix --telemetry`` runs: an untraced one for
    ``obs.overhead_frac`` and a traced one for the rest.
    """
    untraced = untraced_wall(workload, seed, seconds, tally)
    telemetry_wall = None
    if workload == "matrix-cold":
        telemetry_wall = untraced_wall(TELEMETRY_WORKLOAD, seed, 0, tally)
    traced = traced_call(workload, seed, tally)
    layers = dict(traced["layers"])
    layers["obs.overhead_frac"] = 0.0
    if telemetry_wall is not None:
        layers["obs.overhead_frac"] = telemetry_wall / untraced - 1.0
        obs = traced_call(TELEMETRY_WORKLOAD, seed, tally)["layers"]
        layers.update({name: obs[name] for name in OBS_METRICS})
    layers["ledger.trace_overhead_frac"] = traced["wall_s"] / untraced - 1.0
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"matrix seed option; {DEFAULT_SEED} passes none")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    units = [(m["name"], m["unit"])
             for m in spec["per_layer" if args.trace else "end_to_end"]]
    measure = layer_metrics if args.trace else end_to_end_metrics
    tally = Tally()
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        for workload in workloads:
            measured = measure(workload, args.seed, args.seconds, tally)
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            print(f"# {workload}  seed={args.seed}  trace={args.trace}  "
                  f"calls={int(measured.get('calls', 1))}")
            for name, unit in units:
                value = float(measured[name])
                print(f"  {name:34s} {value:14.6f} {unit}")
                metrics[prefix + name] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:  # absent, or another run is still using it
            pass
    for problem in tally.problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
