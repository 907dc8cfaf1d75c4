"""Shared machinery of the golden-trace regression harness.

A *golden* is a compact fingerprint of everything one simulation produces: per-application phase boundaries and byte counts, step
counts, component statistics, and a summary of every recorded
:class:`~repro.sim.timeseries.TimeSeries`.  The fingerprints of every preset
configuration and every workload archetype are stored in
``tests/goldens/goldens.json``; ``tests/test_goldens.py`` asserts they never
drift, and ``python -m tests.regen_goldens`` re-records them after an
*intentional* model change.

Floats are fingerprinted at full precision (``repr`` round-trips the exact
IEEE value), so a golden catches a single-ULP drift anywhere in the
simulated pipeline.  Fixed stepping promises never to introduce one; the
adaptive cases pin the bytes of the event-driven driver the same way.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.config.control import SteppingPolicy
from repro.config.presets import make_scenario
from repro.config.scenario import ScenarioConfig
from repro.model.results import RunResult
from repro.model.simulator import simulate_scenario
from repro.scenarios.archetypes import archetype_names
from repro.scenarios.spec import build_scenario

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens" / "goldens.json"

REGEN_HINT = (
    "if the change is intentional, regenerate the goldens with: "
    "PYTHONPATH=src python -m tests.regen_goldens"
)

#: Preset two-application configurations (the paper's knobs) fingerprinted at
#: tiny scale.  One entry per distinct simulation regime.
PRESET_CASES: Dict[str, Dict[str, object]] = {
    "preset/hdd-sync-on": dict(device="hdd", sync_mode="sync-on"),
    "preset/hdd-sync-off": dict(device="hdd", sync_mode="sync-off"),
    "preset/ssd-sync-on": dict(device="ssd", sync_mode="sync-on"),
    "preset/ssd-sync-off": dict(device="ssd", sync_mode="sync-off"),
    "preset/ram-sync-on": dict(device="ram", sync_mode="sync-on"),
    "preset/null-aio": dict(device="hdd", sync_mode="null-aio"),
    "preset/hdd-strided": dict(device="hdd", sync_mode="sync-on", pattern="strided"),
    "preset/hdd-delayed": dict(device="hdd", sync_mode="sync-on", delay=5.0),
    "preset/hdd-negative-delay": dict(device="hdd", sync_mode="sync-on", delay=-2.0),
    "preset/1g-network": dict(device="hdd", sync_mode="sync-on", network="1g"),
}

#: Name prefix of the preset cases re-run under adaptive stepping.
ADAPTIVE_PREFIX = "adaptive/"

#: Archetype pairings fingerprinted in addition to every archetype alone.
PAIR_CASES: Tuple[Tuple[str, str], ...] = (
    ("checkpoint", "analytics"),
    ("incast", "streaming"),
)


def golden_cases() -> Dict[str, Callable[[], ScenarioConfig]]:
    """Every golden case: name -> zero-argument scenario factory.

    Covers the preset configurations above, every registered workload
    archetype alone, and two representative archetype pairs, all at tiny
    scale under the default (fixed) stepping policy; plus every preset again
    under :meth:`SteppingPolicy.adaptive` (``adaptive/<preset>``).
    """
    cases: Dict[str, Callable[[], ScenarioConfig]] = {}
    for name, kwargs in PRESET_CASES.items():
        cases[name] = (lambda kw=kwargs: make_scenario("tiny", **kw))
        cases[ADAPTIVE_PREFIX + name.split("/", 1)[1]] = (
            lambda kw=kwargs: make_scenario(
                "tiny", stepping=SteppingPolicy.adaptive(), **kw
            )
        )
    for archetype in archetype_names():
        cases[f"archetype/{archetype}"] = (
            lambda a=archetype: build_scenario([a], "tiny").scenario
        )
    for a, b in PAIR_CASES:
        cases[f"pair/{a}+{b}"] = (
            lambda x=a, y=b: build_scenario([x, y], "tiny").scenario
        )
    return cases


def _full(value: float) -> str:
    """Full-precision, round-trippable text form of one float."""
    return repr(float(value))


def fingerprint_payload_of(result: RunResult) -> Dict[str, object]:
    """The canonical fingerprint payload of one run.

    Deliberately excludes wall time (non-deterministic) and anything
    derived from it; everything else a simulation produces is covered.
    """
    apps = {
        name: {
            "start_time": _full(app.start_time),
            "end_time": _full(app.end_time),
            "bytes_written": _full(app.bytes_written),
            "window_collapses": int(app.window_collapses),
        }
        for name, app in sorted(result.applications.items())
    }
    comp = result.components
    components = {
        "client_nic_utilization": _full(comp.client_nic_utilization),
        "server_nic_utilization": _full(comp.server_nic_utilization),
        "server_utilization": [_full(v) for v in comp.server_utilization],
        "device_utilization": [_full(v) for v in comp.device_utilization],
        "buffer_pressure": [_full(v) for v in comp.buffer_pressure],
        "total_window_collapses": int(comp.total_window_collapses),
    }
    series = {}
    for name in result.recorder.series_names():
        ts = result.recorder.get_series(name)
        series[name] = {
            "n": len(ts),
            "first_time": _full(ts.times[0]) if len(ts) else None,
            "last_time": _full(ts.times[-1]) if len(ts) else None,
            "mean": _full(ts.mean()) if len(ts) else None,
            "integral": _full(ts.integral()) if len(ts) else None,
        }
    return {
        "apps": apps,
        "components": components,
        "n_steps": int(result.n_steps),
        "simulated_time": _full(result.simulated_time),
        "series": series,
    }


def metric_fingerprint(result: RunResult) -> Tuple[str, Dict[str, object]]:
    """``(sha256-digest, payload)`` of one run's fingerprint."""
    payload = fingerprint_payload_of(result)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), payload


def compute_golden(factory: Callable[[], ScenarioConfig]) -> Tuple[str, Dict[str, object]]:
    """Run one case's scenario and fingerprint the result."""
    return metric_fingerprint(simulate_scenario(factory()))


def load_goldens() -> Dict[str, Dict[str, object]]:
    """The stored goldens (name -> {fingerprint, payload})."""
    with open(GOLDENS_PATH, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return document["cases"]
