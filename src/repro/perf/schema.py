"""Validation of the ``BENCH_stepper.json`` document.

Plain-Python structural validation (the container deliberately carries no
``jsonschema`` dependency): every violation raises
:class:`~repro.errors.PerfError` naming the offending path, so a malformed
document fails loudly instead of being compared as garbage.

Scenario entries are of kind ``active``, ``e2e`` or ``batched``.  Batched
entries are lockstep-kernel measurements that advance ``batch`` same-shape
scenarios per step: they carry a mandatory ``batch`` width and their
``steps_per_sec`` is *aggregate* member-steps per second
(``n_steps * batch / wall``), so it compares directly against a scalar
entry's per-scenario throughput.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import PerfError

__all__ = ["BENCH_SCHEMA_ID", "validate_bench_document"]

BENCH_SCHEMA_ID = "repro-io/bench-stepper/v2"

_KINDS = ("active", "e2e", "batched")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise PerfError(f"invalid bench document at {path}: {message}")


def _validate_scenario(path: str, entry: object) -> None:
    _require(isinstance(entry, dict), path, "scenario entry must be an object")
    assert isinstance(entry, dict)
    _require(isinstance(entry.get("scale"), str), f"{path}.scale", "must be a string")
    _require(entry.get("kind") in _KINDS, f"{path}.kind", f"must be one of {_KINDS}")
    n_steps = entry.get("n_steps")
    _require(isinstance(n_steps, int) and n_steps > 0, f"{path}.n_steps",
             "must be a positive integer")
    best_ns = entry.get("best_ns")
    _require(isinstance(best_ns, int) and best_ns > 0, f"{path}.best_ns",
             "must be a positive integer")
    sps = entry.get("steps_per_sec")
    _require(isinstance(sps, (int, float)) and sps > 0, f"{path}.steps_per_sec",
             "must be a positive number")
    if entry.get("kind") == "batched":
        batch = entry.get("batch")
        _require(isinstance(batch, int) and batch >= 1, f"{path}.batch",
                 "must be an integer >= 1 on a batched entry")


def validate_bench_document(document: object) -> Dict:
    """Validate ``document``; return it (typed as a dict) when well-formed."""
    _require(isinstance(document, dict), "$", "document must be a JSON object")
    assert isinstance(document, dict)
    _require(document.get("schema") == BENCH_SCHEMA_ID, "$.schema",
             f"must be {BENCH_SCHEMA_ID!r}, got {document.get('schema')!r}")
    _require(isinstance(document.get("python"), str), "$.python", "must be a string")
    repeats = document.get("repeats")
    _require(isinstance(repeats, int) and repeats >= 1, "$.repeats",
             "must be an integer >= 1")
    scenarios = document.get("scenarios")
    _require(isinstance(scenarios, dict) and len(scenarios) > 0, "$.scenarios",
             "must be a non-empty object")
    assert isinstance(scenarios, dict)
    for key, entry in scenarios.items():
        _validate_scenario(f"$.scenarios[{key!r}]", entry)

    reference = document.get("reference")
    if reference is not None:
        _require(isinstance(reference, dict), "$.reference", "must be an object")
        assert isinstance(reference, dict)
        _require(isinstance(reference.get("label"), str), "$.reference.label",
                 "must be a string")
        ref_scenarios = reference.get("scenarios")
        _require(isinstance(ref_scenarios, dict), "$.reference.scenarios",
                 "must be an object")
        assert isinstance(ref_scenarios, dict)
        for key, entry in ref_scenarios.items():
            path = f"$.reference.scenarios[{key!r}]"
            _require(isinstance(entry, dict), path, "must be an object")
            assert isinstance(entry, dict)
            sps = entry.get("steps_per_sec")
            _require(isinstance(sps, (int, float)) and sps > 0,
                     f"{path}.steps_per_sec", "must be a positive number")

    speedup = document.get("speedup")
    if speedup is not None:
        _require(isinstance(speedup, dict), "$.speedup", "must be an object")
        assert isinstance(speedup, dict)
        for key, value in speedup.items():
            _require(isinstance(value, (int, float)) and value > 0,
                     f"$.speedup[{key!r}]", "must be a positive number")
            _require(key in scenarios, f"$.speedup[{key!r}]",
                     "names a scenario missing from $.scenarios")
    return document
