"""Golden-trace regression tests.

Every preset configuration and workload archetype has a recorded
full-precision metric fingerprint under ``tests/goldens/``, and every preset
has one more under adaptive stepping.  Runs must reproduce them byte for
byte; a drifted fingerprint fails loudly
with the payload diff and the regeneration hint.
"""

import json

import pytest

from tests._golden_utils import (
    GOLDENS_PATH,
    REGEN_HINT,
    compute_golden,
    golden_cases,
    load_goldens,
    metric_fingerprint,
)

CASES = golden_cases()


@pytest.fixture(scope="module")
def goldens():
    return load_goldens()


def _diff_payload(expected, actual, prefix=""):
    """Human-readable leaf-level differences between two payloads."""
    lines = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                lines.append(f"  + {path} (new): {actual[key]!r}")
            elif key not in actual:
                lines.append(f"  - {path} (gone): {expected[key]!r}")
            else:
                lines.extend(_diff_payload(expected[key], actual[key], path))
    elif expected != actual:
        lines.append(f"  ~ {prefix}: golden {expected!r} != measured {actual!r}")
    return lines


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fingerprint_is_stable(self, name, goldens):
        assert name in goldens, (
            f"no golden recorded for case {name!r}; {REGEN_HINT}"
        )
        digest, payload = compute_golden(CASES[name])
        stored = goldens[name]
        if digest != stored["fingerprint"]:
            diff = "\n".join(_diff_payload(stored["payload"], payload))
            pytest.fail(
                f"golden trace drifted for {name!r}:\n{diff}\n{REGEN_HINT}",
                pytrace=False,
            )

    def test_no_stale_goldens(self, goldens):
        """Every stored golden still has a case (and vice versa)."""
        assert set(goldens) == set(CASES), (
            f"goldens.json and the case list disagree "
            f"(stale: {sorted(set(goldens) - set(CASES))}, "
            f"missing: {sorted(set(CASES) - set(goldens))}); {REGEN_HINT}"
        )

    def test_goldens_file_is_canonical(self):
        """goldens.json is exactly what regen_goldens would write (sorted,
        2-space indented) so diffs stay reviewable."""
        text = GOLDENS_PATH.read_text(encoding="utf-8")
        document = json.loads(text)
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert "regen_goldens" in document["_comment"]


class TestFingerprintMachinery:
    def test_repeated_run_is_byte_stable(self):
        """The same scenario simulated twice fingerprints identically."""
        factory = CASES["preset/hdd-sync-on"]
        digest_1, payload_1 = compute_golden(factory)
        digest_2, payload_2 = compute_golden(factory)
        assert digest_1 == digest_2
        assert payload_1 == payload_2

    def test_fingerprint_covers_every_series(self):
        from repro.model.simulator import simulate_scenario

        result = simulate_scenario(CASES["preset/hdd-sync-on"]())
        _, payload = metric_fingerprint(result)
        assert set(payload["series"]) == set(result.recorder.series_names())
        assert payload["apps"].keys() == result.applications.keys()

    def test_fingerprint_is_sensitive_to_drift(self):
        """A one-ULP change in any covered metric changes the digest."""
        import math

        from repro.model.simulator import simulate_scenario

        result = simulate_scenario(CASES["preset/hdd-sync-on"]())
        digest, _ = metric_fingerprint(result)
        app = next(iter(result.applications))
        nudged = result.applications[app]
        object.__setattr__(
            nudged, "end_time", math.nextafter(nudged.end_time, float("inf"))
        )
        digest_nudged, _ = metric_fingerprint(result)
        assert digest != digest_nudged

    def test_payload_excludes_wall_time(self):
        from repro.model.simulator import simulate_scenario

        result = simulate_scenario(CASES["preset/hdd-sync-on"]())
        _, payload = metric_fingerprint(result)
        assert "wall_time" not in json.dumps(payload)

    def test_regen_script_is_idempotent(self, tmp_path, monkeypatch):
        """Running the regen script against current code reproduces the
        checked-in goldens byte for byte (fails when a golden is stale)."""
        import tests._golden_utils as utils
        import tests.regen_goldens as regen

        target = tmp_path / "goldens.json"
        monkeypatch.setattr(utils, "GOLDENS_PATH", target)
        monkeypatch.setattr(regen, "GOLDENS_PATH", target)
        assert regen.main() == 0
        assert target.read_text(encoding="utf-8") == GOLDENS_PATH.read_text(
            encoding="utf-8"
        )


class TestTelemetryTransparency:
    """Telemetry collection must never perturb simulation results.

    Every golden case is recomputed with a live telemetry registry
    installed; the fingerprint must match the stored golden byte for byte —
    the observability layer touches no RNG stream and no model array.
    """

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fingerprint_identical_with_telemetry_enabled(self, name, goldens):
        from repro.obs.telemetry import telemetry_session

        with telemetry_session(f"golden:{name}") as session:
            digest, _ = compute_golden(CASES[name])
            document = session.to_document()
        assert digest == goldens[name]["fingerprint"], (
            f"telemetry perturbed the simulation of {name!r}"
        )
        # and the run actually was observed (the test is not vacuous)
        assert document["counters"].get("sim.steps", 0) > 0
        assert any(s["category"] == "simulation" for s in document["spans"])
