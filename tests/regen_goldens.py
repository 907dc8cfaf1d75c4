"""Regenerate the golden-trace fingerprints.

Run after an *intentional* change to the simulated pipeline::

    PYTHONPATH=src python -m tests.regen_goldens

The script re-simulates every golden case (fixed stepping, plus the
``adaptive/`` preset cases) and rewrites ``tests/goldens/goldens.json``.  Review the
resulting diff carefully — every changed fingerprint is a changed simulation
result that the PR description must account for.
"""

from __future__ import annotations

import json
import sys

from tests._golden_utils import GOLDENS_PATH, compute_golden, golden_cases


def main() -> int:
    """Recompute every golden and rewrite goldens.json; returns exit code."""
    cases = {}
    for name in sorted(golden_cases()):
        digest, payload = compute_golden(golden_cases()[name])
        cases[name] = {"fingerprint": digest, "payload": payload}
        print(f"[goldens] {name:32s} {digest[:16]}", file=sys.stderr)
    document = {
        "_comment": (
            "Golden-trace fingerprints of every preset and archetype "
            "scenario (tiny scale; adaptive/ cases under adaptive stepping, "
            "the rest fixed).  Do not edit by hand; "
            "regenerate with: PYTHONPATH=src python -m tests.regen_goldens"
        ),
        "cases": cases,
    }
    GOLDENS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[goldens] wrote {len(cases)} cases to {GOLDENS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
