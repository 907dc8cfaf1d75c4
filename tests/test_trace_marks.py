"""The order of trace marks, pinned where the control plane could reorder it.

The goldens fingerprint series, phase times and counts, but not the marks a
run records (application starts and ends, collective issues, burst losses
and window collapses).  Marks are appended as the control plane acts, so
these cases sit where its ordering rules decide the result: two starts at
one instant, a negative delay, a collective issue that lands between two
step instants, and a trace sample between a start and the next step.  Each
case runs under fixed and adaptive stepping; the digests were recorded
before the control plane became arrays, and every case also matches its
run inside a bucket with the others.  Whole recordings of fully traced
runs (window, progress and server series too) are pinned the same way.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import units
from repro.config.control import SteppingPolicy
from repro.config.presets import make_scenario
from repro.model.batch import BatchSimulator
from repro.model.simulator import simulate_scenario
from repro.scenarios.spec import build_scenario
from repro.sim.tracing import TraceConfig

#: A sample period that never lands on a tiny step instant (4.668 ms).
_TRACE = TraceConfig(series_sample_period=0.0073)


def _cases(stepping):
    tiny = dict(trace=_TRACE, stepping=stepping)
    return {
        # Both applications start at t = 0.
        "same-instant": make_scenario("tiny", delay=0.0, **tiny),
        # B starts first, A at the start anchor plus 0.05 s.
        "negative-delay": make_scenario("tiny", delay=-0.05, **tiny),
        # 2 MiB requests: each issue lands 10 ms after a step instant,
        # between two steps.
        "mid-step-issue": make_scenario(
            "tiny", delay=0.02, request_size=2 * units.MiB, **tiny
        ),
        # B starts at 7.1 ms and the first sample fires at 7.3 ms, both
        # between the steps at 4.668 and 9.336 ms.
        "sample-after-start": make_scenario("tiny", delay=0.0071, **tiny),
        # Non-collective issues beside collective ones.
        "streaming-incast": build_scenario(
            ["streaming", "incast"], "tiny", delay=0.013, stepping=stepping,
            trace=_TRACE,
        ).scenario,
    }


def _digest(result) -> str:
    marks = [
        (repr(m.time), m.category, m.label, repr(sorted((m.data or {}).items())))
        for m in result.recorder.marks
    ]
    return hashlib.sha256(repr(marks).encode()).hexdigest()[:16]


#: Digests of ``(time, category, label, data)`` of every mark, in order.
PINNED = {
    "fixed": {
        "same-instant": "97b0396734e29d05",
        "negative-delay": "a106a403b7452e0e",
        "mid-step-issue": "9e4de831e3aa90c0",
        "sample-after-start": "bcc99f834281b26b",
        "streaming-incast": "156986c869b70c96",
    },
    "adaptive": {
        "same-instant": "6327d0500e50ee65",
        "negative-delay": "a106a403b7452e0e",
        "mid-step-issue": "4891dedecf926a2c",
        "sample-after-start": "bcc99f834281b26b",
        "streaming-incast": "44632dd16364f5d7",
    },
}

_POLICIES = {"fixed": None, "adaptive": SteppingPolicy.adaptive()}


@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_marks_are_pinned_alone_and_in_a_bucket(policy):
    cases = _cases(_POLICIES[policy])
    alone = {name: _digest(simulate_scenario(s)) for name, s in cases.items()}
    assert alone == PINNED[policy]
    batched = BatchSimulator(list(cases.values())).run()
    assert {name: _digest(r) for name, r in zip(cases, batched)} == alone


#: Digests of the whole recording (every series and mark) of fully traced
#: runs, fixed then adaptive.
PINNED_RECORDINGS = [
    "de6ff7d36b76", "59438374de02", "e1dfce9d075e", "06cd808151cd",
    "443d4c63a6fb", "4e3f2af136de", "135b4e5c0cb6", "06cd808151cd",
]


def test_full_recordings_are_pinned():
    digests = []
    for stepping in (None, SteppingPolicy.adaptive()):
        for scenario in (
            make_scenario("tiny", delay=0.013, stepping=stepping,
                          trace=TraceConfig.full(sample_period=0.0071)),
            make_scenario("tiny", delay=-0.2, request_size=2 * units.MiB,
                          stepping=stepping, trace=TraceConfig.full(sample_period=0.02)),
            build_scenario(["streaming", "incast"], "tiny", delay=0.05, stepping=stepping,
                           trace=TraceConfig.full(sample_period=0.013)).scenario,
            # Every other step instant is a sample instant: the sample sees
            # the state after that step.
            make_scenario("tiny", delay=0.02, step=2.0 ** -8, stepping=stepping,
                          trace=TraceConfig.full(sample_period=2.0 ** -7)),
        ):
            recording = simulate_scenario(scenario).recorder.to_dict()
            digests.append(hashlib.sha256(
                json.dumps(recording, sort_keys=True).encode()).hexdigest()[:12])
    assert digests == PINNED_RECORDINGS


def test_cases_record_the_marks_they_are_about():
    cases = _cases(None)
    marks = {name: simulate_scenario(s).recorder.marks for name, s in cases.items()}
    starts = [m.time for m in marks["same-instant"] if m.label.endswith(".start")]
    assert starts == [0.0, 0.0]
    assert any(m.category == "op" for m in marks["mid-step-issue"])
    first = marks["negative-delay"][0]
    assert (first.time, first.label) == (-0.05, "B.start")
