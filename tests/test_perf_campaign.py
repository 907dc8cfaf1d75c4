"""Tests for the campaign-throughput benchmark (BENCH_campaign.json)."""

import json
from pathlib import Path

import pytest

from repro.errors import PerfError
from repro.perf.campaign import (
    CAMPAIGN_SCHEMA_ID,
    check_campaign_regression,
    format_campaign_summary,
    run_campaign_bench,
    validate_campaign_document,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _document():
    """A minimal valid campaign document (hand-built, no measurement)."""
    cell = {
        "jobs": 1,
        "batch": True,
        "cold_wall_s": 4.0,
        "warm_wall_s": 0.1,
        "warm_hit_rate": 1.0,
        "utilization": 0.9,
        "member_steps_per_tick": 2.5,
        "buckets": 5.0,
        "member_runs": 5.0,
        "padded_slots": 10.0,
        "padded_waste": 0.1,
        "matrix_sha256": "a" * 64,
    }
    scalar = dict(cell, batch=False, member_steps_per_tick=1.0, buckets=0.0,
                  member_runs=0.0, padded_slots=0.0, padded_waste=0.0)
    return {
        "schema": CAMPAIGN_SCHEMA_ID,
        "python": "3.11.7",
        "scale": "tiny",
        "archetypes": ["checkpoint", "analytics"],
        "n_tasks": 5,
        "repeats": 1,
        "jobs_grid": [1],
        "cells": {"jobs1-batched": cell, "jobs1-scalar": scalar},
        "identical": True,
        "batched_kernel": {
            "batched/tiny-hdd-sync-on@b8": {
                "scale": "tiny", "kind": "batched", "batch": 8,
                "n_steps": 150, "best_ns": 1000, "steps_per_sec": 15000.0,
            },
        },
        "reference": {"label": "x", "scenarios": {}},
        "speedup": {},
        "caveat": "wall times are machine-local",
    }


class TestValidate:
    def test_valid_document_passes(self):
        validate_campaign_document(_document())

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="repro-io/bench-campaign/v0"),
        lambda d: d.update(identical="yes"),
        lambda d: d.update(cells={}),
        lambda d: d["cells"]["jobs1-batched"].pop("cold_wall_s"),
        lambda d: d["cells"]["jobs1-batched"].update(jobs=0),
        lambda d: d["cells"]["jobs1-batched"].update(matrix_sha256="short"),
        lambda d: d.update(batched_kernel={}),
        lambda d: d["batched_kernel"]["batched/tiny-hdd-sync-on@b8"].update(
            steps_per_sec=0.0
        ),
        lambda d: d.update(archetypes=["solo"]),
    ])
    def test_broken_documents_fail(self, mutate):
        document = _document()
        mutate(document)
        with pytest.raises(PerfError):
            validate_campaign_document(document)


class TestRegressionGate:
    def test_identical_document_passes(self):
        doc = _document()
        assert check_campaign_regression(doc, doc) == []

    def test_nonidentical_grid_fails(self):
        current = _document()
        current["identical"] = False
        failures = check_campaign_regression(current, _document())
        assert any("byte-identical" in f for f in failures)

    @pytest.mark.parametrize("key", ["jobs1-batched", "jobs1-scalar"])
    def test_utilization_above_one_fails(self, key):
        current = _document()
        current["cells"][key]["utilization"] = 3.92
        failures = check_campaign_regression(current, _document())
        assert any(
            f.startswith(f"{key}: utilization 3.92 is above 1") for f in failures
        )

    def test_kernel_regression_fails(self):
        current = _document()
        key = "batched/tiny-hdd-sync-on@b8"
        current["batched_kernel"][key]["steps_per_sec"] = 1000.0
        failures = check_campaign_regression(current, _document())
        assert any("below 70%" in f for f in failures)

    def test_wall_times_are_not_gated(self):
        current = _document()
        current["cells"]["jobs1-batched"]["cold_wall_s"] = 9999.0
        assert check_campaign_regression(current, _document()) == []

    def test_keys_missing_from_baseline_are_skipped(self):
        baseline = _document()
        baseline["batched_kernel"] = {
            "batched/other@b4": {
                "scale": "tiny", "kind": "batched", "batch": 4,
                "n_steps": 150, "best_ns": 1000, "steps_per_sec": 1e9,
            },
        }
        assert check_campaign_regression(_document(), baseline) == []

    def test_bad_min_ratio_rejected(self):
        with pytest.raises(PerfError):
            check_campaign_regression(_document(), _document(), min_ratio=0.0)


class TestCommittedBaseline:
    def test_committed_campaign_baseline_is_valid(self):
        path = REPO_ROOT / "BENCH_campaign.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        validate_campaign_document(document)
        assert document["identical"] is True
        for key, cell in document["cells"].items():
            assert cell["utilization"] <= 1.0, key


class TestSummary:
    def test_format_mentions_cells_and_kernel(self):
        text = format_campaign_summary(_document())
        assert "jobs1-batched" in text
        assert "identical across grid: True" in text
        assert "batched/tiny-hdd-sync-on@b8" in text


class TestCampaignBenchSmoke:
    def test_tiny_grid_round_trips(self):
        document = run_campaign_bench(
            archetypes=("checkpoint", "analytics"),
            repeats=1,
            jobs_grid=(1,),
            kernel_batches=(2,),
        )
        validate_campaign_document(document)
        assert document["identical"] is True
        batched = document["cells"]["jobs1-batched"]
        assert batched["warm_hit_rate"] == 1.0
        # A fresh measurement must pass the gate against itself.
        assert check_campaign_regression(document, document) == []
