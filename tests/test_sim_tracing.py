"""Tests for the trace recorder."""

import dataclasses

import pytest

from repro.errors import AnalysisError
from repro.sim.tracing import TraceConfig, TraceRecorder, iter_series


class TestTraceConfig:
    def test_defaults(self):
        cfg = TraceConfig()
        assert cfg.record_progress
        assert not cfg.record_windows

    def test_minimal_and_full(self):
        assert not TraceConfig.minimal().record_server_state
        assert TraceConfig.full().record_windows

    def test_frozen(self):
        cfg = TraceConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.record_marks = False
        assert hash(cfg) == hash(TraceConfig())
        assert dataclasses.replace(cfg, record_marks=False) != cfg

    def test_validation(self):
        with pytest.raises(AnalysisError):
            TraceConfig(series_sample_period=0)
        with pytest.raises(AnalysisError):
            TraceConfig(window_connection_limit=-1)


class TestRecorder:
    def test_record_and_get_series(self):
        rec = TraceRecorder()
        rec.record("progress.A", 0.0, 0.0)
        rec.record("progress.A", 1.0, 0.5)
        series = rec.get_series("progress.A")
        assert len(series) == 2
        assert rec.has_series("progress.A")
        assert not rec.has_series("progress.B")

    def test_unknown_series_raises(self):
        rec = TraceRecorder()
        with pytest.raises(AnalysisError):
            rec.get_series("missing")

    def test_series_names_prefix(self):
        rec = TraceRecorder()
        rec.record("window.A", 0.0, 1.0)
        rec.record("window.B", 0.0, 1.0)
        rec.record("progress.A", 0.0, 1.0)
        assert rec.series_names("window.") == ["window.A", "window.B"]

    def test_marks(self):
        rec = TraceRecorder()
        rec.mark(1.0, "phase", "A.start")
        rec.mark(2.0, "incast", "collapse", data={"count": 3})
        assert rec.count_marks("phase") == 1
        assert rec.count_marks("incast", "collapse") == 1
        assert rec.marks_in_category("incast")[0].data == {"count": 3}

    def test_marks_disabled(self):
        rec = TraceRecorder(TraceConfig(record_marks=False))
        rec.mark(1.0, "phase", "A.start")
        assert rec.count_marks("phase") == 0

    def test_merge_with_prefix(self):
        a = TraceRecorder()
        a.record("x", 0.0, 1.0)
        a.mark(0.0, "phase", "start")
        b = TraceRecorder()
        b.merge(a, prefix="runA.")
        assert b.has_series("runA.x")
        assert b.marks[0].label == "runA.start"

    def test_iter_series(self):
        rec = TraceRecorder()
        rec.record("s.one", 0.0, 1.0)
        rec.record("s.two", 0.0, 2.0)
        names = [s.name for s in iter_series(rec, "s.")]
        assert names == ["s.one", "s.two"]

    def test_to_dict(self):
        rec = TraceRecorder()
        rec.record("x", 0.0, 1.0)
        rec.mark(0.5, "phase", "go")
        dump = rec.to_dict()
        assert "x" in dump["series"]
        assert dump["marks"][0]["label"] == "go"
