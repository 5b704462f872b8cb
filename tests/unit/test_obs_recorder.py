"""Spans, counters, and the off-by-default no-op fast path."""

from __future__ import annotations

import pytest

from repro.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    metrics,
)
from repro.obs import recorder as obs


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with telemetry off and metrics empty."""
    obs.uninstall()
    metrics.reset()
    yield
    obs.uninstall()
    metrics.reset()


# --- disabled fast path ---------------------------------------------------


def test_disabled_span_is_the_shared_null_singleton():
    assert not obs.enabled()
    first = obs.span("anything", tag=1)
    second = obs.span("other")
    assert first is second  # no allocation per call
    with first as sp:
        sp.tag(extra="ignored")  # accepted and discarded


def test_disabled_count_and_gauge_touch_nothing():
    obs.count("some.counter", 5)
    assert metrics.snapshot() == {"counters": {}, "gauges": {}}


def test_disabled_get_recorder_is_null_recorder():
    recorder = obs.get_recorder()
    assert isinstance(recorder, NullRecorder)
    assert recorder.events == ()
    with recorder.span("x"):
        pass


# --- live recording -------------------------------------------------------


def test_live_spans_record_nesting_and_tags():
    recorder = TraceRecorder(MetricsRegistry())
    obs.install(recorder)
    with obs.span("outer", plane="dma"):
        with obs.span("inner"):
            obs.count("work.items", 3)
    outer, inner = recorder.events
    assert outer["name"] == "outer" and outer["tags"] == {"plane": "dma"}
    assert outer["parent"] is None and outer["depth"] == 0
    assert inner["parent"] == outer["seq"] and inner["depth"] == 1
    assert inner["wall_s"] >= 0.0 and outer["wall_s"] >= inner["wall_s"]
    assert recorder.max_depth == 2
    assert recorder.metrics.counters["work.items"] == 3


def test_span_records_error_class_on_exception():
    recorder = TraceRecorder(MetricsRegistry())
    obs.install(recorder)
    with pytest.raises(ValueError):
        with obs.span("doomed"):
            raise ValueError("boom")
    (event,) = recorder.events
    assert event["tags"]["error"] == "ValueError"


def test_phase_totals_aggregate_by_name():
    recorder = TraceRecorder(MetricsRegistry())
    obs.install(recorder)
    for _ in range(3):
        with obs.span("repeat"):
            pass
    totals = recorder.phase_totals()
    assert totals["repeat"]["count"] == 3
    assert totals["repeat"]["wall_s"] >= 0.0


def test_install_twice_raises():
    obs.install(TraceRecorder(MetricsRegistry()))
    with pytest.raises(ObsError):
        obs.install(TraceRecorder(MetricsRegistry()))


def test_uninstall_returns_recorder_and_disables():
    recorder = TraceRecorder(MetricsRegistry())
    obs.install(recorder)
    assert obs.enabled()
    assert obs.uninstall() is recorder
    assert not obs.enabled()
    assert obs.uninstall() is None


# --- metrics registry -----------------------------------------------------


def test_metrics_registry_counters_and_gauges():
    reg = MetricsRegistry()
    reg.count("b", 2)
    reg.count("a", 2)
    reg.count("a")
    assert reg.counters == {"b": 2, "a": 3}
    snap = reg.snapshot()
    # Sorted counters; gauges stay an empty block (manifest schema v1).
    assert snap == {"counters": {"a": 3, "b": 2}, "gauges": {}}
    assert list(snap["counters"]) == ["a", "b"]
    reg.reset()
    assert reg.counters == {}


def test_metrics_counters_prefix_filter():
    reg = MetricsRegistry()
    reg.count("rng.draws/a", 1)
    reg.count("rng.draws/b", 2)
    reg.count("solver.solves", 4)
    draws = {k: v for k, v in reg.counters.items() if k.startswith("rng.draws/")}
    assert draws == {"rng.draws/a": 1, "rng.draws/b": 2}


# --- the recording context manager ----------------------------------------


def test_recording_writes_trace_and_manifest(tmp_path):
    from repro.obs import load_manifest, load_trace, recording

    with recording(tmp_path, command="test", argv=["x"], seed=7):
        with obs.span("work"):
            obs.count("events", 2)
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest["command"] == "test"
    assert manifest["seed"]["root_seed"] == 7
    assert manifest["metrics"]["counters"]["events"] == 2
    assert manifest["error"] is None
    events = load_trace(tmp_path)
    assert [e["name"] for e in events] == ["work"]


def test_recording_captures_error_and_still_writes(tmp_path):
    from repro.obs import load_manifest, recording

    with pytest.raises(RuntimeError):
        with recording(tmp_path, command="test"):
            raise RuntimeError("boom")
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest["error"] == "RuntimeError"
    assert not obs.enabled()  # recorder uninstalled despite the error


def test_nested_recording_refused_before_touching_counters(tmp_path):
    from repro.obs import recording

    with recording(tmp_path / "outer", command="outer") as recorder:
        obs.count("outer.items", 5)
        with pytest.raises(ObsError):
            with recording(tmp_path / "inner", command="inner"):
                pass  # pragma: no cover - entry refuses
        assert metrics.snapshot()["counters"] == {"outer.items": 5}
        assert obs.get_recorder() is recorder
    assert not (tmp_path / "inner").exists()
