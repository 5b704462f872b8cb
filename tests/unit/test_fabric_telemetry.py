"""Worker telemetry capture and deterministic grafting."""

from __future__ import annotations

import pytest

from repro.fabric.pool import _worker_run
from repro.obs import recorder as _obs
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_recorder(monkeypatch):
    # _worker_run arms its one-shot stall check on first call; keep
    # that worker-only flag out of this process's state.
    monkeypatch.setattr("repro.fabric.pool._WORKER_STALLED", True)
    _obs.uninstall()
    yield
    _obs.uninstall()


def _ping(telemetry: bool) -> dict:
    """One real worker task envelope, run in this process."""
    return _worker_run({"kind": "ping", "machine_ref": None, "seed": 1,
                        "telemetry": telemetry, "payload": {}})


def _capture_task():
    """One simulated worker task: nested spans plus counters."""
    with _obs.capture() as recorder:
        with _obs.span("task.outer", shard=0):
            _obs.count("task.items", 3)
            with _obs.span("task.inner"):
                _obs.count("task.items", 2)
    return recorder.payload()


def test_capture_disabled_is_noop():
    envelope = _ping(telemetry=False)
    assert envelope["telemetry"] is None
    assert not _obs.enabled()


def test_capture_discards_inherited_recorder():
    inherited = _obs.TraceRecorder(MetricsRegistry())
    _obs.install(inherited)
    envelope = _ping(telemetry=True)
    assert envelope["telemetry"] == {"events": [], "counters": {}}
    assert inherited.events == [] and inherited.metrics.counters == {}
    assert not _obs.enabled()


def test_capture_payload_is_plain_data():
    payload = _capture_task()
    assert set(payload) == {"events", "counters"}
    assert payload["counters"]["task.items"] == 5
    names = [e["name"] for e in payload["events"]]
    assert names == ["task.outer", "task.inner"]


def test_capture_folds_solver_delta(monkeypatch):
    import repro.obs.stats as stats_mod

    totals = {"solves": 2}
    monkeypatch.setattr(stats_mod, "solver_totals", lambda: dict(totals))
    outer = _obs.TraceRecorder(MetricsRegistry())
    _obs.install(outer)
    with _obs.capture() as recorder:
        recorder.metrics.count("x", 1)
        totals["solves"] = 7
    assert recorder.payload()["counters"]["solver.solves"] == 5
    # The set-aside recorder's baseline moved past the captured work,
    # so that work reaches it once, through the graft.
    assert outer._solver_base["solves"] == 5
    assert _obs.get_recorder() is outer


def test_capture_reinstalls_set_aside_recorder_on_error():
    outer = _obs.TraceRecorder(MetricsRegistry())
    _obs.install(outer)
    with pytest.raises(RuntimeError):
        with _obs.capture() as recorder:
            _obs.count("task.items")
            raise RuntimeError("boom")
    assert _obs.get_recorder() is outer
    assert recorder.metrics.counters == {"task.items": 1}
    assert outer.metrics.counters == {}


def test_graft_rebases_spans_under_container():
    payload = _capture_task()
    parent = _obs.TraceRecorder(MetricsRegistry())
    _obs.install(parent)
    with _obs.span("parent.phase"):
        parent.graft(payload, "fabric.worker", shard=1)
    _obs.uninstall()

    names = [e["name"] for e in parent.events]
    assert names == ["parent.phase", "fabric.worker", "task.outer", "task.inner"]
    container = parent.events[1]
    assert container["tags"] == {"shard": 1}
    assert container["parent"] == 0 and container["depth"] == 1
    outer, inner = parent.events[2], parent.events[3]
    assert outer["parent"] == container["seq"]
    assert inner["parent"] == outer["seq"]
    assert inner["depth"] == outer["depth"] + 1 == container["depth"] + 2
    seqs = [e["seq"] for e in parent.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert parent.metrics.counters["task.items"] == 5


def test_graft_is_deterministic_across_orders():
    """Counter totals are order-insensitive; spans follow graft order."""
    payloads = [_capture_task(), _capture_task()]

    def merged(order):
        parent = _obs.TraceRecorder(MetricsRegistry())
        for idx in order:
            parent.graft(payloads[idx], "fabric.worker", shard=idx)
        return parent.metrics.snapshot()["counters"]

    assert merged([0, 1]) == merged([1, 0])


def test_graft_none_payload_is_noop():
    parent = _obs.TraceRecorder(MetricsRegistry())
    parent.graft(None, "fabric.worker")
    assert parent.events == []
