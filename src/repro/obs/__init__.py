"""Unified telemetry: one counter store, one capture path, run manifests.

``repro.obs`` is the observability seam of the reproduction — zero
external dependencies and deterministic-safe (enabling it never
changes a computed number, only what gets recorded about the
computation).  One model:

* **counters** — :class:`MetricsRegistry` is the only store of named
  counters (a public ``counters`` dict plus ``count``).  Run telemetry
  writes the process-wide :data:`metrics` registry through
  :func:`count`, a no-op unless a recorder is installed; the serving
  process's always-on :class:`LivePlane` is a registry too, extended
  with streaming histograms (:class:`Hist`), the bounded
  :class:`FlightRecorder` and gauge sources, with
  :class:`NullLivePlane` as its disabled twin;
* **spans** — :func:`span` context-manager timers with nesting and
  tags, recorded by the installed :class:`TraceRecorder` (a shared
  no-op when none is installed);
* **capture** — :class:`capture` records one block of work into a
  fresh recorder and folds the ``solver.*`` counter deltas
  (:func:`solver_totals`) into it.  A fabric worker task, a journaled
  unit and a whole run all use it; :meth:`TraceRecorder.payload` and
  :meth:`TraceRecorder.graft` carry a capture back into a parent
  trace.  :class:`recording` is the capture behind ``--obs-dir``: it
  also writes a JSONL span trace plus a validated ``manifest.json``
  (git SHA, config, seed registry state, per-phase timings, counter
  snapshot) that ``repro-numa obs report`` renders and diffs.

:class:`DriftWatch` and :func:`render_scrape` (the Prometheus-style
exposition behind ``repro-numa obs scrape`` / ``obs top`` /
``obs tail``) read the live plane.  :class:`SolverStats` is the solver
sessions' own counter surface; its phases emit spans.
"""

from repro.obs.live import (
    DriftWatch,
    FlightRecorder,
    Hist,
    LivePlane,
    NullLivePlane,
    classify_regime,
    render_scrape,
)
from repro.obs.metrics import MetricsRegistry, metrics
from repro.obs.recorder import (
    NullRecorder,
    TraceRecorder,
    capture,
    count,
    enabled,
    get_recorder,
    install,
    recording,
    span,
    uninstall,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    diff_manifests,
    git_sha,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.stats import SolverStats, solver_totals
from repro.obs.report import (
    load_trace,
    phase_regressions,
    render_diff,
    render_phase_triage,
    render_report,
    report_json,
)

__all__ = [
    "Hist",
    "FlightRecorder",
    "LivePlane",
    "NullLivePlane",
    "DriftWatch",
    "classify_regime",
    "render_scrape",
    "MetricsRegistry",
    "metrics",
    "NullRecorder",
    "TraceRecorder",
    "span",
    "count",
    "enabled",
    "get_recorder",
    "install",
    "uninstall",
    "capture",
    "recording",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "validate_manifest",
    "write_manifest",
    "load_manifest",
    "diff_manifests",
    "git_sha",
    "load_trace",
    "render_report",
    "render_diff",
    "report_json",
    "phase_regressions",
    "render_phase_triage",
    "SolverStats",
    "solver_totals",
]
