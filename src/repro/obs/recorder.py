"""Span recording: hierarchical context-manager timers with a no-op fast path.

Telemetry is **off by default**: :func:`span` hands back a shared
stateless null context manager and :func:`count` returns immediately,
so instrumented hot paths pay one module-global read and a ``None``
check.  Installing a :class:`TraceRecorder` turns every
instrumentation point live: spans append events carrying wall time,
nesting depth and tags, and counters land in the recorder's
:class:`~repro.obs.metrics.MetricsRegistry`.

:class:`capture` is the one way a block of work gets its own
recording — a fabric worker's task, a journaled unit, a whole
``--obs-dir`` run (:class:`recording`).  Its plain-data
:meth:`TraceRecorder.payload` crosses process and journal boundaries
and :meth:`TraceRecorder.graft` splices it back into a parent trace.

Spans never touch the simulation's random streams or its outputs —
enabling a recorder changes what is *observed*, never what is computed,
which is what keeps EXPERIMENTS.md byte-identical with telemetry on.
"""

from __future__ import annotations

import json
import time
from typing import Mapping

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry, metrics

__all__ = [
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
]


class _NullSpan:
    """The shared do-nothing span (stateless, safe to re-enter)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags) -> None:
        """Discard tags (live spans attach them to their event)."""


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Exists so code can hold "a recorder" unconditionally;
    :func:`get_recorder` returns one when nothing is installed.
    """

    __slots__ = ()

    events: tuple = ()

    def span(self, name: str, tags: Mapping | None = None) -> _NullSpan:
        """A span that times nothing."""
        return _NULL_SPAN

    def graft(self, payload: "dict | None", label: str, **tags) -> None:
        """Discard a captured payload (nothing is recording)."""


class _LiveSpan:
    """One open span of a :class:`TraceRecorder`."""

    __slots__ = ("_recorder", "_event", "_start")

    def __init__(self, recorder: "TraceRecorder", name: str, tags) -> None:
        self._recorder = recorder
        self._event = {"name": name, "tags": dict(tags) if tags else {}}
        self._start = 0.0

    def tag(self, **tags) -> None:
        """Attach tags to this span's event (merged, last write wins)."""
        self._event["tags"].update(tags)

    def __enter__(self) -> "_LiveSpan":
        self._recorder._open(self._event)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._start
        if exc_type is not None:
            self._event["tags"]["error"] = exc_type.__name__
        self._recorder._close(self._event, wall)
        return False


class TraceRecorder:
    """Collects span events (and brokers counters) for one run.

    Parameters
    ----------
    registry:
        Metrics registry counters land in; defaults to the process-wide
        :data:`~repro.obs.metrics.metrics`.

    Events are plain dicts ordered by span *open* time::

        {"seq": 3, "name": "solver.allocate", "parent": 1, "depth": 2,
         "start_s": 0.0142, "wall_s": 0.0009, "tags": {}}

    ``start_s`` is relative to recorder creation (monotonic clock — no
    absolute timestamps anywhere, by design).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.metrics = registry if registry is not None else metrics
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        # solver_totals() already accounted for; set by capture.
        self._solver_base: dict[str, int] = {}

    def span(self, name: str, tags: Mapping | None = None) -> _LiveSpan:
        """A live span; use as a context manager."""
        return _LiveSpan(self, name, tags)

    def _open(self, event: dict) -> None:
        seq = len(self.events)
        event["seq"] = seq
        event["parent"] = self._stack[-1] if self._stack else None
        event["depth"] = len(self._stack)
        event["start_s"] = time.perf_counter() - self._t0
        self.events.append(event)
        self._stack.append(seq)

    def _close(self, event: dict, wall_s: float) -> None:
        event["wall_s"] = wall_s
        # Spans close strictly LIFO (context managers), but tolerate a
        # leaked span rather than corrupting the stack.
        if self._stack and self._stack[-1] == event["seq"]:
            self._stack.pop()
        elif event["seq"] in self._stack:  # pragma: no cover - leak guard
            self._stack.remove(event["seq"])

    @property
    def max_depth(self) -> int:
        """Deepest nesting level seen (0 for a flat trace)."""
        return max((e["depth"] for e in self.events), default=-1) + 1

    def phase_totals(self) -> dict[str, dict]:
        """Per-span-name aggregates: ``{name: {count, wall_s}}``."""
        totals: dict[str, dict] = {}
        for event in self.events:
            entry = totals.setdefault(event["name"], {"count": 0, "wall_s": 0.0})
            entry["count"] += 1
            entry["wall_s"] += event.get("wall_s", 0.0)
        return {name: totals[name] for name in sorted(totals)}

    def payload(self) -> dict:
        """This recording as plain data: span events plus counters."""
        return {
            "events": self.events,
            "counters": self.metrics.snapshot()["counters"],
        }

    def graft(self, payload: "dict | None", label: str, **tags) -> None:
        """Splice a captured :meth:`payload` into this recording.

        Counters add in name order.  The payload's spans land under a
        synthetic ``label`` container span at the current nesting
        depth, renumbered, re-parented and offset to the container's
        start.  Grafting payloads in task order gives the same span
        names, nesting and counter totals as a serial run; only wall
        times differ.  A ``None`` payload is a no-op.
        """
        if payload is None:
            return
        counters = payload["counters"]
        for name in sorted(counters):
            self.metrics.count(name, counters[name])
        events = payload["events"]
        if not events:
            return
        base = len(self.events)
        depth = len(self._stack)
        container = {
            "name": label,
            "tags": dict(tags),
            "seq": base,
            "parent": self._stack[-1] if self._stack else None,
            "depth": depth,
            "start_s": time.perf_counter() - self._t0,
            "wall_s": max(
                e["start_s"] + e.get("wall_s", 0.0) for e in events
            ),
        }
        self.events.append(container)
        for event in events:
            grafted = dict(event)
            grafted["seq"] = event["seq"] + base + 1
            grafted["parent"] = (
                base if event["parent"] is None else event["parent"] + base + 1
            )
            grafted["depth"] = event["depth"] + depth + 1
            grafted["start_s"] = container["start_s"] + event["start_s"]
            self.events.append(grafted)

    def write_trace(self, path) -> None:
        """Write the event list as JSONL (one span per line, seq order).

        Atomic: the full trace is serialized first and lands via
        temp + fsync + rename, so a crash never leaves a torn JSONL.
        """
        from repro.journal.atomic import atomic_write_text

        atomic_write_text(
            path,
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in self.events),
        )


#: The installed recorder, or ``None`` (the off-by-default fast path).
_RECORDER: TraceRecorder | None = None

_NULL_RECORDER = NullRecorder()


def enabled() -> bool:
    """Whether a recorder is installed (telemetry live)."""
    return _RECORDER is not None


def get_recorder() -> TraceRecorder | NullRecorder:
    """The installed recorder, or the shared :class:`NullRecorder`."""
    return _RECORDER if _RECORDER is not None else _NULL_RECORDER


def install(recorder: TraceRecorder) -> None:
    """Install ``recorder`` as the process recorder (one at a time)."""
    global _RECORDER
    if _RECORDER is not None:
        raise ObsError("a telemetry recorder is already installed")
    _RECORDER = recorder


def uninstall() -> TraceRecorder | None:
    """Remove and return the installed recorder (``None`` if none)."""
    global _RECORDER
    recorder, _RECORDER = _RECORDER, None
    return recorder


def span(name: str, **tags) -> "_LiveSpan | _NullSpan":
    """A context-manager timer; the shared null span when disabled."""
    recorder = _RECORDER
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(name, tags or None)


def count(name: str, n: int = 1) -> None:
    """Bump counter ``name`` by ``n`` — no-op unless recording."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.metrics.count(name, n)


class capture:
    """Record one block of work into a fresh :class:`TraceRecorder`.

    On entry the installed recorder (if any) is set aside, a new
    recorder over ``registry`` (a private
    :class:`~repro.obs.metrics.MetricsRegistry` by default) is
    installed and returned, and the solver-session counters are
    snapshotted.  On exit, even on error, the ``solver.*`` deltas are
    folded into the new registry, the set-aside recorder's own solver
    baseline advances by the same deltas (so that work reaches it once,
    through :meth:`TraceRecorder.graft`, not twice), and the set-aside
    recorder is reinstalled.  Read :meth:`TraceRecorder.payload` after
    the block to carry the recording across a process or journal
    boundary.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder: TraceRecorder | None = None
        self._outer: TraceRecorder | None = None

    def __enter__(self) -> TraceRecorder:
        from repro.obs.stats import solver_totals

        self._outer = uninstall()
        self.recorder = TraceRecorder(self.registry)
        self.recorder._solver_base = solver_totals()
        install(self.recorder)
        return self.recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        from repro.obs.stats import solver_totals

        outer, base = self._outer, self.recorder._solver_base
        try:
            uninstall()
            for name, total in solver_totals().items():
                delta = total - base.get(name, 0)
                if delta:
                    self.registry.count(f"solver.{name}", delta)
                    if outer is not None:
                        outer_base = outer._solver_base
                        outer_base[name] = outer_base.get(name, 0) + delta
        finally:
            if outer is not None:
                install(outer)
        return False


class recording(capture):
    """Record one run into ``obs_dir``: a JSONL trace plus a manifest.

    Context manager used by the CLI's ``--obs-dir`` plumbing (and usable
    directly from library code)::

        with recording("/tmp/obs", command="experiment", argv=["f10"]):
            run_experiment("f10")

    A :class:`capture` into the process-wide
    :data:`~repro.obs.metrics.metrics` registry, reset on entry; on
    exit (even on error) it writes ``trace.jsonl`` and
    ``manifest.json`` under ``obs_dir``.  Recordings do not nest: with
    a recorder already installed, entry raises
    :class:`~repro.errors.ObsError` and leaves the registry untouched.
    """

    def __init__(
        self,
        obs_dir,
        command: str = "",
        argv: "list[str] | None" = None,
        seed: int | None = None,
        config: Mapping | None = None,
    ) -> None:
        super().__init__(metrics)
        self.obs_dir = obs_dir
        self.command = command
        self.argv = list(argv) if argv is not None else []
        self.seed = seed
        self.config = dict(config) if config else {}

    def __enter__(self) -> TraceRecorder:
        if enabled():
            raise ObsError("a telemetry recorder is already installed")
        metrics.reset()
        return super().__enter__()

    def __exit__(self, exc_type, exc, tb) -> bool:
        import pathlib

        from repro.obs.manifest import build_manifest, write_manifest

        super().__exit__(exc_type, exc, tb)
        recorder = self.recorder
        outdir = pathlib.Path(self.obs_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        recorder.write_trace(outdir / "trace.jsonl")
        manifest = build_manifest(
            recorder,
            command=self.command,
            argv=self.argv,
            seed=self.seed,
            config=self.config,
            error=exc_type.__name__ if exc_type is not None else None,
        )
        write_manifest(manifest, outdir / "manifest.json")
        return False
