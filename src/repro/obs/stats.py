"""Solver instrumentation counters, now an obs-backed view.

:class:`SolverStats` predates :mod:`repro.obs` and remains the live
counter surface on every
:class:`~repro.solver.session.SolverSession` (and any stand-alone
:class:`~repro.solver.incremental.AllocationCache` handed one).  It is
*not* a parallel telemetry mechanism:

* :meth:`SolverStats.phase` emits an obs span (``solver.capacity`` /
  ``solver.allocate`` / ``solver.simulate``) whenever a recorder is
  installed, so per-phase timing lands in the trace with full nesting;
* :func:`solver_totals` sums the counters of every live session, which
  is how :class:`~repro.obs.recorder.capture` folds ``solver.*``
  counters into its registry while sessions keep bumping plain
  attributes on the hot path.

Counters are cumulative over the session's lifetime; callers that want
per-run numbers snapshot before and after and subtract, or simply attach
:meth:`snapshot` to their result object as the engines do.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs import recorder as _recorder

__all__ = ["SolverStats", "solver_totals"]

#: The integer counters folded into run manifests as ``solver.<name>``.
COUNTER_FIELDS = (
    "solves",
    "cache_hits",
    "cache_misses",
    "events",
    "capacity_builds",
    "capacity_hits",
    "path_hits",
    "path_misses",
)


@dataclass
class SolverStats:
    """Counters for one solver session.

    Attributes
    ----------
    solves:
        Cold max-min solves actually executed.
    cache_hits / cache_misses:
        Allocation-cache lookups served from memory vs solved cold.
    events:
        Piecewise-constant simulation events processed (arrival /
        completion steps of :meth:`repro.flows.network.FlowNetwork.simulate`).
    capacity_builds / capacity_hits:
        Machine capacity-map constructions vs cached reuses.
    path_hits / path_misses:
        Memoized path-bandwidth lookups (``dma_path_gbps`` /
        ``pio_stream_gbps``) served from cache vs computed.
    phase_wall_s:
        Wall-clock seconds per instrumented phase (``"capacity"``,
        ``"allocate"``, ``"simulate"``).
    """

    solves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    events: int = 0
    capacity_builds: int = 0
    capacity_hits: int = 0
    path_hits: int = 0
    path_misses: int = 0
    phase_wall_s: dict[str, float] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        """Total allocation-cache lookups."""
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of allocation lookups served from the cache."""
        lookups = self.lookups
        return self.cache_hits / lookups if lookups else 0.0

    @contextmanager
    def phase(self, name: str):
        """Accumulate wall time spent inside the ``with`` block.

        Doubles as the span instrumentation of the solver layer: when a
        recorder is installed the phase appears in the trace as
        ``solver.<name>`` with correct nesting.
        """
        with _recorder.span("solver." + name):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.phase_wall_s[name] = self.phase_wall_s.get(name, 0.0) + elapsed

    def reset(self) -> None:
        """Zero every counter (the session keeps its caches)."""
        self.solves = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.events = 0
        self.capacity_builds = 0
        self.capacity_hits = 0
        self.path_hits = 0
        self.path_misses = 0
        self.phase_wall_s = {}

    def snapshot(self) -> dict:
        """A plain-dict copy suitable for result objects / JSON."""
        return {
            "solves": self.solves,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "events": self.events,
            "capacity_builds": self.capacity_builds,
            "capacity_hits": self.capacity_hits,
            "path_hits": self.path_hits,
            "path_misses": self.path_misses,
            "phase_wall_s": dict(self.phase_wall_s),
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            "solver session stats",
            f"  max-min solves     {self.solves}",
            f"  cache hits/misses  {self.cache_hits}/{self.cache_misses} "
            f"(hit rate {self.hit_rate:.1%})",
            f"  events processed   {self.events}",
            f"  capacity builds    {self.capacity_builds} "
            f"(+{self.capacity_hits} cached reuses)",
            f"  path lookups       {self.path_hits} cached / "
            f"{self.path_misses} computed",
        ]
        for name in sorted(self.phase_wall_s):
            lines.append(f"  wall[{name:8s}]     {self.phase_wall_s[name] * 1e3:.2f} ms")
        return "\n".join(lines)


def solver_totals() -> dict[str, int]:
    """Counter totals summed across every live solver session.

    :class:`~repro.obs.recorder.capture` snapshots this on entry and
    exit and folds the deltas into its registry as
    ``solver.<counter>``, so sessions keep bumping plain attributes on
    the hot path.
    """
    from repro.solver.session import _SESSIONS

    totals = dict.fromkeys(COUNTER_FIELDS, 0)
    for session in _SESSIONS.values():
        stats = session.stats
        for name in COUNTER_FIELDS:
            totals[name] += getattr(stats, name)
    return totals
