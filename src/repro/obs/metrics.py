"""The metrics registry: the one store of named counters.

:class:`MetricsRegistry` is the only class that stores named counters.
Counters are monotonically increasing integers (cache hits, routes
computed, faults injected, RNG draws per stream) held in the public
:attr:`MetricsRegistry.counters` dict and bumped through
:meth:`MetricsRegistry.count`.  Two kinds of registry exist:

* the process-wide :data:`metrics` registry a run manifest snapshots.
  Instrumented layers write it through
  :func:`repro.obs.recorder.count`, a no-op unless a recorder is
  installed, so it costs nothing on un-instrumented runs;
* the serving process's :class:`~repro.obs.live.LivePlane`, a
  registry subclass that is always on and adds histograms, the flight
  recorder and gauge sources.

Names are free-form strings, conventionally ``"<subsystem>.<what>"``
(``"routing.route.cached"``) with ``/``-suffixed instances where a
counter is per-entity (``"rng.draws/iomodel/write/k7-i0-m4"``).
"""

from __future__ import annotations

__all__ = ["MetricsRegistry", "metrics"]


class MetricsRegistry:
    """Named integer counters with a JSON-ready snapshot."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def snapshot(self) -> dict:
        """A plain-dict copy: ``{"counters": {...}, "gauges": {}}``.

        ``gauges`` is always empty; it stays so manifest schema v1
        reads and diffs the same as before.
        """
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {},
        }

    def reset(self) -> None:
        """Drop every counter (recording start / tests)."""
        self.counters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({len(self.counters)} counters)"


#: The process-wide registry every instrumented layer writes into.
metrics = MetricsRegistry()
