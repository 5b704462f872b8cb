"""Time-domain flow simulation.

Long benchmarks (fio's 400-GB-per-stream transfers) are simulated by
recomputing the max-min allocation at every *rate-change event* — a flow
arriving or completing, or, under a fault policy, a capacity boundary or
a parked flow waking — and integrating bytes between events.  With
identical, simultaneous streams the allocation is constant and the loop
converges in one step; with staggered or mixed workloads the piecewise-
constant rate profile is captured exactly.  Allocations go through an
:class:`~repro.solver.incremental.AllocationCache`, so the loop only
solves cold when the active-flow *multiset* is one it has not seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.solver.incremental import AllocationCache
from repro.units import gbps, gbps_to_bytes_per_s

__all__ = ["FlowOutcome", "FlowNetwork"]

_TIME_EPS = 1e-15


@dataclass(frozen=True)
class FlowOutcome:
    """Result of one flow's transfer.

    ``status`` is ``"ok"`` for an undisturbed flow.  A fault-policy
    network (:class:`~repro.faults.degraded.DegradedFlowRunner`) also
    reports ``"rerouted"`` (continued on an alternative route),
    ``"recovered"`` (waited out a fault via retries) or ``"failed"``
    (gave up; ``bytes_moved`` holds the partial progress and ``reason``
    says why).
    """

    name: str
    bytes_moved: float
    start_s: float
    finish_s: float
    status: str = "ok"
    reason: str | None = None
    retries: int = 0
    reroutes: int = 0

    @property
    def completed(self) -> bool:
        """Whether the transfer moved all of its bytes."""
        return self.status != "failed"

    @property
    def duration_s(self) -> float:
        """Transfer duration in seconds (until abandonment, if failed)."""
        return self.finish_s - self.start_s

    @property
    def avg_gbps(self) -> float:
        """Average bandwidth over the flow's lifetime (0 for instant fails)."""
        if self.duration_s <= 0 and not self.completed:
            return 0.0
        return gbps(self.bytes_moved, self.duration_s)


#: What a fault policy decides for a flow on a dead resource: continue
#: on a re-routed :class:`Flow`, park until a wake time (``float``), or
#: fail with a reason (``str``).
Verdict = Flow | float | str


class FlowNetwork:
    """A set of capacitated resources shared by finite flows.

    Parameters
    ----------
    capacities:
        Resource name -> capacity in Gbps.
    allocator:
        Optional shared :class:`~repro.solver.incremental.AllocationCache`
        (a :class:`~repro.solver.session.SolverSession` passes its own so
        every network it hands out shares one memo).  By default each
        network owns a private cache, which already collapses the
        repeated solves of a ``simulate`` event loop.
    stats:
        Optional :class:`~repro.obs.stats.SolverStats` that simulation
        events are counted into.

    Subclasses turn the fixed network into a time-varying one through
    three hooks — :meth:`_capacities_at`, :meth:`_next_boundary` and
    :meth:`_dead_flows` — and :meth:`simulate` stays the one event loop.
    """

    def __init__(
        self,
        capacities: Mapping[str, float],
        allocator: AllocationCache | None = None,
        stats=None,
    ) -> None:
        self.capacities = dict(capacities)
        self._allocator = allocator if allocator is not None else AllocationCache()
        self._stats = stats

    def rates(self, flows: Iterable[Flow]) -> dict[str, float]:
        """Instantaneous max-min rates for a set of concurrent flows."""
        return self._allocator.rates(flows, self.capacities)

    # --- hooks (a fixed, healthy network) ----------------------------------
    def _capacities_at(self, t: float) -> Mapping[str, float]:
        """The capacity map in force at time ``t`` (do not mutate)."""
        return self.capacities

    def _next_boundary(self, t: float) -> float | None:
        """The next time after ``t`` at which capacities change, if any."""
        return None

    def _dead_flows(
        self,
        active: Mapping[str, Flow],
        caps: Mapping[str, float],
        now: float,
        retries: Mapping[str, int],
    ) -> list[tuple[str, Verdict]]:
        """``(name, verdict)`` for each active flow on a dead resource.

        ``retries`` counts each flow's parks so far.  A healthy network
        has no dead resources.
        """
        return []

    # --- the event loop -----------------------------------------------------
    def simulate(self, flows: Iterable[Flow]) -> dict[str, FlowOutcome]:
        """Run finite flows to completion; returns per-flow outcomes.

        Every flow must carry ``size_bytes`` and a unique name.  Arrival
        times come from ``flow.start_s``.  Rates are re-solved at every
        event: an arrival, a completion, a parked flow waking up, or a
        capacity boundary.
        """
        pending = sorted(flows, key=lambda f: (f.start_s, f.name))
        for f in pending:
            if f.size_bytes is None:
                raise SimulationError(f"flow {f.name!r} has no size; use rates() instead")
        remaining = {f.name: float(f.size_bytes) for f in pending}  # type: ignore[arg-type]
        if len(remaining) != len(pending):
            raise SimulationError("duplicate flow names in flow simulation")
        outcomes: dict[str, FlowOutcome] = {}
        active: dict[str, Flow] = {}
        parked: dict[str, tuple[float, Flow]] = {}  # name -> (wake time, flow)
        retries: dict[str, int] = {}
        reroutes: dict[str, int] = {}

        def settle(f: Flow, moved: float, reason: str | None = None) -> None:
            tries, routes = retries.get(f.name, 0), reroutes.get(f.name, 0)
            if reason is not None:
                status = "failed"
            elif routes:
                status = "rerouted"
            elif tries:
                status = "recovered"
            else:
                status = "ok"
            outcomes[f.name] = FlowOutcome(
                f.name, moved, f.start_s, now, status, reason, tries, routes
            )

        now = pending[0].start_s if pending else 0.0
        guard = 0
        while pending or active or parked:
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - safety valve
                raise SimulationError("flow simulation failed to converge")
            if self._stats is not None:
                self._stats.events += 1
            while pending and pending[0].start_s <= now + _TIME_EPS:
                f = pending.pop(0)
                active[f.name] = f
            if parked:
                for name in [n for n, (w, _) in parked.items() if w <= now + _TIME_EPS]:
                    active[name] = parked.pop(name)[1]

            caps = self._capacities_at(now)
            for name, verdict in self._dead_flows(active, caps, now, retries):
                if isinstance(verdict, Flow):
                    active[name] = verdict
                    reroutes[name] = reroutes.get(name, 0) + 1
                elif isinstance(verdict, str):
                    f = active.pop(name)
                    settle(f, float(f.size_bytes) - remaining[name], verdict)  # type: ignore[arg-type]
                else:
                    parked[name] = (verdict, active.pop(name))
                    retries[name] = retries.get(name, 0) + 1

            # The next arrival or wake-up: where an idle network jumps to,
            # and a horizon bound for a busy one.
            wake = pending[0].start_s if pending else math.inf
            if parked:
                wake = min(wake, min(w for w, _ in parked.values()))
            if not active:
                if wake == math.inf:
                    break
                now = max(now, wake)
                continue

            current = self._allocator.rates(active.values(), caps)
            # Horizon: next event or earliest completion at current rates.
            horizon = wake - now
            boundary = self._next_boundary(now)
            if boundary is not None:
                horizon = min(horizon, boundary - now)
            for name, f in active.items():
                rate_bps = gbps_to_bytes_per_s(current[name])
                if rate_bps <= 0:
                    raise SimulationError(
                        f"flow {name!r} starved (rate 0); resource set "
                        f"{f.resources} cannot progress"
                    )
                horizon = min(horizon, remaining[name] / rate_bps)
            if horizon == math.inf or horizon < 0:
                raise SimulationError("no progress horizon in flow simulation")

            for name in active:
                remaining[name] -= gbps_to_bytes_per_s(current[name]) * horizon
            now += horizon
            for name in list(active):
                if remaining[name] <= max(1.0, 1e-9 * active[name].size_bytes):  # type: ignore[operator]
                    f = active.pop(name)
                    settle(f, float(f.size_bytes))  # type: ignore[arg-type]
        return outcomes

    def aggregate_gbps(self, outcomes: dict[str, FlowOutcome]) -> float:
        """Aggregate average bandwidth: total bytes over the busy interval.

        This matches how the paper reports multi-stream results ("the
        average aggregate performance" over the whole transfer).
        """
        if not outcomes:
            raise SimulationError("no outcomes to aggregate")
        total = sum(o.bytes_moved for o in outcomes.values())
        start = min(o.start_s for o in outcomes.values())
        finish = max(o.finish_s for o in outcomes.values())
        return gbps(total, finish - start)
