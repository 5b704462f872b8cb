"""Time-domain flow simulation.

Long benchmarks (fio's 400-GB-per-stream transfers) are simulated by
recomputing the max-min allocation at every *rate-change event* — a flow
arriving or completing — and integrating bytes between events.  With
identical, simultaneous streams the allocation is constant and the loop
converges in one step; with staggered or mixed workloads the piecewise-
constant rate profile is captured exactly.  Allocations go through an
:class:`~repro.solver.incremental.AllocationCache`, so the loop only
solves cold when the active-flow *multiset* is one it has not seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.solver.incremental import AllocationCache
from repro.units import gbps, gbps_to_bytes_per_s

__all__ = ["FlowOutcome", "FlowNetwork"]

_TIME_EPS = 1e-15


@dataclass(frozen=True)
class FlowOutcome:
    """Result of one flow's transfer."""

    name: str
    bytes_moved: float
    start_s: float
    finish_s: float

    @property
    def duration_s(self) -> float:
        """Transfer duration in seconds."""
        return self.finish_s - self.start_s

    @property
    def avg_gbps(self) -> float:
        """Average bandwidth over the flow's lifetime."""
        return gbps(self.bytes_moved, self.duration_s)


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
    """

    def __init__(
        self,
        capacities: dict[str, float],
        allocator: AllocationCache | None = None,
        stats=None,
    ) -> None:
        self.capacities = dict(capacities)
        self._allocator = allocator if allocator is not None else AllocationCache()
        self._stats = stats

    def rates(self, flows: Iterable[Flow]) -> dict[str, float]:
        """Instantaneous max-min rates for a set of concurrent flows."""
        return self._allocator.rates(flows, self.capacities)

    def simulate(self, flows: Iterable[Flow]) -> dict[str, FlowOutcome]:
        """Run finite flows to completion; returns per-flow outcomes.

        Every flow must carry ``size_bytes``.  Arrival times come from
        ``flow.start_s``.
        """
        pending = sorted(flows, key=lambda f: (f.start_s, f.name))
        for f in pending:
            if f.size_bytes is None:
                raise SimulationError(f"flow {f.name!r} has no size; use rates() instead")
        remaining = {f.name: float(f.size_bytes) for f in pending}  # type: ignore[arg-type]
        outcomes: dict[str, FlowOutcome] = {}
        active: dict[str, Flow] = {}
        now = 0.0
        if pending:
            now = pending[0].start_s

        guard = 0
        while pending or active:
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - safety valve
                raise SimulationError("flow simulation failed to converge")
            if self._stats is not None:
                self._stats.events += 1
            while pending and pending[0].start_s <= now + _TIME_EPS:
                f = pending.pop(0)
                active[f.name] = f
            if not active:
                now = pending[0].start_s
                continue

            current = self._allocator.rates(active.values(), self.capacities)
            # Horizon: next arrival or earliest completion at current rates.
            horizon = pending[0].start_s - now if pending else math.inf
            for name, f in active.items():
                rate_bps = gbps_to_bytes_per_s(current[name])
                if rate_bps <= 0:
                    raise SimulationError(
                        f"flow {name!r} starved (rate 0); resource set "
                        f"{f.resources} cannot progress"
                    )
                horizon = min(horizon, remaining[name] / rate_bps)
            if horizon is math.inf or horizon < 0:
                raise SimulationError("no progress horizon in flow simulation")

            for name in list(active):
                moved = gbps_to_bytes_per_s(current[name]) * horizon
                remaining[name] -= moved
            now += horizon
            for name in list(active):
                if remaining[name] <= max(1.0, 1e-9 * active[name].size_bytes):  # type: ignore[operator]
                    f = active.pop(name)
                    outcomes[name] = FlowOutcome(
                        name=name,
                        bytes_moved=float(f.size_bytes),  # type: ignore[arg-type]
                        start_s=f.start_s,
                        finish_s=now,
                    )
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
