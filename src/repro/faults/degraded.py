"""Degraded-mode flow simulation: reroute, back off, or fail — structurally.

:class:`~repro.flows.network.FlowNetwork` simulates against a *fixed*
capacity map and raises when a flow starves.  Under a
:class:`~repro.faults.plan.FaultPlan` neither holds: capacities change
at fault boundaries, and a starved flow is an expected state that the
runner must handle gracefully:

1. **re-route** — if a :func:`machine_rerouter` is installed and a path
   avoiding the dead resources survives on the faulted topology, the
   flow continues on the new resource set (outcome ``"rerouted"``);
2. **retry** — otherwise the flow parks and retries with seeded
   exponential backoff (the fault may recover); a flow that eventually
   completes this way reports ``"recovered"``;
3. **fail** — once the retry budget is exhausted the flow completes
   with a structured :class:`DegradedOutcome` of status ``"failed"``
   (partial bytes, a human-readable reason) instead of raising, so
   multi-transfer shuffles report partial results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.errors import RouteLostError, RoutingError, SimulationError
from repro.faults.plan import FaultedMachine, FaultPlan
from repro.flows.flow import Flow
from repro.interconnect.planes import PLANE_DMA
from repro.memory.controller import MemoryController
from repro.obs import recorder as _obs
from repro.retrying import RetryPolicy
from repro.solver.capacity import link_resource
from repro.solver.incremental import AllocationCache
from repro.units import gbps, gbps_to_bytes_per_s

__all__ = [
    "RetryPolicy",
    "DegradedOutcome",
    "DegradedFlowRunner",
    "reroute_resources",
    "machine_rerouter",
]

_TIME_EPS = 1e-15
_DEAD_EPS = 1e-12

#: A rerouter maps (flow name, dead resources, time) to a surviving
#: resource set, or ``None`` when no alternative exists.
Rerouter = Callable[[str, tuple[str, ...], float], "tuple[str, ...] | None"]


@dataclass(frozen=True)
class DegradedOutcome:
    """Result of one flow under fault injection.

    ``status`` is one of ``"ok"`` (never disturbed), ``"rerouted"``
    (continued on an alternative route), ``"recovered"`` (waited out a
    fault via retries) or ``"failed"`` (retry budget exhausted;
    ``bytes_moved`` holds the partial progress and ``reason`` says why).
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
        """Wall time from start to completion (or abandonment)."""
        return self.finish_s - self.start_s

    @property
    def avg_gbps(self) -> float:
        """Average bandwidth over the flow's lifetime (0 for instant fails)."""
        if self.duration_s <= 0:
            return 0.0
        return gbps(self.bytes_moved, self.duration_s)


class _FlowState:
    """Mutable bookkeeping for one flow during a degraded run."""

    __slots__ = ("flow", "remaining", "retries", "reroutes", "wake_s")

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self.remaining = float(flow.size_bytes)  # type: ignore[arg-type]
        self.retries = 0
        self.reroutes = 0
        self.wake_s = 0.0


class DegradedFlowRunner:
    """Time-domain flow simulation under a :class:`FaultPlan`.

    Parameters
    ----------
    capacities:
        The *healthy* capacity map; fault derating is applied per time
        slice, so faulted capacities never exceed these.
    plan:
        The fault schedule.  An empty plan reproduces
        :meth:`FlowNetwork.simulate` outcomes exactly (all ``"ok"``).
    rng:
        Seeded generator for backoff jitter; ``None`` disables jitter
        (still deterministic).
    retry:
        The backoff policy for blocked flows.
    rerouter:
        Optional :data:`Rerouter`; see :func:`machine_rerouter`.
    allocator:
        Optional shared allocation cache (a session's, usually).
    stats:
        Optional :class:`~repro.obs.stats.SolverStats` event counter.
    """

    def __init__(
        self,
        capacities: Mapping[str, float],
        plan: FaultPlan | None = None,
        rng: np.random.Generator | None = None,
        retry: RetryPolicy | None = None,
        rerouter: Rerouter | None = None,
        allocator: AllocationCache | None = None,
        stats=None,
    ) -> None:
        self.capacities = dict(capacities)
        self.plan = plan if plan is not None else FaultPlan()
        self.retry = retry if retry is not None else RetryPolicy()
        self.rerouter = rerouter
        self._rng = rng
        self._alloc = allocator if allocator is not None else AllocationCache()
        self._stats = stats

    # --- helpers ----------------------------------------------------------
    def _dead_resources(
        self, flow: Flow, caps: Mapping[str, float]
    ) -> tuple[str, ...]:
        return tuple(r for r in flow.resources if caps.get(r, 0.0) <= _DEAD_EPS)

    def _fail(
        self, state: _FlowState, now: float, reason: str
    ) -> DegradedOutcome:
        flow = state.flow
        return DegradedOutcome(
            name=flow.name,
            bytes_moved=float(flow.size_bytes) - state.remaining,  # type: ignore[arg-type]
            start_s=flow.start_s,
            finish_s=now,
            status="failed",
            reason=reason,
            retries=state.retries,
            reroutes=state.reroutes,
        )

    def _handle_blocked(
        self,
        state: _FlowState,
        dead: tuple[str, ...],
        caps: Mapping[str, float],
        now: float,
        waiting: dict[str, _FlowState],
        outcomes: dict[str, DegradedOutcome],
    ) -> bool:
        """Resolve one blocked flow; returns True if it stays active."""
        if self.rerouter is not None:
            alternative = self.rerouter(state.flow.name, dead, now)
            if alternative is not None and not any(
                caps.get(r, 0.0) <= _DEAD_EPS for r in alternative
            ):
                state.flow = replace(state.flow, resources=tuple(alternative))
                state.reroutes += 1
                _obs.count("faults.reroutes")
                return True
        if state.retries >= self.retry.max_retries:
            outcomes[state.flow.name] = self._fail(
                state,
                now,
                f"resources {sorted(dead)} unavailable after "
                f"{state.retries} retries",
            )
            _obs.count("faults.flows_failed")
            return False
        delay = self.retry.delay_s(state.retries, self._rng)
        state.retries += 1
        state.wake_s = now + delay
        waiting[state.flow.name] = state
        _obs.count("faults.retries")
        return False

    # --- simulation -------------------------------------------------------
    def simulate(self, flows: Iterable[Flow]) -> dict[str, DegradedOutcome]:
        """Run finite flows to completion or structured failure."""
        with _obs.span(
            "faults.degraded_run", faults=len(self.plan)
        ):
            _obs.count("faults.injected", len(self.plan))
            return self._simulate(flows)

    def _simulate(self, flows: Iterable[Flow]) -> dict[str, DegradedOutcome]:
        pending = sorted(flows, key=lambda f: (f.start_s, f.name))
        for f in pending:
            if f.size_bytes is None:
                raise SimulationError(
                    f"flow {f.name!r} has no size; degraded runs are time-domain"
                )
        states = {f.name: _FlowState(f) for f in pending}
        if len(states) != len(pending):
            raise SimulationError("duplicate flow names in degraded run")
        active: dict[str, _FlowState] = {}
        waiting: dict[str, _FlowState] = {}
        outcomes: dict[str, DegradedOutcome] = {}
        now = pending[0].start_s if pending else 0.0

        guard = 0
        while pending or active or waiting:
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - safety valve
                raise SimulationError("degraded flow simulation failed to converge")
            if self._stats is not None:
                self._stats.events += 1

            while pending and pending[0].start_s <= now + _TIME_EPS:
                f = pending.pop(0)
                active[f.name] = states[f.name]
            for name in [n for n, s in waiting.items() if s.wake_s <= now + _TIME_EPS]:
                active[name] = waiting.pop(name)

            caps = self.plan.scaled_capacities(self.capacities, now)
            # Blocked flows re-route, park for a retry, or fail.
            for name in list(active):
                state = active[name]
                dead = self._dead_resources(state.flow, caps)
                if dead and not self._handle_blocked(
                    state, dead, caps, now, waiting, outcomes
                ):
                    del active[name]

            if not active:
                # Jump to the next thing that can change the picture.
                candidates = []
                if pending:
                    candidates.append(pending[0].start_s)
                if waiting:
                    candidates.append(min(s.wake_s for s in waiting.values()))
                if not candidates:
                    break
                now = max(now, min(candidates))
                continue

            current = self._alloc.rates(
                [s.flow for s in active.values()], caps
            )
            horizon = pending[0].start_s - now if pending else math.inf
            if waiting:
                horizon = min(
                    horizon, min(s.wake_s for s in waiting.values()) - now
                )
            boundary = self.plan.next_boundary(now)
            if boundary is not None:
                horizon = min(horizon, boundary - now)
            for name, state in active.items():
                rate_bps = gbps_to_bytes_per_s(current[name])
                if rate_bps <= 0:
                    raise SimulationError(
                        f"flow {name!r} starved on live resources "
                        f"{state.flow.resources}"
                    )
                horizon = min(horizon, state.remaining / rate_bps)
            if horizon is math.inf or horizon < 0:
                raise SimulationError("no progress horizon in degraded simulation")

            for name, state in active.items():
                state.remaining -= gbps_to_bytes_per_s(current[name]) * horizon
            now += horizon
            for name in list(active):
                state = active[name]
                size = float(state.flow.size_bytes)  # type: ignore[arg-type]
                if state.remaining <= max(1.0, 1e-9 * size):
                    del active[name]
                    if state.reroutes > 0:
                        status = "rerouted"
                    elif state.retries > 0:
                        status = "recovered"
                    else:
                        status = "ok"
                    outcomes[name] = DegradedOutcome(
                        name=name,
                        bytes_moved=size,
                        start_s=state.flow.start_s,
                        finish_s=now,
                        status=status,
                        retries=state.retries,
                        reroutes=state.reroutes,
                    )
        return outcomes


def reroute_resources(
    machine, src: int, dst: int
) -> tuple[str, ...]:
    """The DMA-plane resource set for a ``src -> dst`` bulk transfer.

    On a :class:`~repro.faults.plan.FaultedMachine` this is the surviving
    route's resource set.

    Raises
    ------
    RouteLostError
        If no route from ``src`` to ``dst`` survives on ``machine``.
    """
    resources = [MemoryController(src, 0, 0).dma_resource]
    dst_ctrl = MemoryController(dst, 0, 0).dma_resource
    if dst_ctrl != resources[0]:
        resources.append(dst_ctrl)
    if src != dst:
        try:
            path = machine.path(PLANE_DMA, src, dst)
        except RoutingError as exc:
            raise RouteLostError(
                f"no DMA route from node {src} to node {dst} on "
                f"{machine.name!r}: {exc}"
            ) from exc
        for link in path.links:
            resources.append(link_resource(*link.ends))
    return tuple(resources)


def machine_rerouter(
    machine, plan: FaultPlan, endpoints: Mapping[str, tuple[int, int]]
) -> Rerouter:
    """A :data:`Rerouter` that re-routes DMA flows on the faulted topology.

    ``endpoints`` maps flow names to their ``(src, dst)`` node pair.
    Faulted machine views are cached per active-topology-fault set, so a
    plan with few boundaries costs few rebuilds.
    """
    views: dict[tuple[str, ...], FaultedMachine] = {}

    def reroute(
        name: str, dead: tuple[str, ...], t: float
    ) -> tuple[str, ...] | None:
        pair = endpoints.get(name)
        if pair is None:
            return None
        faults = plan.topology_faults_at(t)
        key = tuple(f.describe() for f in faults)
        view = views.get(key)
        if view is None:
            view = FaultedMachine(machine, faults)
            views[key] = view
        try:
            return reroute_resources(view, *pair)
        except RouteLostError:
            return None

    return reroute
