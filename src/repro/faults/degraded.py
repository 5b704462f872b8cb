"""Degraded-mode flow simulation: reroute, back off, or fail — structurally.

:class:`~repro.flows.network.FlowNetwork` simulates against a *fixed*
capacity map.  Under a :class:`~repro.faults.plan.FaultPlan` capacities
change at fault boundaries, and a flow on a dead resource is an
expected state.  :class:`DegradedFlowRunner` is the fault policy that
``FlowNetwork.simulate``'s one event loop consults; a blocked flow is
handled in escalating order:

1. **re-route** — if a :func:`machine_rerouter` is installed and a path
   avoiding the dead resources survives on the faulted topology, the
   flow continues on the new resource set (outcome ``"rerouted"``);
2. **retry** — otherwise the flow parks and retries with seeded
   exponential backoff (the fault may recover); a flow that eventually
   completes this way reports ``"recovered"``;
3. **fail** — once the retry budget is exhausted the flow completes
   with a :class:`~repro.flows.network.FlowOutcome` of status
   ``"failed"`` (partial bytes, a human-readable reason) instead of
   raising, so multi-transfer shuffles report partial results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.errors import RouteLostError, RoutingError
from repro.faults.plan import FaultedMachine, FaultPlan
from repro.flows.flow import Flow
from repro.flows.network import FlowNetwork, FlowOutcome, Verdict
from repro.interconnect.planes import PLANE_DMA
from repro.memory.controller import MemoryController
from repro.obs import recorder as _obs
from repro.retrying import RetryPolicy
from repro.solver.capacity import link_resource
from repro.solver.incremental import AllocationCache

__all__ = [
    "RetryPolicy",
    "DegradedFlowRunner",
    "reroute_resources",
    "machine_rerouter",
]

_DEAD_EPS = 1e-12

#: A rerouter maps (flow name, dead resources, time) to a surviving
#: resource set, or ``None`` when no alternative exists.
Rerouter = Callable[[str, tuple[str, ...], float], "tuple[str, ...] | None"]


class DegradedFlowRunner(FlowNetwork):
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
        super().__init__(capacities, allocator=allocator, stats=stats)
        self.plan = plan if plan is not None else FaultPlan()
        self.retry = retry if retry is not None else RetryPolicy()
        self.rerouter = rerouter
        self._rng = rng

    # --- FlowNetwork hooks ------------------------------------------------
    def _capacities_at(self, t: float) -> Mapping[str, float]:
        return self.plan.scaled_capacities(self.capacities, t)

    def _next_boundary(self, t: float) -> float | None:
        return self.plan.next_boundary(t)

    def _dead_flows(
        self,
        active: Mapping[str, Flow],
        caps: Mapping[str, float],
        now: float,
        retries: Mapping[str, int],
    ) -> list[tuple[str, Verdict]]:
        """Re-route each blocked flow, else park it for a retry, else fail it."""
        verdicts: list[tuple[str, Verdict]] = []
        for name, flow in active.items():
            dead = tuple(r for r in flow.resources if caps.get(r, 0.0) <= _DEAD_EPS)
            if not dead:
                continue
            if self.rerouter is not None:
                alternative = self.rerouter(name, dead, now)
                if alternative is not None and not any(
                    caps.get(r, 0.0) <= _DEAD_EPS for r in alternative
                ):
                    verdicts.append((name, replace(flow, resources=tuple(alternative))))
                    _obs.count("faults.reroutes")
                    continue
            tries = retries.get(name, 0)
            if tries >= self.retry.max_retries:
                verdicts.append((
                    name,
                    f"resources {sorted(dead)} unavailable after {tries} retries",
                ))
                _obs.count("faults.flows_failed")
                continue
            verdicts.append((name, now + self.retry.delay_s(tries, self._rng)))
            _obs.count("faults.retries")
        return verdicts

    def simulate(self, flows: Iterable[Flow]) -> dict[str, FlowOutcome]:
        """Run finite flows to completion or structured failure."""
        with _obs.span(
            "faults.degraded_run", faults=len(self.plan)
        ):
            _obs.count("faults.injected", len(self.plan))
            return super().simulate(flows)


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
