"""Weighted max-min fair allocation by progressive filling.

The classic water-filling algorithm: raise every unfrozen flow's rate in
proportion to its weight until some resource saturates (or a flow hits
its demand ceiling); freeze the affected flows; repeat.  Runs in
O(F * R) per round and at most F rounds — trivial at this library's
problem sizes (tens of flows, dozens of resources).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.flows.flow import Flow

__all__ = ["maxmin_allocate"]

_EPS = 1e-12


def maxmin_allocate(
    flows: Iterable[Flow], capacities: Mapping[str, float]
) -> dict[str, float]:
    """Weighted max-min fair rates for ``flows`` over ``capacities``.

    Parameters
    ----------
    flows:
        The competing flows.  Every resource a flow names must appear in
        ``capacities``.
    capacities:
        Resource name -> capacity in Gbps.  Resources no flow uses are
        ignored.

    Returns
    -------
    dict
        Flow name -> allocated rate in Gbps.

    Raises
    ------
    SimulationError
        On duplicate flow names, unknown resources, or non-positive
        capacities.
    """
    flow_list = list(flows)
    names = [f.name for f in flow_list]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate flow names in allocation: {sorted(names)}")
    for f in flow_list:
        for r in f.resources:
            if r not in capacities:
                raise SimulationError(f"flow {f.name!r} uses unknown resource {r!r}")
    used = {r for f in flow_list for r in f.resources}
    for r in used:
        if capacities[r] <= 0:
            raise SimulationError(f"resource {r!r} has non-positive capacity")

    remaining = {r: float(capacities[r]) for r in used}
    rates = {f.name: 0.0 for f in flow_list}
    active = {f.name: f for f in flow_list}

    while active:
        # Weighted load on each resource from still-active flows.
        load: dict[str, float] = {}
        for f in active.values():
            for r in f.resources:
                load[r] = load.get(r, 0.0) + f.weight

        # Largest uniform per-weight increment every active flow can take.
        increment = math.inf
        for r, w in load.items():
            increment = min(increment, remaining[r] / w)
        for f in active.values():
            headroom = (f.demand_gbps - rates[f.name]) / f.weight
            increment = min(increment, headroom)

        if increment is math.inf:
            # All active flows are elastic and touch no resources: unbounded.
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources: "
                f"{sorted(active)}"
            )
        increment = max(increment, 0.0)

        for f in active.values():
            rates[f.name] += increment * f.weight
            for r in f.resources:
                remaining[r] -= increment * f.weight

        # Freeze flows that hit their demand or a saturated resource.  A
        # demand counts as hit within a relative _EPS (absolute below
        # 1 Gbps): ``(d / w) * w`` can round an ulp below ``d``, and above
        # ~1e4 Gbps an ulp is wider than an absolute 1e-12.
        saturated = {r for r, c in remaining.items() if c <= _EPS * capacities[r] + _EPS}
        frozen = [
            name
            for name, f in active.items()
            if rates[name] >= f.demand_gbps - _EPS * max(1.0, f.demand_gbps)
            or any(r in saturated for r in f.resources)
        ]
        if not frozen:  # pragma: no cover - numeric safety valve
            raise SimulationError("progressive filling made no progress")
        for name in frozen:
            del active[name]

    return rates
