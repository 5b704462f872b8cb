"""Memoized, vectorized max-min allocation.

Two observations make the simulation hot path cheap:

1. **Flows with equal signatures get equal rates.**  Progressive filling
   treats two flows identically when they share (resource set, demand,
   weight); only the multiset of signatures matters.  Cold solves
   therefore run over *signature groups* — 16 identical copy threads are
   one group — with a vectorized numpy water-filling loop, or in closed
   form when the whole problem is one group (a bulk-copy probe).  A
   caller that already knows its problem is one group asks
   :meth:`AllocationCache.group_rate` by signature and count, with no
   per-flow records at all.
2. **Active sets recur.**  A piecewise-constant simulation revisits the
   same active multiset over and over (staggered identical flows cycle
   through the same population counts), and characterization sweeps
   re-pose the same allocation problem per sample.  Results are memoized
   by (signature multiset, used-capacity items) in an LRU map.

The semantics are *identical* to :func:`repro.flows.maxmin.maxmin_allocate`
(the property suite asserts agreement within 1e-9); this module only
changes the cost of getting the answer.

Imports are deliberately minimal (numpy + the error hierarchy) so
:mod:`repro.flows.network` can depend on this module without cycles.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, Mapping

import numpy as np

from repro.errors import SimulationError

__all__ = ["AllocationCache", "flow_signature", "group_signature"]

_EPS = 1e-12


_SIGNATURE_ATTR = "_solver_signature"


def flow_signature(flow) -> tuple:
    """Canonical allocation identity of a flow.

    Two flows with equal signatures are interchangeable to the max-min
    solver and always receive identical rates, so caches key on the
    multiset of signatures rather than on flow names.  Flows are records
    (never mutated after construction), so the signature is cached on
    the flow object — a simulation touching the same flow at every event
    pays the sort once.
    """
    sig = getattr(flow, _SIGNATURE_ATTR, None)
    if sig is None:
        sig = group_signature(flow.resources, flow.demand_gbps, flow.weight)
        try:
            setattr(flow, _SIGNATURE_ATTR, sig)
        except AttributeError:  # pragma: no cover - slotted flow types
            pass
    return sig


def group_signature(resources, demand_gbps: float, weight: float = 1.0) -> tuple:
    """The signature every flow of a group shares, built without a flow.

    Equal to :func:`flow_signature` of a :class:`~repro.flows.flow.Flow`
    with these fields, so :meth:`AllocationCache.group_rate` and
    :meth:`AllocationCache.rates` key the same problem identically.
    """
    return (tuple(sorted(resources)), float(demand_gbps), float(weight))


class AllocationCache:
    """Max-min fair rates with multiset memoization.

    Parameters
    ----------
    maxsize:
        LRU bound on memoized allocation problems.
    stats:
        Optional :class:`~repro.obs.stats.SolverStats` to count
        solves and cache hits/misses into.
    """

    def __init__(self, maxsize: int = 4096, stats=None) -> None:
        if maxsize < 1:
            raise SimulationError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = stats
        self._memo: OrderedDict[tuple, dict] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memo)

    def clear(self) -> None:
        """Drop every memoized allocation."""
        self._memo.clear()

    def rates(
        self, flows: Iterable, capacities: Mapping[str, float]
    ) -> dict[str, float]:
        """Weighted max-min rates, same contract as ``maxmin_allocate``."""
        flow_list = list(flows)
        names = [f.name for f in flow_list]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate flow names in allocation: {sorted(names)}")
        for f in flow_list:
            for r in f.resources:
                if r not in capacities:
                    raise SimulationError(
                        f"flow {f.name!r} uses unknown resource {r!r}"
                    )
        used = sorted({r for f in flow_list for r in f.resources})
        for r in used:
            if capacities[r] <= 0:
                raise SimulationError(f"resource {r!r} has non-positive capacity")
        unbounded = sorted(
            f.name
            for f in flow_list
            if not f.resources and math.isinf(f.demand_gbps)
        )
        if unbounded:
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources: "
                f"{unbounded}"
            )
        if not flow_list:
            return {}

        signatures = [flow_signature(f) for f in flow_list]
        key = (
            tuple(sorted(signatures)),
            tuple((r, float(capacities[r])) for r in used),
        )
        per_signature = self._memoized(
            key, lambda caps: _solve_groups(signatures, caps)
        )
        return {f.name: per_signature[sig] for f, sig in zip(flow_list, signatures)}

    def group_rate(
        self, signature: tuple, count: int, capacities: Mapping[str, float]
    ) -> float:
        """Per-flow rate of ``count`` identical flows sharing ``signature``.

        The lone-group entry: the answer :meth:`rates` gives each of
        ``count`` flows whose :func:`flow_signature` is ``signature``
        (build one with :func:`group_signature`), with the same checks,
        the same memo key — the two entries share one LRU map and one
        set of counters — and the same closed-form solve, but no flow
        records.  A bulk-copy probe is exactly this problem.
        """
        resources, demand, weight = signature
        if count < 1:
            raise SimulationError(f"a flow group needs >= 1 flow, got {count}")
        if demand <= 0:
            raise SimulationError("flow group: demand must be positive")
        if weight <= 0:
            raise SimulationError("flow group: weight must be positive")
        if len(set(resources)) != len(resources):
            raise SimulationError("flow group lists a resource twice")
        for r in resources:
            if r not in capacities:
                raise SimulationError(f"flow group uses unknown resource {r!r}")
        for r in resources:
            if capacities[r] <= 0:
                raise SimulationError(f"resource {r!r} has non-positive capacity")
        if not resources and math.isinf(demand):
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources"
            )
        key = (
            (signature,) * count,
            tuple((r, float(capacities[r])) for r in resources),
        )
        per_signature = self._memoized(
            key, lambda caps: {signature: _fill_one_group(signature, count, caps)}
        )
        return per_signature[signature]

    def _memoized(self, key: tuple, solve) -> dict:
        """The memo lookup both entries share: LRU hit or counted cold solve.

        ``key[1]`` is the problem's (resource, capacity) items; a miss
        hands them to ``solve`` as a dict and stores its per-signature
        rates.
        """
        per_signature = self._memo.get(key)
        if per_signature is not None:
            self._memo.move_to_end(key)
            if self.stats is not None:
                self.stats.cache_hits += 1
            return per_signature
        if self.stats is not None:
            self.stats.cache_misses += 1
            self.stats.solves += 1
        per_signature = solve(dict(key[1]))
        self._memo[key] = per_signature
        while len(self._memo) > self.maxsize:
            self._memo.popitem(last=False)
        return per_signature


def _solve_groups(
    signatures: list[tuple], capacities: dict[str, float]
) -> dict[tuple, float]:
    """Cold solve: the per-flow rate of each signature.

    A group of ``m`` identical flows behaves exactly like one super-flow
    of ``m`` times the weight and demand whose rate is split evenly —
    the members raise together and freeze together.  A single group (the
    ``m`` copy threads of one bulk-copy probe) fills in exactly one
    round, so it is solved in closed form with the same float operations
    as that round of :func:`_fill_groups`; several groups run the
    vectorized loop.
    """
    groups: OrderedDict[tuple, int] = OrderedDict()
    for sig in signatures:
        groups[sig] = groups.get(sig, 0) + 1
    if len(groups) == 1:
        ((sig, count),) = groups.items()
        return {sig: _fill_one_group(sig, count, capacities)}
    return _fill_groups(groups, capacities)


def _fill_one_group(sig: tuple, count: int, capacities: dict[str, float]) -> float:
    """The one filling round of a lone group, in plain Python floats.

    Every resource in ``capacities`` carries the group, so the round's
    increment is ``min(min_r cap_r / (count * w), demand / w)``; the
    group then freezes on the saturated resource or on its demand.  The
    demand test in :func:`_fill_groups` is relative, so ``(demand / w) * w``
    freezes even where it rounds an ulp below a large demand, and the
    loop, like this closed form, always ends after that one round.
    """
    _, demand, weight = sig
    load = float(count) * weight
    increment = math.inf
    for cap in capacities.values():
        increment = min(increment, cap / load)
    increment = min(increment, demand / weight)
    if math.isinf(increment):  # pragma: no cover - pre-validated in rates()
        raise SimulationError(
            "unbounded allocation: elastic flow(s) traverse no resources"
        )
    return max(increment, 0.0) * weight


def _fill_groups(
    groups: "OrderedDict[tuple, int]", capacities: dict[str, float]
) -> dict[tuple, float]:
    """Vectorized progressive filling over signature groups.

    ``groups`` maps each signature to its flow count; returns the
    per-flow rate of each signature.
    """
    sigs = list(groups)
    counts = np.array([groups[s] for s in sigs], dtype=float)
    weights = np.array([s[2] for s in sigs], dtype=float)  # per-flow weight
    demands = np.array([s[1] for s in sigs], dtype=float)  # per-flow demand
    group_weight = counts * weights

    resource_names = list(capacities)
    index = {r: i for i, r in enumerate(resource_names)}
    incidence = np.zeros((len(resource_names), len(sigs)))
    for g, sig in enumerate(sigs):
        for r in sig[0]:
            incidence[index[r], g] = 1.0

    caps = np.array([capacities[r] for r in resource_names], dtype=float)
    # A demand counts as hit within a relative _EPS (absolute below
    # 1 Gbps), the rule of ``maxmin_allocate`` in the same float
    # operations; an elastic (inf) demand's floor is nan, never reached.
    demand_floor = np.array([s[1] - _EPS * max(1.0, s[1]) for s in sigs])
    remaining = caps.copy()
    rates = np.zeros(len(sigs))  # per-flow rate within each group
    active = np.ones(len(sigs), dtype=bool)

    while active.any():
        load = incidence[:, active] @ group_weight[active]
        increment = np.inf
        loaded = load > 0.0
        if loaded.any():
            increment = float((remaining[loaded] / load[loaded]).min())
        with np.errstate(invalid="ignore"):
            headroom = (demands[active] - rates[active]) / weights[active]
        if headroom.size:
            increment = min(increment, float(headroom.min()))
        if math.isinf(increment):  # pragma: no cover - pre-validated in rates()
            raise SimulationError(
                "unbounded allocation: elastic flow(s) traverse no resources"
            )
        increment = max(increment, 0.0)

        rates[active] += increment * weights[active]
        remaining -= increment * load

        saturated = remaining <= _EPS * caps + _EPS
        touches_saturated = incidence[saturated].sum(axis=0) > 0.0
        newly_frozen = active & (
            (rates >= demand_floor) | touches_saturated
        )
        if not newly_frozen.any():  # pragma: no cover - numeric safety valve
            raise SimulationError("progressive filling made no progress")
        active &= ~newly_frozen

    return {sig: float(rates[g]) for g, sig in enumerate(sigs)}
