"""Memoized, vectorized max-min allocation.

Two observations make the simulation hot path cheap:

1. **Flows with equal signatures get equal rates.**  Progressive filling
   treats two flows identically when they share (resource set, demand,
   weight); only the multiset of signatures matters.  Cold solves
   therefore run over *signature groups* — 16 identical copy threads are
   one group — with a vectorized numpy water-filling loop.
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

__all__ = ["AllocationCache", "flow_signature"]

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
        sig = (
            tuple(sorted(flow.resources)),
            float(flow.demand_gbps),
            float(flow.weight),
        )
        try:
            setattr(flow, _SIGNATURE_ATTR, sig)
        except AttributeError:  # pragma: no cover - slotted flow types
            pass
    return sig


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
        per_signature = self._memo.get(key)
        if per_signature is not None:
            self._memo.move_to_end(key)
            if self.stats is not None:
                self.stats.cache_hits += 1
        else:
            if self.stats is not None:
                self.stats.cache_misses += 1
                self.stats.solves += 1
            per_signature = _solve_groups(
                signatures, {r: float(capacities[r]) for r in used}
            )
            self._memo[key] = per_signature
            while len(self._memo) > self.maxsize:
                self._memo.popitem(last=False)
        return {f.name: per_signature[sig] for f, sig in zip(flow_list, signatures)}


def _solve_groups(
    signatures: list[tuple], capacities: dict[str, float]
) -> dict[tuple, float]:
    """Cold solve: vectorized progressive filling over signature groups.

    Returns the *per-flow* rate of each signature.  A group of ``m``
    identical flows behaves exactly like one super-flow of ``m`` times
    the weight and demand whose rate is split evenly — the members raise
    together and freeze together.
    """
    groups: OrderedDict[tuple, int] = OrderedDict()
    for sig in signatures:
        groups[sig] = groups.get(sig, 0) + 1
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
            (rates >= demands - _EPS) | touches_saturated
        )
        if not newly_frozen.any():  # pragma: no cover - numeric safety valve
            raise SimulationError("progressive filling made no progress")
        active &= ~newly_frozen

    return {sig: float(rates[g]) for g, sig in enumerate(sigs)}
