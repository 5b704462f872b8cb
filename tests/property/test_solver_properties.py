"""Property-based equivalence of the incremental solver.

The memoized/vectorized :class:`repro.solver.incremental.AllocationCache`
must be an observationally exact replacement for a cold
:func:`repro.flows.maxmin.maxmin_allocate` call: same rates (within
1e-9) on any problem, whether the answer is solved cold, served from the
signature-multiset cache, or re-keyed after a capacity change.  The
closed-form solve of a lone signature group must equal the vectorized
filling loop exactly.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.flows.maxmin import maxmin_allocate
from repro.solver.incremental import (
    AllocationCache,
    _fill_groups,
    _solve_groups,
    flow_signature,
)

RESOURCES = ["r0", "r1", "r2", "r3", "r4"]

TOL = 1e-9


@st.composite
def problems(draw):
    n_resources = draw(st.integers(min_value=1, max_value=5))
    names = RESOURCES[:n_resources]
    caps = {
        r: draw(st.floats(min_value=0.5, max_value=100.0,
                          allow_nan=False, allow_infinity=False))
        for r in names
    }
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for i in range(n_flows):
        subset = draw(
            st.sets(st.sampled_from(names), min_size=1, max_size=n_resources)
        )
        demand = draw(
            st.one_of(
                st.just(math.inf),
                st.floats(min_value=0.1, max_value=50.0,
                          allow_nan=False, allow_infinity=False),
            )
        )
        weight = draw(st.floats(min_value=0.25, max_value=4.0,
                                allow_nan=False, allow_infinity=False))
        flows.append(
            Flow(name=f"f{i}", resources=tuple(sorted(subset)),
                 demand_gbps=demand, weight=weight)
        )
    # Duplicated signatures exercise the group-collapse path.
    if draw(st.booleans()) and flows:
        twin = flows[0]
        flows.append(
            Flow(name="twin", resources=twin.resources,
                 demand_gbps=twin.demand_gbps, weight=twin.weight)
        )
    return flows, caps


@given(problems())
@settings(max_examples=300, deadline=None)
def test_cold_solve_matches_maxmin(problem):
    flows, caps = problem
    expected = maxmin_allocate(flows, caps)
    actual = AllocationCache().rates(flows, caps)
    assert set(actual) == set(expected)
    for name in expected:
        assert actual[name] == expected[name] or (
            abs(actual[name] - expected[name]) <= TOL
        ), name


@given(problems())
@settings(max_examples=200, deadline=None)
def test_cached_solve_matches_maxmin(problem):
    """The second lookup (a cache hit) must return the same rates."""
    flows, caps = problem
    expected = maxmin_allocate(flows, caps)
    cache = AllocationCache()
    cache.rates(flows, caps)  # warm
    cached = cache.rates(flows, caps)
    for name in expected:
        assert abs(cached[name] - expected[name]) <= TOL, name


@given(problems())
@settings(max_examples=200, deadline=None)
def test_renamed_flows_reuse_cached_rates_correctly(problem):
    """A cache hit keyed on the signature multiset must hand the right
    rate to each flow even when names and ordering differ."""
    flows, caps = problem
    cache = AllocationCache()
    cache.rates(flows, caps)  # warm with the original names
    renamed = [
        Flow(name=f"alias-{i}", resources=f.resources,
             demand_gbps=f.demand_gbps, weight=f.weight)
        for i, f in enumerate(reversed(flows))
    ]
    actual = cache.rates(renamed, caps)
    expected = maxmin_allocate(renamed, caps)
    for name in expected:
        assert abs(actual[name] - expected[name]) <= TOL, name


@given(problems(), st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_capacity_change_is_not_served_stale(problem, scale):
    """Scaling a capacity changes the cache key, so the answer tracks the
    new capacities instead of replaying the old allocation."""
    flows, caps = problem
    cache = AllocationCache()
    cache.rates(flows, caps)  # warm at the original capacities
    scaled_caps = {r: c * scale for r, c in caps.items()}
    actual = cache.rates(flows, scaled_caps)
    expected = maxmin_allocate(flows, scaled_caps)
    for name in expected:
        assert abs(actual[name] - expected[name]) <= TOL, name


@given(problems())
@settings(max_examples=100, deadline=None)
def test_identical_signatures_get_identical_rates(problem):
    """The memoization premise itself: equal signatures, equal rates."""
    flows, caps = problem
    rates = AllocationCache().rates(flows, caps)
    by_signature = {}
    for f in flows:
        by_signature.setdefault(flow_signature(f), []).append(rates[f.name])
    for values in by_signature.values():
        assert max(values) - min(values) <= TOL


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def single_group_problems(draw):
    """``count`` identical flows: the shape of every bulk-copy probe.

    ``bound`` steers the demand to sit below (``"demand"``) or above
    (``"capacity"``) the group's fair share, or leaves it elastic.
    """
    n_resources = draw(st.integers(min_value=0, max_value=5))
    names = RESOURCES[:n_resources]
    caps = {r: draw(st.floats(min_value=0.5, max_value=100.0, **_finite))
            for r in names}
    count = draw(st.integers(min_value=1, max_value=32))
    weight = draw(
        st.floats(min_value=0.25, max_value=4.0, **_finite).filter(
            lambda w: w != 1.0
        )
    )
    share = min((c / (count * weight) for c in caps.values()), default=math.inf)
    bound = draw(st.sampled_from(
        ("demand", "capacity", "elastic") if names else ("demand",)
    ))
    if bound == "elastic":
        demand = math.inf
    elif bound == "capacity":
        demand = draw(st.floats(min_value=1.5, max_value=10.0, **_finite)) * (
            share * weight
        )
    else:
        demand = draw(st.floats(min_value=0.01, max_value=0.95, **_finite)) * (
            min(share, 50.0) * weight
        )
    flows = [
        Flow(name=f"f{i}", resources=tuple(names), demand_gbps=demand,
             weight=weight)
        for i in range(count)
    ]
    return flows, caps, bound


@given(single_group_problems())
@settings(max_examples=300, deadline=None)
def test_single_group_closed_form_equals_filling_loop(problem):
    flows, caps, bound = problem
    (sig,) = {flow_signature(f) for f in flows}
    closed = _solve_groups([flow_signature(f) for f in flows], caps)
    looped = _fill_groups(OrderedDict([(sig, len(flows))]), caps)
    assert closed == looped
    rate = closed[sig]
    if bound == "demand":
        assert abs(rate - sig[1]) <= TOL
    else:
        assert rate < sig[1]
    expected = maxmin_allocate(flows, caps)
    actual = AllocationCache().rates(flows, caps)
    for name in expected:
        assert abs(actual[name] - expected[name]) <= TOL, name


def test_single_elastic_group_on_no_resources_still_raises():
    flows = [Flow(name=f"f{i}", resources=()) for i in range(4)]
    with pytest.raises(SimulationError, match="unbounded"):
        AllocationCache().rates(flows, {"r0": 1.0})


def test_large_demand_cap_freezes_within_a_relative_tolerance():
    """``(d / w) * w`` can land an ulp below a demand near 1e5 Gbps.

    Both solvers freeze a demand-capped flow within a relative
    tolerance, so none of these valid problems stalls into "progressive
    filling made no progress", and they still agree exactly.
    """
    caps = {"r0": 1e9, "r1": 1e9}
    for weight in (3.0, 0.7, 1.3):
        for k in range(3000):
            demand = 1e5 + 0.37 * k
            flows = [
                Flow(name="a", resources=("r0",), demand_gbps=demand, weight=weight),
                Flow(name="b", resources=("r1",)),
            ]
            expected = maxmin_allocate(flows, caps)
            assert AllocationCache().rates(flows, caps) == expected
            assert abs(expected["a"] - demand) <= TOL * demand
            # The lone-group loop ends after the closed form's one round.
            sig = flow_signature(flows[0])
            looped = _fill_groups(OrderedDict([(sig, 1)]), {"r0": 1e9})
            assert _solve_groups([sig], {"r0": 1e9}) == looped
