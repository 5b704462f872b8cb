"""Bulk-copy probes as one signature-group lookup, against per-thread flows.

``bulk_copy_gbps`` / ``bulk_copy_gbps_many`` answer each probe through
``SolverSession.group_rates`` without building a flow per copy thread.
The reference here is built inline the long way — ``threads`` ``Flow``
records over both controllers and the routed DMA-plane links, summed
from ``SolverSession.rates`` — and the two must agree exactly: same
aggregate bits, same solver counters, same error types, on every
shipped machine and on faulted views that keep their routes.
"""

from __future__ import annotations

import pytest

from repro.bench.engines import bulk_copy_gbps, bulk_copy_gbps_many
from repro.cli.commands import _MACHINES
from repro.core.iomodel import IOModelBuilder
from repro.errors import BenchmarkError, RoutingError, SimulationError
from repro.faults.events import LinkDegrade, LinkFail, MemoryThrottle
from repro.faults.plan import FaultedMachine
from repro.flows.flow import Flow
from repro.interconnect.planes import PLANE_DMA
from repro.solver.capacity import link_resource
from repro.solver.incremental import group_signature
from repro.solver.session import SolverSession, reset_sessions
from repro.topology.builders import reference_host


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_sessions()
    yield
    reset_sessions()


def _reference_flows(machine, src, dst, threads):
    resources = [f"ctrl-dma:{src}"]
    if dst != src:
        resources.append(f"ctrl-dma:{dst}")
        for link in machine.path(PLANE_DMA, src, dst).links:
            resources.append(link_resource(*link.ends))
    return [
        Flow(
            name=f"copy/t{i}",
            resources=tuple(resources),
            demand_gbps=machine.params.dma_per_thread_gbps,
        )
        for i in range(threads)
    ]


def _counters(session):
    stats = session.stats
    return stats.solves, stats.cache_hits, stats.cache_misses


def _faulted_views():
    host = reference_host()
    src, dst = next(iter(host.links))
    return {
        "link-degrade": FaultedMachine(
            host, [LinkDegrade(src=src, dst=dst, factor=0.4)]
        ),
        "memory-throttle": FaultedMachine(
            host, [MemoryThrottle(node=3, factor=0.5)]
        ),
    }


MACHINES = {
    **_MACHINES,
    **{name: (lambda view=view: view) for name, view in _faulted_views().items()},
}


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_group_lookup_equals_per_thread_flows(name):
    machine = MACHINES[name]()
    pairs = [(s, d) for s in machine.node_ids for d in machine.node_ids]
    m = IOModelBuilder(machine).threads_per_node()
    session = SolverSession(machine)
    reference = SolverSession(machine)
    for threads in (1, m):
        batched = bulk_copy_gbps_many(machine, pairs, threads, session=session)
        expected = [
            sum(reference.rates(_reference_flows(machine, s, d, threads)).values())
            for s, d in pairs
        ]
        assert batched == expected
        assert _counters(session) == _counters(reference)
    # The per-pair entry answers from the same shared cache.
    for s, d in pairs[:: max(1, len(pairs) // 16)]:
        single = bulk_copy_gbps(machine, s, d, m, session=session)
        expected = sum(reference.rates(_reference_flows(machine, s, d, m)).values())
        assert single == expected
    assert _counters(session) == _counters(reference)
    # Both entries key a probe identically: flow records hit the groups.
    solves = session.stats.solves
    for s, d in pairs[:: max(1, len(pairs) // 16)]:
        session.rates(_reference_flows(machine, s, d, m))
    assert session.stats.solves == solves


class TestErrorsKeepTheirType:
    def test_zero_threads(self):
        host = reference_host()
        with pytest.raises(BenchmarkError):
            bulk_copy_gbps(host, 0, 7, threads=0)
        with pytest.raises(BenchmarkError):
            bulk_copy_gbps_many(host, [(0, 7), (7, 0)], threads=0)

    def test_zero_capacity_resource(self):
        host = reference_host()
        session = SolverSession(host)
        caps = session.capacities()
        caps["ctrl-dma:7"] = 0.0
        flows = _reference_flows(host, 0, 7, 4)
        with pytest.raises(SimulationError, match="non-positive capacity"):
            session.rates(flows, caps)
        group = (group_signature(flows[0].resources, flows[0].demand_gbps), 4)
        with pytest.raises(SimulationError, match="non-positive capacity"):
            session.group_rates([group], caps)

    def test_lost_route_on_partitioned_view(self):
        view = FaultedMachine(
            reference_host(), [LinkFail(a=0, b=1), LinkFail(a=0, b=7)]
        )
        with pytest.raises(RoutingError):
            _reference_flows(view, 0, 4, 4)
        with pytest.raises(RoutingError):
            bulk_copy_gbps(view, 0, 4, threads=4)
        with pytest.raises(RoutingError):
            bulk_copy_gbps_many(view, [(4, 5), (4, 0)], threads=4)
        # Pairs that keep a route still answer on the partitioned view.
        assert bulk_copy_gbps(view, 4, 5, threads=4) == sum(
            SolverSession(view).rates(_reference_flows(view, 4, 5, 4)).values()
        )

    @pytest.mark.parametrize(
        "resources, demand, weight, capacities, match",
        [
            (("r0", "r9"), 1.0, 1.0, {"r0": 1.0}, "unknown resource"),
            (("r0", "r0"), 1.0, 1.0, {"r0": 1.0}, "resource twice"),
            (("r0",), 0.0, 1.0, {"r0": 1.0}, "demand must be positive"),
            (("r0",), 1.0, -1.0, {"r0": 1.0}, "weight must be positive"),
            ((), float("inf"), 1.0, {"r0": 1.0}, "unbounded"),
        ],
    )
    def test_group_checks_match_flow_checks(
        self, resources, demand, weight, capacities, match
    ):
        with pytest.raises(SimulationError, match=match):
            SolverSession().rates(
                [Flow(name="f", resources=resources, demand_gbps=demand,
                      weight=weight)],
                capacities,
            )
        signature = (tuple(resources), float(demand), float(weight))
        with pytest.raises(SimulationError, match=match):
            SolverSession().group_rates([(signature, 2)], capacities)


@pytest.mark.fabric
def test_sharded_bulk_copy_task_equals_serial():
    from repro.fabric import FabricPool, live_segments

    host = reference_host()
    pairs = [(s, d) for s in host.node_ids for d in host.node_ids]
    serial = bulk_copy_gbps_many(host, pairs, 4)
    with FabricPool(jobs=2) as pool:
        sharded = pool.bulk_copy_gbps_many(host, pairs, 4)
    assert sharded == serial
    assert live_segments() == []
