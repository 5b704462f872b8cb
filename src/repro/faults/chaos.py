"""The chaos harness: seeded fault scenarios and the resilience report.

Three scenarios run against the two workloads the paper's pipeline cares
about most:

* ``single-link-loss`` — the Fig. 10 DMA fan-in workload (bulk copies
  from every node into the device node) with one fabric cable failing
  mid-run.  Streams whose route dies re-route over the surviving fabric
  (status ``"rerouted"``);
* ``cascading-node-isolation`` — the same workload while a victim
  node's cables fail one after another until it is fully isolated; its
  streams exhaust their retry budget and complete as structured
  ``"failed"`` outcomes while the rest of the machine keeps going;
* ``flapping-uplink`` — a cluster shuffle over a switched fabric while
  one host's uplink flaps down and up; blocked transfers wait the flaps
  out with seeded exponential backoff (status ``"recovered"``).

Every random choice (victim link, victim node, victim host, backoff
jitter) comes from a named :class:`~repro.rng.RngRegistry` stream, so a
given seed yields a bit-identical report on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.fabric import SwitchedCluster, Transfer
from repro.core.classify import split_classes
from repro.errors import FaultError, RoutingError, TopologyError
from repro.faults.degraded import (
    DegradedFlowRunner,
    RetryPolicy,
    machine_rerouter,
    reroute_resources,
)
from repro.faults.events import FaultEvent, LinkFail, NicPortFlap
from repro.faults.plan import FaultedMachine, FaultPlan
from repro.flows.flow import Flow
from repro.flows.network import FlowNetwork
from repro.rng import RngRegistry
from repro.solver.capacity import build_capacities
from repro.topology.builders import reference_host
from repro.topology.machine import Machine
from repro.units import GB

__all__ = [
    "OutcomeRow",
    "ScenarioResult",
    "ChaosReport",
    "SCENARIOS",
    "run_scenario",
    "run_chaos",
]


# --- node reclassification under faults -----------------------------------

def _dma_classes(
    machine: Machine, target: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Node classes of the noise-free DMA path model, plus isolated nodes.

    Groups :meth:`Machine.dma_path_gbps` values with
    :func:`~repro.core.classify.split_classes`; nodes with no route to
    ``target`` are left out of the classes and returned as ``isolated``.
    """
    values: dict[int, float] = {}
    isolated: list[int] = []
    for n in machine.node_ids:
        try:
            values[n] = machine.dma_path_gbps(n, target)
        except RoutingError:
            isolated.append(n)
    return split_classes(values, machine, target), tuple(isolated)


def _render_classes(classes: tuple[tuple[int, ...], ...]) -> str:
    if not classes:
        return "(none)"
    return " > ".join("{" + ",".join(str(n) for n in c) + "}" for c in classes)


# --- result records ---------------------------------------------------------

@dataclass(frozen=True)
class OutcomeRow:
    """One stream/transfer outcome, normalized across both workloads."""

    name: str
    status: str
    avg_gbps: float
    retries: int
    reroutes: int
    reason: str | None = None


@dataclass(frozen=True)
class ScenarioResult:
    """Everything the resilience report says about one scenario."""

    name: str
    title: str
    workload: str
    plan_text: str
    healthy_gbps: float
    degraded_gbps: float
    rows: tuple[OutcomeRow, ...]
    healthy_classes: tuple[tuple[int, ...], ...] | None = None
    faulted_classes: tuple[tuple[int, ...], ...] | None = None
    isolated_nodes: tuple[int, ...] = ()
    classes_note: str | None = None

    @property
    def retained(self) -> float:
        """Fraction of healthy aggregate bandwidth kept under faults."""
        if self.healthy_gbps <= 0:
            return 0.0
        return self.degraded_gbps / self.healthy_gbps

    def counts(self) -> dict[str, int]:
        """Outcome tally by status (all four statuses always present)."""
        tally = {"ok": 0, "rerouted": 0, "recovered": 0, "failed": 0}
        for row in self.rows:
            tally[row.status] = tally.get(row.status, 0) + 1
        return tally

    @property
    def retry_exhausted(self) -> tuple[OutcomeRow, ...]:
        """Streams that burned their whole retry budget and failed.

        These are the structured ``"failed"`` outcomes — the runner
        only fails a stream once its retries are spent — surfaced as
        their own report section so a tightened ``--retry-budget`` is
        immediately visible.
        """
        return tuple(r for r in self.rows if r.status == "failed")

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"## scenario: {self.name} — {self.title}",
            f"workload: {self.workload}",
            f"fault plan: {self.plan_text}",
            (
                f"aggregate: healthy {self.healthy_gbps:.2f} Gbps -> degraded "
                f"{self.degraded_gbps:.2f} Gbps (retained {100 * self.retained:.1f} %)"
            ),
            (
                "outcomes: "
                + ", ".join(f"{counts[s]} {s}" for s in
                            ("ok", "rerouted", "recovered", "failed"))
                + f"; retries {sum(r.retries for r in self.rows)}"
                + f", reroutes {sum(r.reroutes for r in self.rows)}"
            ),
        ]
        if self.healthy_classes is not None and self.faulted_classes is not None:
            lines.append(f"classes (healthy): {_render_classes(self.healthy_classes)}")
            iso = (
                ",".join(str(n) for n in self.isolated_nodes)
                if self.isolated_nodes
                else "none"
            )
            lines.append(
                f"classes (faulted): {_render_classes(self.faulted_classes)}"
                f"; isolated: {iso}"
            )
        elif self.classes_note:
            lines.append(f"classes: {self.classes_note}")
        for row in self.rows:
            suffix = f"  [{row.reason}]" if row.reason else ""
            lines.append(
                f"  {row.name:<16s} {row.status:<10s} {row.avg_gbps:7.2f} Gbps"
                f"  retries {row.retries}  reroutes {row.reroutes}{suffix}"
            )
        exhausted = self.retry_exhausted
        if exhausted:
            lines.append(
                f"retry-exhausted ({len(exhausted)} stream"
                f"{'s' if len(exhausted) != 1 else ''}):"
            )
            for row in exhausted:
                lines.append(
                    f"  {row.name:<16s} gave up after {row.retries} "
                    f"retries  [{row.reason or 'no reason recorded'}]"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible form of this result."""
        return {
            "name": self.name,
            "title": self.title,
            "workload": self.workload,
            "plan": self.plan_text,
            "healthy_gbps": self.healthy_gbps,
            "degraded_gbps": self.degraded_gbps,
            "retained": self.retained,
            "counts": self.counts(),
            "isolated_nodes": list(self.isolated_nodes),
            "healthy_classes": (
                [list(c) for c in self.healthy_classes]
                if self.healthy_classes is not None else None
            ),
            "faulted_classes": (
                [list(c) for c in self.faulted_classes]
                if self.faulted_classes is not None else None
            ),
            "outcomes": [
                {
                    "name": r.name,
                    "status": r.status,
                    "avg_gbps": r.avg_gbps,
                    "retries": r.retries,
                    "reroutes": r.reroutes,
                    "reason": r.reason,
                }
                for r in self.rows
            ],
            "retry_exhausted": [
                {"name": r.name, "retries": r.retries, "reason": r.reason}
                for r in self.retry_exhausted
            ],
        }


@dataclass(frozen=True)
class ChaosReport:
    """The full resilience report across scenarios."""

    machine_name: str
    seed: int
    results: tuple[ScenarioResult, ...]

    def render(self) -> str:
        lines = [
            f"CHAOS RESILIENCE REPORT — machine {self.machine_name!r}, "
            f"seed {self.seed}",
        ]
        for result in self.results:
            lines.append("")
            lines.append(result.render())
        total_failed = sum(r.counts()["failed"] for r in self.results)
        total_retries = sum(sum(row.retries for row in r.rows) for r in self.results)
        lines.append("")
        lines.append(
            f"totals: {len(self.results)} scenarios, "
            f"{total_failed} failed transfers, {total_retries} retries"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible form of the report."""
        return {
            "machine": self.machine_name,
            "seed": self.seed,
            "scenarios": [r.to_dict() for r in self.results],
        }


# --- the Fig. 10 DMA fan-in workload ---------------------------------------

def _dma_fanin_flows(
    machine: Machine, target: int, per_node: int, size_bytes: float
) -> tuple[list[Flow], dict[str, tuple[int, int]]]:
    flows: list[Flow] = []
    endpoints: dict[str, tuple[int, int]] = {}
    for src in machine.node_ids:
        if src == target:
            continue
        resources = reroute_resources(machine, src, target)
        for i in range(per_node):
            name = f"dma/{src}>{target}/{i}"
            flows.append(
                Flow(
                    name=name,
                    resources=resources,
                    demand_gbps=machine.params.dma_per_thread_gbps,
                    size_bytes=size_bytes,
                )
            )
            endpoints[name] = (src, target)
    return flows, endpoints


def _aggregate(outcomes) -> float:
    return sum(o.avg_gbps for o in outcomes.values())


def _run_dma_scenario(
    name: str,
    title: str,
    machine: Machine,
    registry: RngRegistry,
    plan_builder,
    quick: bool,
    retry: RetryPolicy | None = None,
) -> ScenarioResult:
    """Shared driver for the two machine-level scenarios.

    ``plan_builder(machine, rng, healthy_duration) -> FaultPlan``.
    """
    target = machine.node_ids[-1]
    per_node = 1 if quick else 2
    size = (1 if quick else 4) * GB
    flows, endpoints = _dma_fanin_flows(machine, target, per_node, size)
    capacities = build_capacities(machine)

    healthy = FlowNetwork(capacities).simulate(flows)
    duration = max(o.finish_s for o in healthy.values())
    plan = plan_builder(machine, registry.stream(f"chaos/{name}/faults"), duration)

    runner = DegradedFlowRunner(
        capacities,
        plan=plan,
        rng=registry.stream(f"chaos/{name}/backoff"),
        retry=retry if retry is not None else RetryPolicy(),
        rerouter=machine_rerouter(machine, plan, endpoints),
    )
    degraded = runner.simulate(flows)

    # Reclassify the node equivalence classes on the end-state topology.
    t_eval = max(e.at_s for e in plan.events) if plan.events else 0.0
    faulted_view = plan.apply(machine, at_s=t_eval)
    healthy_classes, _ = _dma_classes(machine, target)
    faulted_classes, isolated = _dma_classes(faulted_view, target)

    rows = tuple(
        OutcomeRow(
            name=o.name,
            status=o.status,
            avg_gbps=o.avg_gbps,
            retries=o.retries,
            reroutes=o.reroutes,
            reason=o.reason,
        )
        for _, o in sorted(degraded.items())
    )
    return ScenarioResult(
        name=name,
        title=title,
        workload=(
            f"{len(flows)} DMA streams fan-in to node {target} "
            f"({per_node} per source node, {size / GB:g} GB each)"
        ),
        plan_text=plan.describe(),
        healthy_gbps=_aggregate(healthy),
        degraded_gbps=_aggregate(degraded),
        rows=rows,
        healthy_classes=healthy_classes,
        faulted_classes=faulted_classes,
        isolated_nodes=isolated,
    )


def _physical_cables(machine: Machine) -> list[tuple[int, int]]:
    """Deduplicated, sorted (a, b) cable list with a < b."""
    return sorted({tuple(sorted(ends)) for ends in machine.links})


def _survivable_cables(machine: Machine) -> list[tuple[int, int]]:
    """Cables whose loss keeps the fabric connected."""
    from repro.topology.distance import hop_matrix

    survivable = []
    for a, b in _physical_cables(machine):
        view = FaultedMachine(machine, (LinkFail(a, b),))
        try:
            hop_matrix(view)
        except TopologyError:
            continue
        survivable.append((a, b))
    return survivable


# --- scenarios --------------------------------------------------------------

def _scenario_single_link_loss(
    machine: Machine, registry: RngRegistry, quick: bool,
    retry: RetryPolicy | None = None,
) -> ScenarioResult:
    def build_plan(m, rng, duration):
        cables = _survivable_cables(m)
        if not cables:
            raise FaultError(f"{m.name!r} has no survivable cable to fail")
        a, b = cables[int(rng.integers(len(cables)))]
        return FaultPlan([
            FaultEvent(LinkFail(a, b), at_s=round(0.35 * duration, 3)),
        ])

    return _run_dma_scenario(
        "single-link-loss",
        "one fabric cable fails mid-run; streams re-route",
        machine,
        registry,
        build_plan,
        quick,
        retry,
    )


def _scenario_cascading_isolation(
    machine: Machine, registry: RngRegistry, quick: bool,
    retry: RetryPolicy | None = None,
) -> ScenarioResult:
    def build_plan(m, rng, duration):
        target = m.node_ids[-1]
        candidates = [n for n in m.node_ids if n != target]
        victim = candidates[int(rng.integers(len(candidates)))]
        cables = [c for c in _physical_cables(m) if victim in c]
        events = []
        for i, (a, b) in enumerate(cables):
            events.append(
                FaultEvent(LinkFail(a, b), at_s=round((0.2 + 0.15 * i) * duration, 3))
            )
        return FaultPlan(events)

    return _run_dma_scenario(
        "cascading-node-isolation",
        "a victim node's cables fail one by one until it is isolated",
        machine,
        registry,
        build_plan,
        quick,
        retry,
    )


def _scenario_flapping_uplink(
    machine: Machine, registry: RngRegistry, quick: bool,
    retry: RetryPolicy | None = None,
) -> ScenarioResult:
    n_hosts = 4
    hosts = {f"h{i}": reference_host() for i in range(n_hosts)}
    size = (2 if quick else 8) * GB
    transfers = [
        Transfer(
            name=f"shuffle{i}",
            src_host=f"h{i}",
            dst_host=f"h{(i + 1) % n_hosts}",
            numjobs=2,
            size_bytes=size,
        )
        for i in range(n_hosts)
    ]
    cluster = SwitchedCluster(hosts, registry=registry.child("chaos-cluster"))

    healthy = cluster.run(transfers)
    duration = max(o.duration_s for o in healthy.values())
    rng = registry.stream("chaos/flapping-uplink/faults")
    victim = sorted(hosts)[int(rng.integers(n_hosts))]
    flap = NicPortFlap(host=victim)
    plan = FaultPlan([
        FaultEvent(flap, at_s=round(f0 * duration, 3), until_s=round(f1 * duration, 3))
        for f0, f1 in ((0.15, 0.30), (0.45, 0.60), (0.75, 0.90))
    ])

    degraded = cluster.run(transfers, fault_plan=plan, retry=retry)
    rows = tuple(
        OutcomeRow(
            name=o.name,
            status=o.status,
            avg_gbps=o.aggregate_gbps,
            retries=o.retries,
            reroutes=o.reroutes,
            reason=o.reason,
        )
        for _, o in sorted(degraded.items())
    )
    return ScenarioResult(
        name="flapping-uplink",
        title=f"host {victim!r} uplink flaps three times; transfers back off",
        workload=(
            f"ring shuffle over {n_hosts} hosts behind one switch "
            f"(2 streams per transfer, {size / GB:g} GB each)"
        ),
        plan_text=plan.describe(),
        healthy_gbps=sum(o.aggregate_gbps for o in healthy.values()),
        degraded_gbps=sum(o.aggregate_gbps for o in degraded.values()),
        rows=rows,
        classes_note="host topologies unchanged (uplink fault only)",
    )


SCENARIOS = {
    "single-link-loss": _scenario_single_link_loss,
    "cascading-node-isolation": _scenario_cascading_isolation,
    "flapping-uplink": _scenario_flapping_uplink,
}


def run_scenario(
    name: str,
    machine: Machine | None = None,
    registry: RngRegistry | None = None,
    quick: bool = False,
    retry: RetryPolicy | None = None,
) -> ScenarioResult:
    """Run one named scenario (see :data:`SCENARIOS`).

    ``retry`` overrides the default backoff policy for blocked streams
    — the knob behind ``repro-numa chaos --retry-budget/--retry-base``;
    ``None`` keeps :class:`~repro.retrying.RetryPolicy` defaults.
    """
    try:
        runner = SCENARIOS[name]
    except KeyError as exc:
        raise FaultError(
            f"unknown chaos scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from exc
    machine = machine if machine is not None else reference_host()
    registry = registry if registry is not None else RngRegistry()
    return runner(machine, registry, quick, retry)


def run_chaos(
    machine: Machine | None = None,
    registry: RngRegistry | None = None,
    scenarios: tuple[str, ...] | None = None,
    quick: bool = False,
    retry: RetryPolicy | None = None,
) -> ChaosReport:
    """Run the requested scenarios and assemble the resilience report."""
    machine = machine if machine is not None else reference_host()
    registry = registry if registry is not None else RngRegistry()
    names = scenarios if scenarios is not None else tuple(SCENARIOS)
    results = tuple(
        run_scenario(
            name, machine=machine, registry=registry, quick=quick, retry=retry
        )
        for name in names
    )
    return ChaosReport(
        machine_name=machine.name, seed=registry.seed, results=results
    )
