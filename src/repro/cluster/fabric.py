"""Switched clusters: many NUMA hosts behind one Ethernet switch.

Generalises the back-to-back pair of :mod:`repro.cluster.twohost` to a
data-transfer-cluster: each host keeps its own fabric/NUMA behaviour,
every transfer composes sender-side service, receiver-side service and
the wire — and now hosts' *uplinks* and the switch backplane are shared
resources, so an all-to-all shuffle contends in three places at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.engines import StreamPlacement, device_service_levels
from repro.cluster.link import EthernetLink
from repro.cluster.twohost import _ENGINE_PROFILES
from repro.errors import BenchmarkError
from repro.flows.flow import Flow
from repro.osmodel.noise import NoiseModel
from repro.rng import RngRegistry
from repro.solver.session import SolverSession
from repro.topology.machine import Machine
from repro.units import GB

__all__ = ["Transfer", "TransferOutcome", "SwitchedCluster"]

#: A transfer reports the gravest status among its streams.
_STATUS_RANK = ("failed", "rerouted", "recovered", "ok")


@dataclass(frozen=True)
class Transfer:
    """One bulk transfer between two cluster hosts.

    ``src_node`` / ``dst_node`` of ``None`` mean "well tuned" on that
    side, as in the two-host runner.
    """

    name: str
    src_host: str
    dst_host: str
    engine: str = "rdma"
    numjobs: int = 4
    src_node: int | None = None
    dst_node: int | None = None
    size_bytes: float = 40 * GB

    def __post_init__(self) -> None:
        if self.engine not in _ENGINE_PROFILES:
            raise BenchmarkError(
                f"transfer {self.name!r}: unknown engine {self.engine!r}"
            )
        if self.src_host == self.dst_host:
            raise BenchmarkError(
                f"transfer {self.name!r}: source and destination host must differ"
            )
        if self.numjobs < 1 or self.size_bytes <= 0:
            raise BenchmarkError(f"transfer {self.name!r}: bad job shape")


@dataclass(frozen=True)
class TransferOutcome:
    """Result of one transfer within a cluster run.

    Healthy runs always report ``status="ok"``.  Under a fault plan a
    transfer may instead report ``"recovered"`` (streams waited out a
    fault via retries), ``"rerouted"`` (streams continued on an
    alternative route) or ``"failed"`` (retry budget exhausted; the
    aggregate covers the partial bytes moved and ``reason`` says why).
    """

    name: str
    aggregate_gbps: float
    duration_s: float
    src_placement: tuple[str, int]
    dst_placement: tuple[str, int]
    status: str = "ok"
    reason: str | None = None
    retries: int = 0
    reroutes: int = 0


class SwitchedCluster:
    """Hosts behind one switch.

    Parameters
    ----------
    hosts:
        name -> NIC-equipped machine.
    uplink:
        Each host's cable to the switch (shared by all of that host's
        concurrent transfers, in and out separately).
    backplane_gbps:
        Switch fabric capacity shared by everything.
    """

    def __init__(
        self,
        hosts: dict[str, Machine],
        uplink: EthernetLink | None = None,
        backplane_gbps: float = 160.0,
        registry: RngRegistry | None = None,
        nic_name: str = "nic",
    ) -> None:
        if len(hosts) < 2:
            raise BenchmarkError("a cluster needs at least two hosts")
        for name, machine in hosts.items():
            if nic_name not in machine.devices:
                raise BenchmarkError(
                    f"host {name!r} ({machine.name!r}) has no device {nic_name!r}"
                )
        if backplane_gbps <= 0:
            raise BenchmarkError("backplane capacity must be positive")
        self.hosts = dict(hosts)
        self.uplink = uplink or EthernetLink()
        self.backplane_gbps = backplane_gbps
        self.registry = registry or RngRegistry()
        self.nic_name = nic_name
        # Cluster capacity maps are assembled per run, so the session is
        # machine-less: it contributes the shared allocation memo and the
        # instrumentation across repeated run() calls.
        self.session = SolverSession()

    # --- helpers ----------------------------------------------------------
    def _host(self, name: str) -> Machine:
        try:
            return self.hosts[name]
        except KeyError as exc:
            raise BenchmarkError(
                f"unknown host {name!r}; cluster has {sorted(self.hosts)}"
            ) from exc

    def _levels(self, machine: Machine, profile_name: str, node: int,
                numjobs: int, direction: str) -> list[float]:
        nic = machine.devices[self.nic_name]
        profile = nic.engine(profile_name)
        placements = [
            StreamPlacement(cpu_node=node, mem_node=node) for _ in range(numjobs)
        ]
        return device_service_levels(machine, nic, profile, placements, direction)

    def _best_node(self, machine: Machine, profile_name: str, direction: str) -> int:
        return max(
            machine.node_ids,
            key=lambda n: (self._levels(machine, profile_name, n, 1, direction)[0], -n),
        )

    # --- execution -----------------------------------------------------------
    def run(
        self,
        transfers: list[Transfer],
        run_idx: int = 0,
        fault_plan=None,
        retry=None,
    ) -> dict[str, TransferOutcome]:
        """Run all ``transfers`` concurrently across the cluster.

        Parameters
        ----------
        transfers, run_idx:
            The workload and the per-run RNG namespace.
        fault_plan:
            Optional :class:`~repro.faults.plan.FaultPlan`.  When given,
            the run goes through the degraded-mode simulator: streams hit
            by an active fault retry with seeded exponential backoff and
            transfers whose budget is exhausted complete with
            ``status="failed"`` instead of raising.  ``None`` (the
            default) simulates through the cluster's solver session.
        retry:
            Optional :class:`~repro.faults.degraded.RetryPolicy`
            (fault-plan runs only).
        """
        if not transfers:
            raise BenchmarkError("need at least one transfer")
        names = [t.name for t in transfers]
        if len(set(names)) != len(names):
            raise BenchmarkError(f"duplicate transfer names: {sorted(names)}")

        capacities: dict[str, float] = {"backplane": self.backplane_gbps}
        for host in self.hosts:
            capacities[f"uplink-tx:{host}"] = self.uplink.payload_gbps
            capacities[f"uplink-rx:{host}"] = self.uplink.payload_gbps

        flows: list[Flow] = []
        meta: dict[str, Transfer] = {}
        placements: dict[str, tuple[tuple[str, int], tuple[str, int]]] = {}
        for t in transfers:
            src_machine = self._host(t.src_host)
            dst_machine = self._host(t.dst_host)
            send_profile, recv_profile = _ENGINE_PROFILES[t.engine]
            src_node = (
                t.src_node if t.src_node is not None
                else self._best_node(src_machine, send_profile, "write")
            )
            dst_node = (
                t.dst_node if t.dst_node is not None
                else self._best_node(dst_machine, recv_profile, "read")
            )
            for machine, node, role in ((src_machine, src_node, "source"),
                                        (dst_machine, dst_node, "destination")):
                if node not in machine.node_ids:
                    raise BenchmarkError(
                        f"transfer {t.name!r}: unknown {role} node {node}"
                    )
            send_levels = self._levels(src_machine, send_profile, src_node,
                                       t.numjobs, "write")
            recv_levels = self._levels(dst_machine, recv_profile, dst_node,
                                       t.numjobs, "read")
            levels = [min(s, r) for s, r in zip(send_levels, recv_levels)]

            nic = src_machine.devices[self.nic_name]
            profile = nic.engine(send_profile)
            service = nic.dma.per_stream_caps(levels)
            noise = NoiseModel(
                self.registry.stream(f"cluster/{t.name}/run{run_idx}")
            )
            sigma = (profile.sigma if t.numjobs < profile.crowd_threshold
                     else profile.crowd_sigma)
            stream_noise = noise.factors(sigma, t.numjobs)

            dev_tx = f"nic-tx:{t.src_host}"
            dev_rx = f"nic-rx:{t.dst_host}"
            capacities.setdefault(dev_tx, 0.0)
            capacities.setdefault(dev_rx, 0.0)
            agg = sum(levels) / len(levels)
            capacities[dev_tx] = max(capacities[dev_tx], agg)
            capacities[dev_rx] = max(capacities[dev_rx], agg)

            for i in range(t.numjobs):
                demand = service[i]
                if profile.per_stream_cap_gbps is not None:
                    demand = min(demand, profile.per_stream_cap_gbps)
                if profile.cpu_gbps_per_stream is not None:
                    cores = src_machine.node(src_node).n_cores
                    demand = min(
                        demand,
                        profile.cpu_gbps_per_stream * min(1.0, cores / t.numjobs),
                    )
                flows.append(
                    Flow(
                        name=f"{t.name}/{i}",
                        resources=(
                            dev_tx, dev_rx,
                            f"uplink-tx:{t.src_host}",
                            f"uplink-rx:{t.dst_host}",
                            "backplane",
                        ),
                        demand_gbps=demand * float(stream_noise[i]),
                        size_bytes=float(t.size_bytes),
                    )
                )
            meta[t.name] = t
            placements[t.name] = ((t.src_host, src_node), (t.dst_host, dst_node))

        if fault_plan is None:
            outcomes = self.session.simulate(flows, capacities)
        else:
            from repro.faults.degraded import DegradedFlowRunner

            runner = DegradedFlowRunner(
                capacities,
                plan=fault_plan,
                rng=self.registry.stream(f"cluster/faults/run{run_idx}"),
                retry=retry,
                stats=self.session.stats,
            )
            outcomes = runner.simulate(flows)
        results: dict[str, TransferOutcome] = {}
        for name in meta:
            mine = [o for k, o in sorted(outcomes.items())
                    if k.rsplit("/", 1)[0] == name]
            statuses = {o.status for o in mine}
            results[name] = TransferOutcome(
                name=name,
                aggregate_gbps=sum(o.avg_gbps for o in mine),
                duration_s=max(o.finish_s for o in mine),
                src_placement=placements[name][0],
                dst_placement=placements[name][1],
                status=next(st for st in _STATUS_RANK if st in statuses),
                reason=next((o.reason for o in mine if o.status == "failed"), None),
                retries=sum(o.retries for o in mine),
                reroutes=sum(o.reroutes for o in mine),
            )
        return results
