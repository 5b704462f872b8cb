"""The deterministic soak engine: scripted traffic under a fault scenario.

The soak drives the *exact* production dispatch path
(:class:`~repro.service.server.PlacementService.handle_line`) with a
scripted request trace while a :class:`~repro.faults.plan.FaultPlan`
fires mid-stream.  The scenario is data (:class:`SoakScenario`):
:data:`PARTITION` fails the device node's cables — characterization
becomes unsolvable, the circuit breaker trips, degraded class-level
answers flow, the cables come back, a half-open probe succeeds and the
breaker closes; :data:`DERATE_REPAIR` derates them instead, with the
self-healing repair loop attached; :data:`HEALTHY` runs no fault.

Three properties are checked (and pinned by tests and
``scripts/service_smoke.sh``):

* **totality** — every scripted request resolves to *exactly one* of
  {result, degraded result, typed error}; nothing raises, nothing is
  dropped, nothing answered twice;
* **determinism** — time is a logical clock, every random draw comes
  from named :class:`~repro.rng.RngRegistry` streams, so two runs with
  the same seed produce byte-identical response streams;
* **recovery** — the partition's breaker must trip and be closed again
  by the end of the trace; the derate's repair loop must converge.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.faults.events import FaultEvent, LinkDegrade, LinkFail
from repro.faults.plan import FaultPlan
from repro.retrying import RetryPolicy
from repro.rng import DEFAULT_SEED, RngRegistry
from repro.service.backend import AdvisoryBackend
from repro.service.breaker import CircuitBreaker
from repro.service.protocol import PROTOCOL_VERSION, TIER_NAMES
from repro.service.server import PlacementService
from repro.topology.builders import reference_host
from repro.topology.machine import Machine

__all__ = [
    "LogicalClock",
    "SoakScenario",
    "PARTITION",
    "DERATE_REPAIR",
    "HEALTHY",
    "SoakReport",
    "build_soak_plan",
    "build_derate_plan",
    "run_soak",
]

#: Logical seconds between consecutive scripted requests.
TICK_S = 0.1


class LogicalClock:
    """A monotonic clock the soak advances by hand — zero wall-time."""

    def __init__(self, t0: float = 0.0) -> None:
        self.t = t0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float = TICK_S) -> None:
        self.t += dt


def build_soak_plan(
    machine: Machine, victim: int, at_s: float, until_s: float
) -> FaultPlan:
    """Fail every cable touching ``victim`` for ``[at_s, until_s)``.

    Isolating the device node partitions the DMA fabric, which is the
    harshest fault the advisory path can face: every characterization
    attempt fails until the window closes.
    """
    cables = sorted(
        {tuple(sorted(ends)) for ends in machine.links if victim in ends}
    )
    return FaultPlan([
        FaultEvent(LinkFail(a, b), at_s=at_s, until_s=until_s)
        for a, b in cables
    ])


def build_derate_plan(
    machine: Machine, victim: int, at_s: float, until_s: float,
    factor: float = 0.4,
) -> FaultPlan:
    """Derate every cable touching ``victim`` (both directions).

    Unlike :func:`build_soak_plan` the fabric stays connected:
    characterization still *succeeds* on the derated machine — it just
    measures collapsed bandwidths — which is exactly the fault shape
    that exercises the drift watch and the repair loop rather than the
    circuit breaker.
    """
    cables = sorted(
        {tuple(sorted(ends)) for ends in machine.links if victim in ends}
    )
    return FaultPlan([
        FaultEvent(LinkDegrade(src, dst, factor), at_s=at_s, until_s=until_s)
        for a, b in cables
        for src, dst in ((a, b), (b, a))
    ])


def _request(req_id: int, method: str, params: dict | None = None) -> str:
    msg = {"jsonrpc": PROTOCOL_VERSION, "id": req_id, "method": method}
    if params is not None:
        msg["params"] = params
    return json.dumps(msg, sort_keys=True, separators=(",", ":"))


def build_traffic(
    registry: RngRegistry, machine: Machine, target: int, requests: int
) -> list[str]:
    """A scripted request trace: the full mix, including hostile lines.

    Drawn from one named registry stream, so a seed pins the trace
    bit-for-bit.  Roughly 70 % well-formed solver-backed calls, the
    rest split across health checks, schema violations, unknown
    methods, zero deadlines and outright parse junk — the soak must
    answer *all* of them exactly once.
    """
    rng = registry.stream("service/soak/traffic")
    nodes = list(machine.node_ids)
    lines: list[str] = []
    for i in range(requests):
        roll = int(rng.integers(100))
        if roll < 30:
            lines.append(_request(i, "advise", {
                "target": target,
                "mode": "write" if int(rng.integers(2)) else "read",
                "tasks": int(rng.integers(1, 9)),
                "avoid_irq_node": bool(int(rng.integers(2))),
            }))
        elif roll < 45:
            streams = [nodes[int(rng.integers(len(nodes)))]
                       for _ in range(int(rng.integers(1, 5)))]
            lines.append(_request(i, "predict_eq1", {
                "target": target, "mode": "read", "streams": streams,
            }))
        elif roll < 55:
            lines.append(_request(i, "classify", {
                "target": target,
                "mode": "write" if int(rng.integers(2)) else "read",
            }))
        elif roll < 70:
            lines.append(_request(i, "plan", {
                "write_weight": round(float(rng.random()), 3),
            }))
        elif roll < 80:
            meta = ("health", "ready", "metrics")[int(rng.integers(3))]
            lines.append(_request(i, meta))
        elif roll < 86:  # schema violation: bad mode / zero tasks
            lines.append(_request(i, "advise", {
                "target": target, "mode": "sideways", "tasks": 0,
            }))
        elif roll < 90:  # unknown method
            lines.append(_request(i, "evacuate"))
        elif roll < 95:  # already-expired deadline
            lines.append(_request(i, "classify", {
                "target": target, "mode": "write", "deadline_ms": 0,
            }))
        else:  # parse junk
            lines.append('{"jsonrpc": "2.0", "id": %d, oops' % i)
    return lines


@dataclass(frozen=True)
class SoakScenario:
    """One fault scenario for :func:`run_soak` — pure data.

    ``plan`` builds the fault plan from ``(machine, victim, at_s,
    until_s)`` (``None`` runs the trace fault-free); ``window`` is the
    fault window as fractions of the trace duration.  ``repair``
    attaches a :class:`~repro.healing.repair.RepairSupervisor` pumped
    every third tick and fills the routing planes up front, so every
    fault-window swap re-routes incrementally and its
    :class:`~repro.routing.incremental.RerouteStats` bound the
    quarantine.
    """

    plan: "Callable[[Machine, int, float, float], FaultPlan] | None" = field(
        repr=False
    )
    window: tuple[float, float] = (0.25, 0.5)
    repair: bool = False


#: Fail every cable of the device node: the breaker trips and recovers.
PARTITION = SoakScenario(build_soak_plan)
#: Derate the device node's cables (still solvable) with the repair loop
#: attached: drift → quarantine → repair → promote, both ways.
DERATE_REPAIR = SoakScenario(
    build_derate_plan, window=(0.25, 0.55), repair=True
)
#: The same trace against a healthy host (the twin the smoke diffs).
HEALTHY = SoakScenario(None)


@dataclass
class SoakReport:
    """Everything one soak run observed, JSON-able and renderable.

    With the repair loop attached the numbers must tell the
    self-healing story: derate fires → the supervisor quarantines the
    blast radius → requests get labelled ``repairing`` answers →
    background repair re-characterizes and promotes → the service is
    back on tiers 1–2 *under the faulted machine* → the fault clears →
    the faulted-era entries are re-quarantined, repaired again, and the
    service re-converges on the healthy model — with zero unlabelled
    stale answers anywhere in the trace.
    """

    seed: int
    requests: int
    fault_window: tuple[float, float] | None
    plan_text: str
    responses: list[str] = field(default_factory=list)
    ok: int = 0
    degraded: int = 0
    repairing: int = 0
    tiers: dict[int, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    breaker_transitions: list[tuple[float, str]] = field(default_factory=list)
    final_breaker_state: str = CircuitBreaker.CLOSED
    #: Responses that were served off a quarantined or stale model
    #: without carrying their ``degraded``/``repairing`` label — the
    #: hard robustness contract; must be zero.
    unlabelled_stale: int = 0
    #: A tier-1/2 non-degraded answer was served while the fault was
    #: live (i.e. repair promoted a faulted-fingerprint entry).
    converged_during_fault: bool = False
    #: Same, after the fault cleared (re-repair promoted again).
    reconverged_after_clear: bool = False
    #: ``RepairSupervisor.stats()``; empty when no supervisor ran.
    repair: dict = field(default_factory=dict)
    final_quarantined: int = 0
    #: Live-plane counter snapshot at end of run (sorted keys).
    counters: dict[str, int] = field(default_factory=dict)
    #: Drift-watch summary (``DriftWatch.stats()``), ``None`` if disabled.
    drift: "dict | None" = None
    #: Drift, repair and breaker-trip flight-recorder events.
    flight_events: list[dict] = field(default_factory=list)

    @property
    def answered(self) -> int:
        """Total responses (must equal ``requests`` — totality)."""
        return self.ok + self.degraded + sum(self.errors.values())

    @property
    def tripped(self) -> bool:
        """Did the breaker ever open during the run?"""
        return any(s == CircuitBreaker.OPEN for _, s in self.breaker_transitions)

    @property
    def recovered(self) -> bool:
        """Did the breaker close again after tripping?"""
        return self.tripped and self.final_breaker_state == CircuitBreaker.CLOSED

    @property
    def converged(self) -> bool:
        """Did the self-healing loop close, honestly, both ways?"""
        return (
            self.converged_during_fault
            and self.reconverged_after_clear
            and self.unlabelled_stale == 0
            and self.final_quarantined == 0
            and self.repair.get("jobs", 1) == 0
            and (self.drift or {}).get("events", 0) >= 1
        )

    def account(
        self, response: str, quarantined: frozenset, faulted: bool
    ) -> None:
        """Fold one wire response into the tallies.

        ``quarantined``: the ``(target, mode)`` keys quarantined when
        the request was served; ``faulted``: a fault was live.
        """
        self.responses.append(response)
        payload = json.loads(response)
        if "error" in payload:
            kind = payload["error"]["kind"]
            self.errors[kind] = self.errors.get(kind, 0) + 1
            return
        result = payload["result"]
        tier = result.get("tier")
        if tier is None:
            self.ok += 1  # health/ready/metrics
            return
        self.tiers[tier] = self.tiers.get(tier, 0) + 1
        if result.get("degraded"):
            self.degraded += 1
            if result.get("repairing"):
                self.repairing += 1
        else:
            self.ok += 1
            if tier != 3:
                if faulted:
                    self.converged_during_fault = True
                elif self.converged_during_fault:
                    self.reconverged_after_clear = True
                if (result.get("target"), result.get("mode")) in quarantined:
                    self.unlabelled_stale += 1
        if "staleness_s" not in result:
            self.unlabelled_stale += 1

    def to_dict(self) -> dict:
        """JSON-able summary (the ``--json`` CLI output)."""
        return {
            "seed": self.seed,
            "requests": self.requests,
            "answered": self.answered,
            "ok": self.ok,
            "degraded": self.degraded,
            "repairing": self.repairing,
            "tiers": {str(t): self.tiers[t] for t in sorted(self.tiers)},
            "errors": {k: self.errors[k] for k in sorted(self.errors)},
            "fault_window": list(self.fault_window) if self.fault_window else None,
            "plan": self.plan_text,
            "breaker_transitions": [
                [round(t, 6), s] for t, s in self.breaker_transitions
            ],
            "final_breaker_state": self.final_breaker_state,
            "tripped": self.tripped,
            "recovered": self.recovered,
            "unlabelled_stale": self.unlabelled_stale,
            "converged_during_fault": self.converged_during_fault,
            "reconverged_after_clear": self.reconverged_after_clear,
            "converged": self.converged,
            "repair": self.repair,
            "final_quarantined": self.final_quarantined,
            "counters": self.counters,
            "drift": self.drift,
            "flight_events": self.flight_events,
            # The wire-level response stream itself: the twin-run smoke
            # diff compares these byte-for-byte.
            "responses": [r.rstrip("\n") for r in self.responses],
        }

    def render(self) -> str:
        """Deterministic human summary."""
        title = "convergence" if self.repair else "chaos"
        repairing = (
            f" of which repairing {self.repairing}" if self.repair else ""
        )
        out = [
            f"{title} soak: {self.requests} scripted requests, seed {self.seed}",
            f"  fault plan    : {self.plan_text}",
            f"  answered      : {self.answered} "
            f"(ok {self.ok}, degraded {self.degraded}{repairing}, "
            f"errors {sum(self.errors.values())})",
            "  tiers         : " + ", ".join(
                f"{TIER_NAMES[t]} {self.tiers.get(t, 0)}" for t in (1, 2, 3)
            ),
        ]
        for kind in sorted(self.errors):
            out.append(f"    error[{kind:18s}]: {self.errors[kind]}")
        for t, s in self.breaker_transitions:
            out.append(f"  breaker @ {t:7.2f} s -> {s}")
        out.append(
            f"  breaker final : {self.final_breaker_state} "
            f"(tripped={str(self.tripped).lower()}, "
            f"recovered={str(self.recovered).lower()})"
        )
        if self.repair:
            out += [
                f"  repair        : started {self.repair['started']}, "
                f"promoted {self.repair['promoted']}, "
                f"failed {self.repair['failed']}, "
                f"jobs left {self.repair['jobs']}",
                f"  drift events  : {(self.drift or {}).get('events', 0)}",
                f"  unlabelled    : {self.unlabelled_stale} stale answers "
                "without their label (must be 0)",
                f"  converged     : during fault "
                f"{str(self.converged_during_fault).lower()}, after clearance "
                f"{str(self.reconverged_after_clear).lower()} "
                f"-> {str(self.converged).lower()}",
            ]
            for event in self.flight_events:
                tags = event.get("tags", {})
                what = tags.get("phase", tags.get("regime", ""))
                out.append(
                    f"    flight @ {event['t']:7.2f} s {event['kind']:<8s} "
                    f"{what}"
                )
        elif self.drift is not None:
            out.append(
                f"  drift watch   : {self.drift['events']} event(s) across "
                f"{self.drift['watched']} watched (target,mode) pair(s)"
            )
        return "\n".join(out)


def run_soak(
    machine: Machine | None = None,
    requests: int = 120,
    seed: int = DEFAULT_SEED,
    runs: int = 5,
    scenario: SoakScenario = PARTITION,
    failure_threshold: int = 2,
) -> SoakReport:
    """Replay the scripted trace under ``scenario`` and return its report.

    One loop drives every scenario: swap the machine view as faults
    fire and clear, answer each line through
    :meth:`~repro.service.server.PlacementService.handle_line`, pump
    the repair supervisor (if the scenario attaches one) every third
    tick, and account each response.  :data:`PARTITION` must trip and
    recover the breaker; :data:`HEALTHY` runs the same trace fault-free
    (the smoke script diffs the two to prove the degraded path is the
    only divergence); :data:`DERATE_REPAIR` must close the self-healing
    loop both ways (:attr:`SoakReport.converged`).  Same-seed twins are
    byte-identical, repair schedule included.
    """
    if machine is None:
        machine = reference_host()
    if scenario.repair:
        # RerouteStats then bound the quarantine of every swap.
        for plane in ("pio", "dma"):
            machine.routing.populate(plane, strict=False)
    registry = RngRegistry(seed)
    device_nodes = sorted({d.node_id for d in machine.devices.values()})
    target = device_nodes[0] if device_nodes else machine.node_ids[-1]

    clock = LogicalClock()
    backend = AdvisoryBackend(machine, registry=registry, runs=runs)
    breaker = CircuitBreaker(
        failure_threshold=failure_threshold,
        backoff=RetryPolicy(
            max_retries=0, base_delay_s=0.8, multiplier=2.0, jitter=0.25
        ),
        rng=registry.stream("service/soak/breaker-jitter"),
        clock=clock,
    )
    service = PlacementService(backend, breaker=breaker, clock=clock)
    supervisor = None
    if scenario.repair:
        from repro.healing.repair import RepairSupervisor

        supervisor = RepairSupervisor(
            backend,
            retry=RetryPolicy(
                max_retries=3, base_delay_s=0.4, multiplier=2.0, jitter=0.25
            ),
        ).attach(service)
    backend.warm((target,))  # the last-good snapshots degraded mode serves

    window = None
    plan = FaultPlan()
    if scenario.plan is not None:
        duration = requests * TICK_S
        window = tuple(round(f * duration, 3) for f in scenario.window)
        plan = scenario.plan(machine, target, *window)
    report = SoakReport(
        seed=seed,
        requests=requests,
        fault_window=window,
        plan_text=plan.describe(),
    )

    traffic = build_traffic(registry, machine, target, requests)
    active: frozenset = frozenset()
    for i, line in enumerate(traffic):
        now = clock()
        live = frozenset(f.describe() for f in plan.topology_faults_at(now))
        if live != active:
            if live:
                backend.set_machine(plan.apply(machine, at_s=now))
            else:
                backend.restore_machine()
            active = live
        # The robustness contract is judged against the quarantine
        # state the request was served under.
        quarantined = frozenset(backend.tiers.quarantined)
        report.account(service.handle_line(line), quarantined, bool(active))
        # Pump every 3rd tick, not per request, so quarantined keys
        # genuinely serve labelled `repairing` answers before repair
        # lands.
        if supervisor is not None and i % 3 == 2:
            supervisor.pump(clock())
        clock.advance()
    report.breaker_transitions = list(breaker.transitions)
    report.final_breaker_state = breaker.state
    if supervisor is not None:
        report.repair = supervisor.stats()
    report.final_quarantined = len(backend.tiers.quarantined)
    service._drain_obs()  # fold the tail of the trace before reading
    report.counters = {
        k: service.live.counters[k] for k in sorted(service.live.counters)
    }
    if service.drift is not None:
        report.drift = service.drift.stats()
    report.flight_events = [
        event for event in service.live.flight.dump()["events"]
        if event["kind"] in ("drift", "repair", "breaker-trip")
    ]
    return report
