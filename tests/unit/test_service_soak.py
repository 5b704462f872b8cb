"""Soak engine: totality, seed determinism, breaker recovery, self-healing."""

import json

import pytest

from repro.rng import RngRegistry
from repro.service.soak import (
    DERATE_REPAIR,
    HEALTHY,
    build_soak_plan,
    build_traffic,
    run_soak,
)


@pytest.fixture(scope="module")
def report():
    return run_soak(requests=80, runs=3)


class TestTotality:
    def test_every_request_answered_exactly_once(self, report):
        assert len(report.responses) == report.requests
        assert report.answered == report.requests

    def test_every_response_is_result_degraded_or_typed_error(self, report):
        for response in report.responses:
            payload = json.loads(response)
            assert ("result" in payload) != ("error" in payload)
            if "error" in payload:
                assert "kind" in payload["error"]
                assert "Traceback" not in payload["error"]["message"]

    def test_mix_includes_all_three_outcomes(self, report):
        assert report.ok > 0
        assert report.degraded > 0
        assert sum(report.errors.values()) > 0


class TestDeterminism:
    def test_twin_runs_are_byte_identical(self, report):
        twin = run_soak(requests=80, runs=3)
        assert twin.responses == report.responses
        assert twin.to_dict() == report.to_dict()

    def test_different_seed_differs(self, report):
        other = run_soak(requests=80, runs=3, seed=99)
        assert other.responses != report.responses

    def test_traffic_is_registry_deterministic(self, host):
        t1 = build_traffic(RngRegistry(5), host, 7, 40)
        t2 = build_traffic(RngRegistry(5), host, 7, 40)
        assert t1 == t2


class TestRecovery:
    def test_breaker_trips_and_recovers(self, report):
        assert report.tripped
        assert report.recovered
        assert report.final_breaker_state == "closed"

    def test_healthy_twin_never_trips(self):
        healthy = run_soak(requests=40, runs=3, scenario=HEALTHY)
        assert not healthy.tripped
        assert healthy.degraded == 0
        assert healthy.answered == healthy.requests

    def test_fault_plan_isolates_the_victim(self, host):
        plan = build_soak_plan(host, 7, 1.0, 2.0)
        assert len(plan) > 0
        assert all("7" in e.fault.describe() for e in plan.events)
        assert plan.topology_faults_at(0.5) == ()
        assert len(plan.topology_faults_at(1.5)) == len(plan)
        assert plan.topology_faults_at(2.5) == ()

    def test_partition_runs_no_repair_loop(self, report):
        assert report.repair == {} and report.repairing == 0
        assert report.unlabelled_stale == 0
        assert not report.converged

    def test_render_is_deterministic(self, report):
        assert report.render() == report.render()


class TestConvergenceSoak:
    """The self-healing drill: derate -> drift -> repair -> re-converge."""

    @pytest.fixture(scope="class")
    def converged(self):
        return run_soak(requests=100, runs=3, scenario=DERATE_REPAIR)

    def test_loop_closes_both_ways(self, converged):
        assert converged.answered == converged.requests
        assert converged.converged_during_fault
        assert converged.reconverged_after_clear
        assert converged.converged

    def test_never_serves_unlabelled_stale(self, converged):
        assert converged.unlabelled_stale == 0
        assert converged.final_quarantined == 0

    def test_repair_accounting_agrees_with_counters(self, converged):
        repair = converged.repair
        assert repair["jobs"] == 0 and repair["failed"] == 0
        assert repair["promoted"] >= 2  # fault window, then clearance
        counters = converged.counters
        assert counters["service.repair.started"] == repair["started"]
        assert counters["service.repair.promoted"] == repair["promoted"]
        assert counters["routing.rerouted_pairs"] > 0
        assert (converged.drift or {}).get("events", 0) >= 1

    def test_twin_runs_are_byte_identical(self, converged):
        twin = run_soak(requests=100, runs=3, scenario=DERATE_REPAIR)
        assert json.dumps(twin.to_dict(), sort_keys=True) == json.dumps(
            converged.to_dict(), sort_keys=True
        )

    def test_render_mentions_the_verdict(self, converged):
        text = converged.render()
        assert "-> true" in text
        assert "0 stale answers" in text
