"""The tiered answer path: analytic fit, class-model cache, staleness."""

import math

import pytest

from repro.cli.commands import _MACHINES
from repro.core.iomodel import IOModelBuilder
from repro.core.scheduler_advisor import PlacementAdvisor
from repro.rng import RngRegistry
from repro.service import AdvisoryBackend, PlacementService
from repro.service.backend import ClassSnapshot
from repro.service.soak import HEALTHY, LogicalClock, run_soak
from repro.service.tiers import (
    TIER_ANALYTIC,
    TIER_CLASS,
    TIER_SOLVE,
    AnalyticFit,
    stamp_tier,
    wire_gbps,
)


@pytest.fixture(scope="module")
def model(host):
    return IOModelBuilder(host, registry=RngRegistry(), runs=5).build(7, "write")


@pytest.fixture()
def backend(host):
    return AdvisoryBackend(
        host, registry=RngRegistry(), runs=3, clock=LogicalClock()
    )


class TestAnalyticFit:
    def test_beta_is_the_class_geometric_mean(self, model):
        fit = AnalyticFit.fit(model)
        for cls in model.classes:
            values = [model.values[n] for n in cls.node_ids]
            expected = math.exp(sum(math.log(v) for v in values) / len(values))
            assert fit.beta[cls.rank] == pytest.approx(expected)
            for node in cls.node_ids:
                assert fit.node_rank[node] == cls.rank

    def test_error_bounds_are_measured_and_documented(self, model):
        fit = AnalyticFit.fit(model)
        # The documented bound (docs/service.md): coefficients within
        # 5% of the exact Eq. 1 class averages on the reference host.
        assert 0.0 <= fit.eq1_rel_err_bound < 0.05
        assert 0.0 <= fit.max_node_rel_err < 0.15

    def test_predictions_stay_within_the_fit_bound(self, model):
        fit = AnalyticFit.fit(model)
        avgs = {c.rank: c.avg for c in model.classes}
        mixes = [[0], [0, 1], [7, 7, 3], sorted(model.values)]
        for streams in mixes:
            out = fit.predict_eq1(streams)
            ranks = [fit.node_rank[n] for n in streams]
            exact = sum(avgs[r] for r in ranks) / len(ranks)
            rel = abs(out["predicted_gbps"] - exact) / exact
            assert rel <= fit.eq1_rel_err_bound + 1e-12
            assert out["fit_rel_err_bound"] == round(fit.eq1_rel_err_bound, 6)

    def test_off_model_stream_defers(self, model):
        assert AnalyticFit.fit(model).predict_eq1([999]) is None


class TestStampTier:
    def test_stamp_rounds_and_clamps(self):
        out = stamp_tier({}, TIER_SOLVE, -0.25)
        assert out == {"tier": 3, "staleness_s": 0.0}
        assert stamp_tier({}, TIER_ANALYTIC, 1.23456789)["staleness_s"] == (
            1.234568
        )


class TestTierTwoBitIdentity:
    def test_advise_payload_matches_the_solver_advisor(self, host, backend):
        model = backend.model(7, "write")
        entry = backend.tiers.entries[(7, "write")]
        for tasks in (1, 3, 8, 40, 200):
            for avoid in (False, True):
                for tolerance in (0.0, 0.05, 0.2):
                    advisor = PlacementAdvisor(
                        host, model, tolerance=tolerance
                    )
                    plan = advisor.advise(tasks, avoid_irq_node=avoid)
                    payload = entry.advise_payload(tasks, avoid, tolerance)
                    assert payload["tasks_per_node"] == {
                        str(n): c
                        for n, c in sorted(plan.tasks_per_node.items()) if c
                    }
                    assert payload["stream_nodes"] == plan.stream_nodes()
                    assert tuple(payload["classes_used"]) == plan.classes_used

    def test_classify_payload_carries_exact_values(self, backend):
        cold = backend.classify(7, "write")
        warm = backend.classify(7, "write")
        assert cold["tier"] == 3 and warm["tier"] == 2
        assert warm["classes"] == cold["classes"]
        assert warm["values"] == cold["values"]

    @pytest.mark.parametrize("name", sorted(_MACHINES))
    @pytest.mark.parametrize("mode", ["write", "read"])
    def test_tier_three_is_the_fast_tier_payload(self, name, mode):
        """One payload implementation: tiers differ only in their tags.

        On every built-in machine, each method's tier-3 answer equals
        the tier-2 answer (``predict_eq1``: the last-good exact
        mixture) except for ``tier``, ``staleness_s`` and ``source``.
        The tier-3 answer is also checked against references built
        straight from the solved model: the library advisor for
        ``advise``, ``ClassSnapshot`` plus the per-node values for
        ``classify`` and the ``class_of`` Eq. 1 mixture for
        ``predict_eq1``.
        """
        machine = _MACHINES[name]()
        devices = sorted({d.node_id for d in machine.devices.values()})
        target = devices[0] if devices else machine.node_ids[-1]
        nodes = list(machine.node_ids)
        streams = [nodes[0], nodes[-1], nodes[1]]
        requests = {
            "advise": {"target": target, "mode": mode, "tasks": 5,
                       "avoid_irq_node": True, "tolerance": 0.05},
            "predict_eq1": {"target": target, "mode": mode,
                            "streams": streams},
            "classify": {"target": target, "mode": mode},
        }
        tags = ("tier", "staleness_s", "source")
        for method, params in requests.items():
            backend = AdvisoryBackend(
                machine, registry=RngRegistry(), runs=3, clock=LogicalClock()
            )
            solved = getattr(backend, method)(**params)
            assert solved["tier"] == TIER_SOLVE
            assert solved["source"] == "characterization"
            assert solved["degraded"] is False
            model = backend.model(target, mode)
            if method == "advise":
                plan = PlacementAdvisor(machine, model, tolerance=0.05).advise(
                    5, avoid_irq_node=True
                )
                assert solved["stream_nodes"] == plan.stream_nodes()
                assert tuple(solved["classes_used"]) == plan.classes_used
                assert solved["tasks_per_node"] == {
                    str(n): c
                    for n, c in sorted(plan.tasks_per_node.items()) if c
                }
            elif method == "classify":
                expected = ClassSnapshot.from_model(model).to_dict()
                expected["values"] = {
                    str(n): wire_gbps(v)
                    for n, v in sorted(model.values.items())
                }
                assert {
                    k: v for k, v in solved.items()
                    if k not in tags and k != "degraded"
                } == expected
            else:
                ranks = [model.class_of(n).rank for n in streams]
                avgs = {c.rank: c.avg for c in model.classes}
                shares = {
                    r: ranks.count(r) / len(ranks) for r in dict.fromkeys(ranks)
                }
                assert solved["predicted_gbps"] == wire_gbps(
                    sum(share * avgs[r] for r, share in shares.items())
                )
                assert solved["class_fractions"] == {
                    str(r): wire_gbps(shares[r]) for r in sorted(shares)
                }
                assert solved["streams"] == streams
            backend.clock.advance(1.0)
            if method == "predict_eq1":
                fast = backend.degraded_answer(method, params)
                assert fast.pop("degraded") is True
                solved.pop("degraded")
            else:
                fast = getattr(backend, method)(**params)
                assert fast["tier"] == TIER_CLASS
            assert fast["staleness_s"] == 1.0
            assert {k: v for k, v in solved.items() if k not in tags} == {
                k: v for k, v in fast.items() if k not in tags
            }


class TestTierDispatch:
    def test_cold_then_warm_tiers(self, backend):
        assert backend.predict_eq1(7, "write", [0, 1])["tier"] == TIER_SOLVE
        assert backend.predict_eq1(7, "write", [0, 1])["tier"] == TIER_ANALYTIC
        assert backend.classify(7, "write")["tier"] == TIER_CLASS
        assert backend.advise(7, "write", tasks=4)["tier"] == TIER_CLASS
        assert backend.solves == 1  # one characterization served them all

    def test_staleness_ticks_on_the_clock(self, backend):
        backend.classify(7, "write")
        backend.clock.advance(5.0)
        out = backend.classify(7, "write")
        assert out["tier"] == TIER_CLASS
        assert out["staleness_s"] == 5.0

    def test_stale_entries_force_a_recharacterization(self, host):
        clock = LogicalClock()
        backend = AdvisoryBackend(
            host, registry=RngRegistry(), runs=3, clock=clock,
            tier_max_staleness_s=1.0,
        )
        backend.classify(7, "write")
        clock.advance(0.5)
        assert backend.classify(7, "write")["tier"] == TIER_CLASS
        clock.advance(2.0)
        out = backend.classify(7, "write")
        assert out["tier"] == TIER_SOLVE
        assert out["staleness_s"] == 0.0
        assert backend.solves == 2
        assert backend.tiers.stale_evictions == 1
        # ... and the refreshed entry serves tier 2 again.
        assert backend.classify(7, "write")["tier"] == TIER_CLASS

    def test_plan_base_is_memoized_across_weights(self, backend):
        first = backend.plan(write_weight=0.6)
        second = backend.plan(write_weight=0.6)
        other = backend.plan(write_weight=0.3)
        assert first["tier"] == TIER_SOLVE
        # The per-node score base is weight-independent, so *every*
        # later weight is pure arithmetic over it: tier 1.
        assert second["tier"] == TIER_ANALYTIC
        assert second["source"] == "analytic-base"
        assert second["ranking"] == first["ranking"]
        assert other["tier"] == TIER_ANALYTIC
        assert other["write_weight"] == 0.3

    def test_degraded_answers_are_tier_two_with_true_staleness(self, backend):
        backend.warm((7,))
        backend.clock.advance(9.0)
        out = backend.degraded_answer("advise", {
            "target": 7, "mode": "write", "tasks": 5,
            "avoid_irq_node": False, "tolerance": 0.05,
        })
        assert out["degraded"] is True
        assert out["tier"] == TIER_CLASS
        assert out["staleness_s"] == 9.0


class TestHealthAndSoakReporting:
    def test_health_reports_tier_block(self, host):
        backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
        service = PlacementService(backend, clock=LogicalClock())
        backend.warm((7,))
        import json

        def call(method, params):
            line = json.dumps({"jsonrpc": "2.0", "id": 1,
                               "method": method, "params": params})
            return json.loads(service.handle_line(line))

        call("predict_eq1", {"target": 7, "mode": "write", "streams": [0]})
        call("advise", {"target": 7, "tasks": 2})
        health = call("health", {})["result"]
        tiers = health["tiers"]
        assert tiers["answers"] == {"1": 1, "2": 1, "3": 0}
        assert tiers["solves"] == 2  # the two warmup builds
        assert tiers["coalesced"] == 0
        assert tiers["store"]["entries"] == 2
        assert tiers["store"]["refreshes"] == 2

    def test_soak_report_counts_tiers(self):
        import json

        report = run_soak(requests=40, runs=3, scenario=HEALTHY)
        # Every tiered result is counted; health/ready carry no tier.
        untiered = sum(
            1 for r in report.responses
            if "tier" not in json.loads(r).get("result", {"tier": None})
        )
        assert sum(report.tiers.values()) == (
            report.ok + report.degraded - untiered
        )
        assert report.tiers.get(1, 0) > 0  # analytic answers flowed
        assert "tiers" in report.to_dict()
        assert "analytic" in report.render()


class TestWarmTargets:
    def test_cli_warm_spec_parses(self, host):
        from repro.cli.commands import _node_list

        assert _node_list(host, None, "--warm") is None
        assert _node_list(host, "all", "--warm") == tuple(host.node_ids)
        assert _node_list(host, "3,5", "--warm") == (3, 5)

    def test_cli_warm_spec_rejects_junk(self, host):
        from repro.cli.commands import _node_list
        from repro.errors import ReproError

        for bad in ("seven", "", ",", "0,99", "0,0"):
            with pytest.raises(ReproError, match="--warm"):
                _node_list(host, bad, "--warm")
