"""Switched-cluster transfers."""

import pytest

from repro.cluster.fabric import SwitchedCluster, Transfer
from repro.cluster.link import EthernetLink
from repro.errors import BenchmarkError
from repro.rng import RngRegistry
from repro.topology.builders import reference_host


@pytest.fixture(scope="module")
def cluster():
    hosts = {f"h{i}": reference_host() for i in range(4)}
    return SwitchedCluster(hosts, registry=RngRegistry())


class TestTransfers:
    def test_well_tuned_pair_hits_protocol_cap(self, cluster):
        res = cluster.run([Transfer(name="t", src_host="h0", dst_host="h1")])
        assert res["t"].aggregate_gbps == pytest.approx(22.0, rel=0.03)

    def test_disjoint_pairs_run_independently(self, cluster):
        res = cluster.run([
            Transfer(name="a", src_host="h0", dst_host="h1"),
            Transfer(name="b", src_host="h2", dst_host="h3"),
        ])
        assert res["a"].aggregate_gbps == pytest.approx(
            res["b"].aggregate_gbps, rel=0.05
        )
        total = sum(o.aggregate_gbps for o in res.values())
        assert total == pytest.approx(44.0, rel=0.05)

    def test_fan_in_shares_receiver(self, cluster):
        res = cluster.run([
            Transfer(name=f"in{i}", src_host=f"h{i}", dst_host="h3")
            for i in range(3)
        ])
        total = sum(o.aggregate_gbps for o in res.values())
        # The receiver's NIC is the bottleneck: total ~= one transfer.
        assert total == pytest.approx(22.0, rel=0.05)
        # ... shared fairly.
        values = [o.aggregate_gbps for o in res.values()]
        assert max(values) - min(values) < 0.15 * max(values)

    def test_numa_placement_matters_cluster_wide(self, cluster):
        bad = cluster.run([
            Transfer(name="bad", src_host="h0", dst_host="h1", src_node=2)
        ])["bad"].aggregate_gbps
        good = cluster.run([
            Transfer(name="good", src_host="h0", dst_host="h1", src_node=0)
        ])["good"].aggregate_gbps
        assert bad == pytest.approx(17.1, rel=0.05)
        assert good > bad

    def test_backplane_caps_everything(self):
        hosts = {f"h{i}": reference_host() for i in range(4)}
        narrow = SwitchedCluster(hosts, backplane_gbps=30.0,
                                 registry=RngRegistry())
        res = narrow.run([
            Transfer(name="a", src_host="h0", dst_host="h1"),
            Transfer(name="b", src_host="h2", dst_host="h3"),
        ])
        total = sum(o.aggregate_gbps for o in res.values())
        assert total <= 30.0 * 1.01

    def test_slow_uplink_caps_single_host(self):
        hosts = {f"h{i}": reference_host() for i in range(2)}
        slow = SwitchedCluster(hosts, uplink=EthernetLink(raw_gbps=10.0),
                               registry=RngRegistry())
        res = slow.run([Transfer(name="t", src_host="h0", dst_host="h1")])
        assert res["t"].aggregate_gbps <= 10.0


class TestValidation:
    def test_needs_two_hosts(self):
        with pytest.raises(BenchmarkError):
            SwitchedCluster({"h0": reference_host()})

    def test_nic_required(self):
        hosts = {"h0": reference_host(), "h1": reference_host(with_devices=False)}
        with pytest.raises(BenchmarkError):
            SwitchedCluster(hosts)

    def test_self_transfer_rejected(self):
        with pytest.raises(BenchmarkError):
            Transfer(name="t", src_host="h0", dst_host="h0")

    def test_unknown_host_rejected(self, cluster):
        with pytest.raises(BenchmarkError):
            cluster.run([Transfer(name="t", src_host="h0", dst_host="zz")])

    def test_duplicate_names_rejected(self, cluster):
        with pytest.raises(BenchmarkError):
            cluster.run([
                Transfer(name="t", src_host="h0", dst_host="h1"),
                Transfer(name="t", src_host="h2", dst_host="h3"),
            ])

    def test_empty_rejected(self, cluster):
        with pytest.raises(BenchmarkError):
            cluster.run([])


class TestFaultPlans:
    def _transfer(self, size=4e9):
        return Transfer(name="t", src_host="h0", dst_host="h1", numjobs=2,
                        size_bytes=size)

    def test_empty_plan_behaves_healthy(self, cluster):
        from repro.faults.plan import FaultPlan

        transfers = [
            Transfer(name="t", src_host="h0", dst_host="h1", numjobs=4,
                     size_bytes=4e9),
            Transfer(name="u", src_host="h2", dst_host="h1", engine="tcp",
                     numjobs=3, size_bytes=2e9),
        ]
        healthy = cluster.run(transfers)
        degraded = cluster.run(transfers, fault_plan=FaultPlan())
        assert degraded == healthy
        for outcome in degraded.values():
            assert outcome.status == "ok"
            assert outcome.retries == 0 and outcome.reroutes == 0

    def test_flap_window_recovers(self, cluster):
        from repro.faults.events import FaultEvent, NicPortFlap
        from repro.faults.plan import FaultPlan

        plan = FaultPlan([
            FaultEvent(NicPortFlap(host="h0"), at_s=0.2, until_s=0.7)
        ])
        outcome = cluster.run([self._transfer()], fault_plan=plan)["t"]
        assert outcome.status == "recovered"
        assert outcome.retries > 0
        assert outcome.reason is None

    def test_permanent_outage_fails_with_reason(self, cluster):
        from repro.faults.events import FaultEvent, NicPortFlap
        from repro.faults.plan import FaultPlan

        plan = FaultPlan([FaultEvent(NicPortFlap(host="h0"), at_s=0.2)])
        outcome = cluster.run([self._transfer()], fault_plan=plan)["t"]
        assert outcome.status == "failed"
        assert outcome.reason is not None and "retries" in outcome.reason
        # Partial progress still reported, not an exception.
        assert outcome.aggregate_gbps > 0

    def test_unaffected_transfer_stays_ok(self, cluster):
        from repro.faults.events import FaultEvent, NicPortFlap
        from repro.faults.plan import FaultPlan

        plan = FaultPlan([FaultEvent(NicPortFlap(host="h0"), at_s=0.2)])
        outcomes = cluster.run(
            [
                self._transfer(),
                Transfer(name="u", src_host="h2", dst_host="h3", numjobs=2,
                         size_bytes=4e9),
            ],
            fault_plan=plan,
        )
        assert outcomes["t"].status == "failed"
        assert outcomes["u"].status == "ok"
