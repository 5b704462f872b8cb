"""Topology inference (the paper's negative result)."""

import numpy as np
import pytest

from repro.analysis.topology_inference import (
    CandidateScore,
    InferenceReport,
    infer_topology,
    metric_consistency,
)
from repro.bench.results import BandwidthMatrix
from repro.bench.stream import StreamBenchmark
from repro.errors import ModelError
from repro.topology.builders import magny_cours_4p
from repro.topology.distance import hop_matrix


def _matrix_from_hops(machine, base=30.0, per_hop=5.0):
    """A perfectly hop-consistent symmetric matrix."""
    hops = hop_matrix(machine)
    values = base - per_hop * hops.astype(float)
    return BandwidthMatrix(node_ids=machine.node_ids, values=values)


class TestMetricConsistency:
    def test_symmetric_matrix_consistent(self, variant_a):
        assert metric_consistency(_matrix_from_hops(variant_a))

    def test_reference_host_inconsistent(self, host, registry):
        matrix = StreamBenchmark(host, registry=registry, runs=5).matrix()
        assert not metric_consistency(matrix)


class TestInference:
    def test_clean_machine_identified(self, variant_a):
        report = infer_topology(_matrix_from_hops(variant_a))
        assert report.best.name == "magny-cours-4p-a"
        assert report.best.spearman_rho > 0.95
        assert report.conclusive()

    def test_each_variant_identifies_itself(self):
        for v in "abcd":
            machine = magny_cours_4p(v)
            report = infer_topology(_matrix_from_hops(machine))
            assert report.best.name == f"magny-cours-4p-{v}", v

    def test_reference_host_inconclusive(self, host, registry):
        matrix = StreamBenchmark(host, registry=registry, runs=5).matrix()
        report = infer_topology(matrix)
        assert not report.conclusive()

    def test_violations_counted(self, variant_a):
        hops = hop_matrix(variant_a)
        values = 30.0 - 5.0 * hops.astype(float)
        # Break one relation: make a 2-hop pair look faster than a 1-hop.
        far = np.argwhere(hops == 2)[0]
        values[far[0], far[1]] = 29.0
        report = infer_topology(
            BandwidthMatrix(node_ids=variant_a.node_ids, values=values)
        )
        score = next(s for s in report.scores if s.name == "magny-cours-4p-a")
        assert score.violations > 0

    def test_node_count_mismatch_rejected(self, small_machine):
        matrix = _matrix_from_hops(small_machine)
        with pytest.raises(ModelError):
            infer_topology(matrix)  # default candidates have 8 nodes

    def test_render(self, variant_a):
        text = infer_topology(_matrix_from_hops(variant_a)).render()
        assert "verdict" in text
        assert "CONCLUSIVE" in text

    def test_nan_score_ranks_last(self):
        # A constant candidate has an undefined rho; it must not win.
        report = InferenceReport(
            scores=(
                CandidateScore(name="flat", spearman_rho=float("nan"), violations=0),
                CandidateScore(name="good", spearman_rho=0.97, violations=0),
            ),
            asymmetry=0.0,
            metric_consistent=True,
        )
        assert report.best.name == "good"
        assert report.conclusive()
        lines = report.render().splitlines()
        assert "good" in lines[1] and "flat" in lines[2]
