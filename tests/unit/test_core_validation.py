"""Model-agreement metrics."""

import math
import warnings

import numpy as np
import pytest

from repro.core.iomodel import IOModelBuilder
from repro.core.validation import (
    class_ordering_holds,
    class_separation,
    rank_correlation,
    spearman_rho,
    validate_model,
)
from repro.errors import ModelError


@pytest.fixture()
def read_model(host, registry):
    return IOModelBuilder(host, registry=registry, runs=10).build(7, "read")


class TestRankCorrelation:
    def test_perfect(self):
        a = {0: 1.0, 1: 2.0, 2: 3.0}
        assert rank_correlation(a, a) == pytest.approx(1.0)

    def test_reversed(self):
        a = {0: 1.0, 1: 2.0, 2: 3.0}
        b = {0: 3.0, 1: 2.0, 2: 1.0}
        assert rank_correlation(a, b) == pytest.approx(-1.0)

    def test_common_keys_only(self):
        a = {0: 1.0, 1: 2.0, 2: 3.0, 9: 100.0}
        b = {0: 1.0, 1: 2.0, 2: 3.0, 8: -5.0}
        assert rank_correlation(a, b) == pytest.approx(1.0)

    def test_too_few_keys_rejected(self):
        with pytest.raises(ModelError):
            rank_correlation({0: 1.0}, {0: 1.0})
        with pytest.raises(ModelError):  # two common keys of three each
            rank_correlation({0: 1.0, 1: 2.0, 5: 3.0}, {0: 1.0, 1: 2.0, 6: 3.0})


def _scipy_rho(a, b):
    """The oracle; scipy stays out of the package's import path."""
    stats = pytest.importorskip("scipy.stats")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ConstantInputWarning
        return stats.spearmanr(a, b).statistic


def _seeded_samples(tied: bool):
    rng = np.random.default_rng(20130801 + tied)
    for _ in range(150):
        n = int(rng.integers(3, 301))
        if tied:
            yield rng.integers(0, 4, size=n), rng.integers(0, 3, size=n)
        else:
            a = rng.normal(size=n)
            yield a, a + rng.normal(scale=float(rng.uniform(0.05, 3.0)), size=n)


class TestSpearmanRho:
    """Bit-for-bit agreement with ``scipy.stats.spearmanr``."""

    @pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
    def test_equals_scipy_exactly(self, tied):
        for a, b in _seeded_samples(tied):
            for x, y in ((a, b), (-a, b), (a, -b)):
                ours, oracle = spearman_rho(x, y), _scipy_rho(x, y)
                # Small tied samples can come out constant: nan on both sides.
                assert ours == oracle or (math.isnan(ours) and math.isnan(oracle))

    def test_undefined_input_is_nan_on_both_sides(self):
        flat = np.full(12, 3.5)
        varied = np.arange(12.0)
        holed = np.where(varied == 5.0, np.nan, varied)
        cases = [(flat, varied), (varied, flat), (flat, flat),
                 (holed, varied), (varied, holed), ([1.0], [2.0])]
        for a, b in cases:
            assert math.isnan(spearman_rho(a, b))
            assert math.isnan(_scipy_rho(a, b))

    def test_ties_share_their_mean_rank(self):
        # ranks (1.5, 1.5, 3) vs (1, 2, 3): Pearson on the ranks.
        assert spearman_rho([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(
            math.sqrt(3) / 2
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman_rho([1.0, 2.0, 3.0], [1.0, 2.0])


class TestClassOrdering:
    def test_consistent_operation_holds(self, read_model):
        by_rank = {1: 22.0, 2: 21.9, 3: 18.3, 4: 16.1}
        measured = {n: by_rank[read_model.class_of(n).rank]
                    for n in read_model.values}
        assert class_ordering_holds(read_model, measured)

    def test_tolerated_inversion(self, read_model):
        # The paper's own TCP receiver row: class 3 avg slightly above 2.
        by_rank = {1: 21.2, 2: 20.0, 3: 20.6, 4: 14.4}
        measured = {n: by_rank[read_model.class_of(n).rank]
                    for n in read_model.values}
        assert class_ordering_holds(read_model, measured, tolerance=0.05)
        assert not class_ordering_holds(read_model, measured, tolerance=0.01)

    def test_gross_violation_detected(self, read_model):
        by_rank = {1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}
        measured = {n: by_rank[read_model.class_of(n).rank]
                    for n in read_model.values}
        assert not class_ordering_holds(read_model, measured)


class TestSeparation:
    def test_strong_separation(self, read_model):
        by_rank = {1: 40.0, 2: 30.0, 3: 20.0, 4: 10.0}
        measured = {n: by_rank[read_model.class_of(n).rank]
                    for n in read_model.values}
        assert class_separation(read_model, measured) > 100  # zero spread

    def test_dissolved_classes_score_low(self, read_model, registry):
        rng = registry.stream("sep")
        measured = {n: 20.0 + float(rng.normal(0, 3)) for n in read_model.values}
        strong = {n: {1: 40.0, 2: 30.0, 3: 20.0, 4: 10.0}[
            read_model.class_of(n).rank] for n in read_model.values}
        assert (class_separation(read_model, measured)
                < class_separation(read_model, strong))


class TestValidateModel:
    def test_reports_per_operation(self, read_model):
        by_rank = {1: 22.0, 2: 21.9, 3: 18.3, 4: 16.1}
        measured = {n: by_rank[read_model.class_of(n).rank]
                    for n in read_model.values}
        reports = validate_model(read_model, {"RDMA_READ": measured})
        report = reports["RDMA_READ"]
        assert report.ordering_holds
        assert report.spearman_rho > 0.8
        assert "RDMA_READ" in report.render()
