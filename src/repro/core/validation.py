"""Model-vs-measurement agreement metrics.

The paper validates its memcpy models by checking that real I/O
operations respect the same class structure (Tables IV/V) — not that
absolute numbers match.  These metrics quantify that:

* :func:`spearman_rho` — Spearman rank correlation of two samples in
  plain numpy (average ranks for ties, then Pearson on the ranks);
* :func:`rank_correlation` — Spearman correlation between two per-node
  bandwidth maps (how well one model predicts another's ordering);
* :func:`class_ordering_holds` — do the measured class averages decrease
  with class rank (allowing a tolerance for the paper's own class-1/2
  ties)?
* :func:`class_separation` — are between-class gaps larger than
  within-class spreads under the measured operation?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.model import IOPerformanceModel
from repro.errors import ModelError

__all__ = [
    "spearman_rho",
    "rank_correlation",
    "class_ordering_holds",
    "class_separation",
    "class_stability",
    "ValidationReport",
    "validate_model",
]


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="mergesort")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def spearman_rho(a, b) -> float:
    """Spearman rank correlation of two equal-length 1-D samples.

    Average ranks (ties share their mean rank), then the Pearson
    correlation of the ranks — the same steps, in the same array layout,
    as ``scipy.stats.spearmanr``, so the two agree bit for bit.  Returns
    ``nan`` when either sample is constant, contains ``nan`` or has
    fewer than two values (the correlation is undefined).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need two equal-length 1-D samples, got {x.shape} and {y.shape}")
    if x.size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    if (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    ranked = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def rank_correlation(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """Spearman rho between two per-node bandwidth maps (common keys)."""
    keys = sorted(set(a) & set(b))
    if len(keys) < 3:
        raise ModelError(f"need >= 3 common nodes for a rank correlation, got {len(keys)}")
    return spearman_rho([a[k] for k in keys], [b[k] for k in keys])


def class_ordering_holds(
    model: IOPerformanceModel,
    measured: Mapping[int, float],
    tolerance: float = 0.05,
) -> bool:
    """True when measured class averages are non-increasing in rank.

    ``tolerance`` forgives inversions smaller than this relative margin —
    the paper's own tables contain such ties (TCP sender classes 1/2).
    """
    averages = []
    for cls in model.classes:
        vals = [measured[n] for n in cls.node_ids]
        averages.append(float(np.mean(vals)))
    for earlier, later in zip(averages, averages[1:]):
        if later > earlier * (1 + tolerance):
            return False
    return True


def class_separation(
    model: IOPerformanceModel, measured: Mapping[int, float]
) -> float:
    """Smallest between-adjacent-class gap over largest within-class spread.

    > 1 means the measured operation separates the model's classes more
    strongly than its own noise; values near 0 mean the class structure
    dissolved under this operation.
    """
    averages = []
    spreads = []
    for cls in model.classes:
        vals = [measured[n] for n in cls.node_ids]
        averages.append(float(np.mean(vals)))
        spreads.append(max(vals) - min(vals))
    if len(averages) < 2:
        raise ModelError("need >= 2 classes to measure separation")
    gaps = [abs(a - b) for a, b in zip(averages, averages[1:])]
    worst_spread = max(max(spreads), 1e-9)
    return min(gaps) / worst_spread


def class_stability(
    machine,
    target_node: int,
    mode: str,
    repeats: int = 10,
    runs: int = 25,
    seed: int = 0,
) -> float:
    """Fraction of independent re-characterisations yielding identical
    classes.

    Algorithm 1 is a measurement; measurements jitter.  A model worth
    deploying must produce the *same* class structure when the whole
    characterisation is repeated with fresh noise.  Returns the share of
    ``repeats`` runs whose classes match the modal structure (1.0 =
    perfectly stable, the reference host's expected value).
    """
    from collections import Counter

    from repro.core.iomodel import IOModelBuilder
    from repro.rng import RngRegistry

    if repeats < 2:
        raise ModelError(f"need >= 2 repeats, got {repeats}")
    structures = []
    for r in range(repeats):
        builder = IOModelBuilder(
            machine, registry=RngRegistry(seed).child(f"stability/{r}"), runs=runs
        )
        model = builder.build(target_node, mode)
        structures.append(tuple(tuple(sorted(c.node_ids)) for c in model.classes))
    counts = Counter(structures)
    _modal, frequency = counts.most_common(1)[0]
    return frequency / repeats


@dataclass(frozen=True)
class ValidationReport:
    """Agreement between one model and one measured operation."""

    operation: str
    spearman_rho: float
    ordering_holds: bool
    separation: float

    def render(self) -> str:
        """One-line summary."""
        return (
            f"{self.operation}: rho={self.spearman_rho:.3f}, "
            f"class ordering {'holds' if self.ordering_holds else 'VIOLATED'}, "
            f"separation {self.separation:.2f}"
        )


def validate_model(
    model: IOPerformanceModel,
    measurements: Mapping[str, Mapping[int, float]],
    tolerance: float = 0.05,
) -> dict[str, ValidationReport]:
    """Validate a model against several measured operations at once."""
    reports = {}
    for operation, per_node in measurements.items():
        reports[operation] = ValidationReport(
            operation=operation,
            spearman_rho=rank_correlation(model.values, per_node),
            ordering_holds=class_ordering_holds(model, per_node, tolerance),
            separation=class_separation(model, per_node),
        )
    return reports
