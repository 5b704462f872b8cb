"""Topology inference from bandwidth matrices — the §IV-A negative result.

The paper tries to recover its host's interconnect topology from the
STREAM matrix under the hop-distance hypothesis (local best, one hop
second, two hops worst) and fails: the matrix is asymmetric and matches
none of the published Fig. 1 variants.  This module implements that
attempt so the failure is demonstrable:

* score every candidate topology by the (negative) correlation between
  its hop distances and the measured bandwidths;
* check whether the measurement could come from *any* symmetric
  distance metric at all (it cannot, beyond a noise threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.bench.results import BandwidthMatrix
from repro.core.validation import spearman_rho
from repro.errors import ModelError
from repro.topology.distance import hop_matrix
from repro.topology.machine import Machine

__all__ = ["CandidateScore", "InferenceReport", "infer_topology", "metric_consistency"]


@dataclass(frozen=True)
class CandidateScore:
    """How well one candidate topology explains a bandwidth matrix."""

    name: str
    spearman_rho: float  # between -hops and bandwidth; 1.0 = perfect
    violations: int  # ordered pairs where more hops gave MORE bandwidth


def _rank_key(score: CandidateScore) -> tuple[bool, float]:
    """Order by rho, with an undefined (``nan``) rho below every number."""
    return (not math.isnan(score.spearman_rho), score.spearman_rho)


@dataclass(frozen=True)
class InferenceReport:
    """Outcome of the inference attempt."""

    scores: tuple[CandidateScore, ...]
    asymmetry: float
    metric_consistent: bool

    @property
    def best(self) -> CandidateScore:
        """The least-bad candidate."""
        return max(self.scores, key=_rank_key)

    def conclusive(self, rho_threshold: float = 0.95) -> bool:
        """True if some candidate explains the data well AND the data
        could come from a symmetric metric.  The paper's point is that
        this returns False on the real host."""
        return self.metric_consistent and self.best.spearman_rho >= rho_threshold

    def render(self) -> str:
        """Scores plus the verdict."""
        lines = ["Topology inference from bandwidth matrix:"]
        for s in sorted(self.scores, key=_rank_key, reverse=True):
            lines.append(
                f"  {s.name:24s} rho={s.spearman_rho:+.3f}  "
                f"hop-order violations={s.violations}"
            )
        lines.append(f"  matrix asymmetry: {100 * self.asymmetry:.1f} %")
        verdict = (
            "CONCLUSIVE" if self.conclusive() else "INCONCLUSIVE (paper's finding)"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def metric_consistency(matrix: BandwidthMatrix, tolerance: float = 0.05) -> bool:
    """Could this matrix derive from a symmetric distance metric?

    Necessary condition: BW(i, j) ~= BW(j, i) within ``tolerance``.
    """
    return matrix.asymmetry() <= tolerance


def _score_candidate(
    name: str, hops: np.ndarray, matrix: BandwidthMatrix
) -> CandidateScore:
    n = len(matrix.node_ids)
    hop_list, bw_list = [], []
    for i in range(n):
        for j in range(n):
            hop_list.append(hops[i, j])
            bw_list.append(matrix.values[i, j])
    rho = spearman_rho(-np.array(hop_list), bw_list)

    violations = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if hops[i, j] < hops[i, k] and matrix.values[i, j] < matrix.values[i, k]:
                    violations += 1
    return CandidateScore(name=name, spearman_rho=rho, violations=violations)


def infer_topology(
    matrix: BandwidthMatrix,
    candidates: Mapping[str, Machine] | None = None,
    candidate_builders: Mapping[str, Callable[[], Machine]] | None = None,
) -> InferenceReport:
    """Attempt to identify the topology behind ``matrix``.

    Defaults to the four published Fig. 1 Magny-Cours variants as
    candidates.
    """
    if candidates is None:
        from repro.topology.builders import magny_cours_4p

        builders = candidate_builders or {
            f"magny-cours-4p-{v}": (lambda v=v: magny_cours_4p(v))
            for v in ("a", "b", "c", "d")
        }
        candidates = {name: build() for name, build in builders.items()}
    if not candidates:
        raise ModelError("no candidate topologies supplied")

    scores = []
    for name, machine in candidates.items():
        if machine.n_nodes != len(matrix.node_ids):
            raise ModelError(
                f"candidate {name!r} has {machine.n_nodes} nodes; "
                f"matrix covers {len(matrix.node_ids)}"
            )
        scores.append(_score_candidate(name, hop_matrix(machine), matrix))
    return InferenceReport(
        scores=tuple(scores),
        asymmetry=matrix.asymmetry(),
        metric_consistent=metric_consistency(matrix),
    )
