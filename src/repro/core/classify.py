"""Grouping node bandwidths into performance classes.

§V-A: "The local and neighboring nodes are always assigned to the first
class, and the main task of our methodology is to classify the remote
nodes."  Remote nodes are clustered on their measured bandwidth with a
relative-gap rule (values within ``rel_gap`` of each other share a
class); a k-means cross-check is provided for validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ModelError
from repro.topology.machine import Machine, Relation

__all__ = ["PerfClass", "classify_nodes", "classify_kmeans"]


@dataclass(frozen=True)
class PerfClass:
    """One performance class: a rank, its nodes, and their values."""

    rank: int  # 1-based; class 1 is the fastest (local + neighbours)
    node_ids: tuple[int, ...]
    values: dict[int, float]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ModelError(f"class rank must be >= 1, got {self.rank}")
        if not self.node_ids:
            raise ModelError(f"class {self.rank} has no nodes")
        missing = [n for n in self.node_ids if n not in self.values]
        if missing:
            raise ModelError(f"class {self.rank}: nodes {missing} lack values")

    @property
    def avg(self) -> float:
        """Mean bandwidth across the class's nodes."""
        return float(np.mean([self.values[n] for n in self.node_ids]))

    @property
    def lo(self) -> float:
        """Lowest bandwidth in the class (Table IV/V 'Range' floor)."""
        return min(self.values[n] for n in self.node_ids)

    @property
    def hi(self) -> float:
        """Highest bandwidth in the class (Table IV/V 'Range' ceiling)."""
        return max(self.values[n] for n in self.node_ids)

    def __contains__(self, node: int) -> bool:
        return node in self.node_ids


def classify_nodes(
    values: Mapping[int, float],
    machine: Machine,
    target_node: int,
    rel_gap: float = 0.08,
) -> tuple[PerfClass, ...]:
    """Split per-node bandwidths into ordered performance classes.

    Parameters
    ----------
    values:
        node id -> measured bandwidth (all of the machine's nodes).
    machine, target_node:
        Used for the local/neighbour rule.
    rel_gap:
        Adjacent (sorted) remote values whose relative gap exceeds this
        start a new class.

    Returns
    -------
    Classes in decreasing performance order, ranks 1..k.
    """
    if target_node not in machine.node_ids:
        raise ModelError(f"unknown target node {target_node}")
    missing = [n for n in machine.node_ids if n not in values]
    if missing:
        raise ModelError(f"values missing for nodes {missing}")
    if any(v <= 0 for v in values.values()):
        raise ModelError("bandwidth values must be positive")

    first = [
        n
        for n in machine.node_ids
        if machine.relation(target_node, n) in (Relation.LOCAL, Relation.NEIGHBOR)
    ]
    remote = sorted(
        (n for n in machine.node_ids if n not in first),
        key=lambda n: -values[n],
    )

    classes: list[PerfClass] = [
        PerfClass(rank=1, node_ids=tuple(sorted(first)),
                  values={n: float(values[n]) for n in first})
    ]
    group: list[int] = []
    for node in remote:
        if group and (values[group[-1]] - values[node]) / values[group[-1]] > rel_gap:
            classes.append(
                PerfClass(
                    rank=len(classes) + 1,
                    node_ids=tuple(sorted(group)),
                    values={n: float(values[n]) for n in group},
                )
            )
            group = []
        group.append(node)
    if group:
        classes.append(
            PerfClass(
                rank=len(classes) + 1,
                node_ids=tuple(sorted(group)),
                values={n: float(values[n]) for n in group},
            )
        )
    return tuple(classes)


def classify_kmeans(
    values: Mapping[int, float],
    machine: Machine,
    target_node: int,
    k: int,
    seed: int = 0,
) -> tuple[PerfClass, ...]:
    """k-means cross-check on the remote nodes (validation aid).

    Keeps the local/neighbour rule, clusters the remaining nodes into
    ``k - 1`` groups with 1-D k-means, and orders classes by mean.
    Needs scipy (``scipy.cluster.vq.kmeans2``), from the ``fit`` extra:
    ``pip install -e .[fit]``.
    """
    from scipy.cluster.vq import kmeans2

    if k < 1:
        raise ModelError(f"k must be >= 1, got {k}")
    first = [
        n
        for n in machine.node_ids
        if machine.relation(target_node, n) in (Relation.LOCAL, Relation.NEIGHBOR)
    ]
    remote = [n for n in machine.node_ids if n not in first]
    classes = [
        PerfClass(rank=1, node_ids=tuple(sorted(first)),
                  values={n: float(values[n]) for n in first})
    ]
    if not remote:
        return tuple(classes)
    k_remote = min(k - 1 if k > 1 else 1, len(remote))
    data = np.array([[values[n]] for n in remote])
    _centroids, labels = kmeans2(data, k_remote, seed=seed, minit="++")
    groups: dict[int, list[int]] = {}
    for node, label in zip(remote, labels):
        groups.setdefault(int(label), []).append(node)
    ordered = sorted(
        groups.values(), key=lambda g: -float(np.mean([values[n] for n in g]))
    )
    for group in ordered:
        classes.append(
            PerfClass(
                rank=len(classes) + 1,
                node_ids=tuple(sorted(group)),
                values={n: float(values[n]) for n in group},
            )
        )
    return tuple(classes)
