"""The paper's contribution: NUMA I/O performance modelling.

* :class:`~repro.core.iomodel.IOModelBuilder` — Algorithm 1: characterise
  a device-attached node with memcpy only, no device involved.
* :mod:`~repro.core.classify` — group nodes into performance classes
  (local+neighbour are always class 1, per §V-A).
* :class:`~repro.core.model.IOPerformanceModel` /
  :class:`~repro.core.model.ModelTable` — the Tables IV/V structures.
* :class:`~repro.core.predictor.MixturePredictor` — Eq. 1 multi-user
  aggregate prediction.
* :class:`~repro.core.scheduler_advisor.PlacementAdvisor` — spread I/O
  tasks across equivalent classes (§V-B).
* :class:`~repro.core.characterize.HostCharacterizer` — whole-host
  characterisation with probe-cost accounting.
* :mod:`~repro.core.validation` — model-vs-measurement agreement metrics
  (:func:`~repro.core.validation.spearman_rho` is its numpy rank
  correlation).
"""

from repro.core.classify import PerfClass, classify_kmeans, classify_nodes
from repro.core.characterize import HostCharacterization, HostCharacterizer
from repro.core.iomodel import IOModelBuilder
from repro.core.migration import (
    OnlineSimulator,
    OnlineWorkload,
    PolicyOutcome,
    StreamJob,
)
from repro.core.model import IOPerformanceModel, ModelTable, OperationRow
from repro.core.predictor import MixturePredictor, PredictionReport
from repro.core.scheduler_advisor import PlacementAdvisor, PlacementPlan
from repro.core.validation import spearman_rho

__all__ = [
    "PerfClass",
    "classify_nodes",
    "classify_kmeans",
    "IOModelBuilder",
    "IOPerformanceModel",
    "ModelTable",
    "OperationRow",
    "MixturePredictor",
    "PredictionReport",
    "PlacementAdvisor",
    "PlacementPlan",
    "HostCharacterizer",
    "HostCharacterization",
    "OnlineSimulator",
    "OnlineWorkload",
    "PolicyOutcome",
    "StreamJob",
    "spearman_rho",
]
