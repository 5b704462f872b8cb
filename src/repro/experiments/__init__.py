"""Experiment registry: one module per paper table/figure.

Each experiment is a function ``run(machine=None, registry=None, quick=False)``
returning an :class:`~repro.experiments.registry.ExperimentResult` that
carries the rendered text, the structured data, and pass/fail *shape
checks* against the paper's reported values.  The same functions back:

* ``repro-numa experiment <id>`` (CLI),
* the pytest-benchmark harness (one bench per experiment), and
* EXPERIMENTS.md generation (paper-vs-measured records).

Experiment ids follow DESIGN.md §4: ``t1``-``t5`` (tables), ``f3``-``f10``
(figures), ``eq1``, ``s1`` (scheduler application), ``a1``-``a3``
(ablations/negative results).
"""

from repro.experiments.registry import (
    EXPERIMENTS,
    Check,
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
    run_experiment_row,
)

__all__ = [
    "EXPERIMENTS",
    "Check",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "run_experiment_row",
]
