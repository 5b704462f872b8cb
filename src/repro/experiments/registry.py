"""Experiment result types and the id -> runner registry."""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.errors import ReproError
from repro.obs import recorder as _obs

__all__ = [
    "Check",
    "ExperimentResult",
    "EXPERIMENTS",
    "normalize_experiment_id",
    "get_experiment",
    "run_experiment",
    "run_experiment_row",
    "list_experiments",
]


@dataclass(frozen=True)
class Check:
    """One shape assertion against the paper (e.g. 'class order holds')."""

    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        """``[PASS] name — detail``."""
        status = "PASS" if self.ok else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced."""

    exp_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    checks: tuple[Check, ...] = ()

    @property
    def passed(self) -> bool:
        """True when every shape check passed."""
        return all(c.ok for c in self.checks)

    def failed_checks(self) -> tuple[Check, ...]:
        """The checks that did not hold."""
        return tuple(c for c in self.checks if not c.ok)

    def render(self) -> str:
        """Full text: body plus the check list."""
        parts = [f"=== {self.exp_id}: {self.title} ===", self.text]
        if self.checks:
            parts.append("Shape checks vs paper:")
            parts.extend("  " + c.render() for c in self.checks)
        return "\n".join(parts)


class ExperimentFn(Protocol):
    """Signature every experiment runner satisfies."""

    def __call__(self, machine=None, registry=None, quick: bool = False) -> ExperimentResult: ...


#: id -> (module, attribute).  Modules import lazily so ``import repro``
#: stays fast and a broken experiment doesn't take down the registry.
_EXPERIMENT_LOCATIONS: dict[str, tuple[str, str]] = {
    "t1": ("repro.experiments.table1", "run"),
    "t2": ("repro.experiments.configs", "run_table2"),
    "t3": ("repro.experiments.configs", "run_table3"),
    "f3": ("repro.experiments.fig3", "run"),
    "f4": ("repro.experiments.fig4", "run"),
    "f5": ("repro.experiments.fig5", "run"),
    "f6": ("repro.experiments.fig6", "run"),
    "f7": ("repro.experiments.fig7", "run"),
    "f10": ("repro.experiments.fig10", "run"),
    "t4": ("repro.experiments.table4", "run"),
    "t5": ("repro.experiments.table5", "run"),
    "eq1": ("repro.experiments.eq1", "run"),
    "s1": ("repro.experiments.scheduler", "run"),
    "a1": ("repro.experiments.ablation_inference", "run"),
    "a2": ("repro.experiments.ablation_mismatch", "run"),
    "a3": ("repro.experiments.ablation_cost", "run"),
    "a4": ("repro.experiments.ablation_baselines", "run"),
    "a5": ("repro.experiments.ablation_irq", "run"),
    "a6": ("repro.experiments.ablation_sensitivity", "run"),
    "fw1": ("repro.experiments.futurework_migration", "run"),
    "fw2": ("repro.experiments.futurework_contention", "run"),
}

EXPERIMENTS: tuple[str, ...] = tuple(_EXPERIMENT_LOCATIONS)


def normalize_experiment_id(exp_id: str) -> str:
    """Canonical registry id for ``exp_id``, accepting long-form aliases.

    ``fig10``/``figure10`` mean ``f10``, ``table4`` means ``t4``; exact
    ids pass through unchanged (so ``fw1`` is never rewritten).
    """
    key = exp_id.lower()
    if key in _EXPERIMENT_LOCATIONS:
        return key
    for prefix, short in (("figure", "f"), ("fig", "f"), ("table", "t")):
        if key.startswith(prefix):
            alias = short + key[len(prefix):]
            if alias in _EXPERIMENT_LOCATIONS:
                return alias
    return key


def get_experiment(exp_id: str) -> ExperimentFn:
    """The runner for ``exp_id``; raises on unknown ids."""
    key = normalize_experiment_id(exp_id)
    if key not in _EXPERIMENT_LOCATIONS:
        raise ReproError(
            f"unknown experiment {exp_id!r}; known ids: {', '.join(EXPERIMENTS)}"
        )
    module_name, attr = _EXPERIMENT_LOCATIONS[key]
    return getattr(importlib.import_module(module_name), attr)


def run_experiment(exp_id: str, machine=None, registry=None, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id."""
    key = normalize_experiment_id(exp_id)
    runner = get_experiment(key)
    with _obs.span("experiment." + key, quick=quick):
        return runner(machine=machine, registry=registry, quick=quick)


def run_experiment_row(
    exp_id: str, quick: bool = False
) -> tuple[str, bool, str, str, list[str], float]:
    """Run one experiment and return its report row as plain data.

    The row is ``(exp_id, passed, title, rendered, failed_lines,
    wall_s)``: everything ``experiment all`` prints or writes, already
    rendered, so a worker process can ship it back as strings
    (``ExperimentResult.data`` may hold arbitrary objects).
    """
    start = time.perf_counter()
    result = run_experiment(exp_id, quick=quick)
    wall_s = time.perf_counter() - start
    failed_lines = [c.render() for c in result.failed_checks()]
    return (exp_id, result.passed, result.title, result.render(),
            failed_lines, wall_s)


def list_experiments() -> dict[str, str]:
    """id -> title for every registered experiment (runs nothing heavy)."""
    out = {}
    for exp_id in EXPERIMENTS:
        module_name, attr = _EXPERIMENT_LOCATIONS[exp_id]
        module = importlib.import_module(module_name)
        title = getattr(module, f"TITLE_{attr.upper()}", None) or getattr(
            module, "TITLE", module.__doc__ or exp_id
        )
        out[exp_id] = title.strip().splitlines()[0]
    return out
