"""Benchmark harness configuration.

Each benchmark regenerates one paper artifact via the experiment
registry, asserts its shape checks, and prints the paper-vs-measured
rows (captured into bench_output.txt / EXPERIMENTS.md).  Experiments
are deterministic but not cheap, so every benchmark runs ``pedantic``
with one round.  The experiment's module is imported before the timer
starts, so each entry times the experiment, not its first import.
"""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment, run_experiment


@pytest.fixture()
def run_paper_experiment(benchmark):
    """Benchmark one experiment id and enforce its checks."""

    def _run(exp_id: str):
        get_experiment(exp_id)
        result = benchmark.pedantic(
            lambda: run_experiment(exp_id), rounds=1, iterations=1, warmup_rounds=0
        )
        print()
        print(result.render())
        failed = result.failed_checks()
        assert not failed, "\n".join(c.render() for c in failed)
        return result

    return _run
