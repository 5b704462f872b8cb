"""The traced ``cli_reproduce`` pass, run in a fresh interpreter.

Usage: ``PYTHONPATH=src python3 perfbench/cli_ledger.py OUT.json``

Imports the program's packages one by one in dependency order (each
span is the *incremental* cold import: what that package adds on top
of the ones before it), then runs the 21 experiments through
``get_experiment(id)`` exactly as ``experiment all`` does, one span
each.  Spans and the experiments' verdicts go to ``OUT.json``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

from common import Tracer

#: Dependency order: each entry imports only what earlier ones lack.
LAYERS = (
    "topology", "routing", "flows", "solver", "core",
    "analysis", "experiments", "service", "cli",
)


def main(out_path: str) -> int:
    tracer = Tracer()
    with tracer.span("cli.ledger"):
        for layer in LAYERS:
            module = "repro.cli.main" if layer == "cli" else f"repro.{layer}"
            with tracer.span(f"import.repro.{layer}"):
                importlib.import_module(module)
        from repro.experiments import EXPERIMENTS, get_experiment

        verdicts = {}
        for exp_id in EXPERIMENTS:
            with tracer.span(f"experiments.{exp_id}"):
                result = get_experiment(exp_id)(
                    machine=None, registry=None, quick=False
                )
            verdicts[exp_id] = bool(result.passed)
    keys = ("name", "start", "end", "parent", "req")
    Path(out_path).write_text(json.dumps({
        "spans": [dict(zip(keys, s)) for s in tracer.spans],
        "passed": verdicts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
