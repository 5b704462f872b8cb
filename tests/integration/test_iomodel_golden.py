"""Golden digests of the largest Algorithm 1 sweeps the CLI prints.

``iomodel --targets all --mode both`` is every (node, target) probe of a
host in both modes; its stdout is seed-deterministic, so any change to
the sweep's numerics (allocation, noise draws, the solver, the mean
reduction, rendering) shows up as a different digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from repro.cli.main import main

GOLDEN = {
    "hp-blade-32n": "732c32645d908f534c78676960bfcdc25b41387cd2d8aea5b1a6bdbdbb7d735d",
    "reference": "468002855a21edf763a19cf579dea49d0796e74bbebaa889859b90090af341c3",
}


@pytest.mark.parametrize("machine", sorted(GOLDEN))
def test_full_sweep_stdout_digest(machine):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["--machine", machine, "--seed", "7", "iomodel",
                   "--targets", "all", "--mode", "both"])
    assert rc == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == GOLDEN[machine]
