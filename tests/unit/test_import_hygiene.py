"""The CLI and experiment import path stays numpy-only.

scipy costs about half a second of import and ~60 MB of RSS; the
package uses it only inside ``fit_response_curve`` and
``classify_kmeans`` (the ``fit`` extra).  Each check runs in a fresh
interpreter so modules imported by other tests cannot hide a
regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_CHECK_NO_SCIPY = """
import sys
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded[:10]
"""


def _run_without_scipy(snippet: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", snippet + _CHECK_NO_SCIPY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize(
    "snippet",
    [
        "import repro, repro.cli.main, repro.analysis, repro.devices, repro.core",
        "from repro import reference_host\nreference_host()",
        "from repro.cli.main import main\nmain(['experiment', 'a4'])",
    ],
    ids=["import", "reference_host", "experiment_a4"],
)
def test_path_imports_no_scipy(snippet):
    _run_without_scipy(snippet)
