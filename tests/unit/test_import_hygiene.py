"""The CLI and experiment import path stays numpy-only.

scipy costs about half a second of import and ~60 MB of RSS; the
package uses it only inside ``fit_response_curve`` and
``classify_kmeans`` (the ``fit`` extra).  A serial ``experiment all``
also stays off the worker fabric, the journal, the fault layer and
:mod:`multiprocessing`.  Each check runs in a fresh interpreter so
modules imported by other tests cannot hide a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_CHECK_ABSENT = """
import sys
loaded = sorted(m for m in sys.modules if m.startswith({absent!r}))
assert not loaded, loaded[:10]
"""

#: What a serial ``experiment all`` must not load on top of scipy: the
#: healthy flow simulation runs without the fault layer.
_OFFLINE_LAYER = (
    "repro.fabric", "repro.journal", "multiprocessing", "repro.faults",
)


def _run_without_scipy(snippet: str, also_absent: tuple = ()) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    check = _CHECK_ABSENT.format(absent=("scipy",) + also_absent)
    proc = subprocess.run(
        [sys.executable, "-c", snippet + check],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize(
    "snippet, also_absent",
    [
        ("import repro, repro.cli.main, repro.analysis, repro.devices, "
         "repro.core", ()),
        ("from repro import reference_host\nreference_host()", ()),
        ("from repro.cli.main import main\nmain(['experiment', 'a4'])", ()),
        ("from repro.cli.main import main\n"
         "main(['experiment', 'all', '--quick'])", _OFFLINE_LAYER),
    ],
    ids=["import", "reference_host", "experiment_a4", "experiment_all_serial"],
)
def test_path_imports_no_scipy(snippet, also_absent):
    _run_without_scipy(snippet, also_absent)
