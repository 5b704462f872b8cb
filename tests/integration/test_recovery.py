"""SIGKILL-mid-sweep recovery: resumed runs are byte-identical.

These tests arm the journal's seeded crash points
(:data:`repro.journal.CRASH_ENV`) in a subprocess running the real CLI,
kill it mid-sweep, resume with ``--resume``, and assert the resumed
stdout matches an uninterrupted golden run byte for byte — plus no
leaked ``/dev/shm`` arena segments.  The full randomized soak lives in
``repro-numa recover`` / ``scripts/recovery_smoke.sh``; this is the
fast deterministic slice of it that runs under pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.journal import CRASH_ENV, JOURNAL_FILENAME, scan_journal

pytestmark = [pytest.mark.recovery, pytest.mark.fabric]

ARGS = [
    "--machine", "reference", "--seed", "123",
    "iomodel", "--targets", "0,1,2", "--mode", "write",
    "--runs", "2", "--jobs", "2",
]


def _run(extra, env=None, expect_kill=False):
    base = {k: v for k, v in os.environ.items() if k != CRASH_ENV}
    base.update(env or {})
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli.main"] + ARGS + extra,
        # A SIGKILLed parent leaves pool workers holding the stdout
        # pipe, so capturing a crash run's output could block on EOF.
        stdout=subprocess.DEVNULL if expect_kill else subprocess.PIPE,
        stderr=subprocess.DEVNULL if expect_kill else subprocess.PIPE,
        env=base,
        timeout=120,
    )
    return proc


def _live_segments():
    from repro.fabric.arena import live_segments, reap_orphans

    reap_orphans(max_age_s=0.0)
    return live_segments()


def _processes_naming(marker: str) -> list[int]:
    """PIDs of live processes whose command line contains ``marker``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            # A zombie is already dead; it only waits to be reaped.
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if marker.encode() in cmdline and state != "Z":
            pids.append(int(entry.name))
    return pids


@pytest.mark.parametrize("crash_spec", ["2", "2:torn"])
def test_sigkill_mid_sweep_resumes_byte_identical(tmp_path, crash_spec):
    golden = _run([])
    assert golden.returncode == 0, golden.stderr.decode()

    run_dir = tmp_path / "run"
    crashed = _run(["--resume", str(run_dir)],
                   env={CRASH_ENV: crash_spec}, expect_kill=True)
    assert crashed.returncode != 0  # SIGKILL fired mid-sweep

    records, _, torn = scan_journal(run_dir / JOURNAL_FILENAME)
    torn_mode = crash_spec.endswith(":torn")
    assert torn == torn_mode
    # Plain crash lands right after record 2 (meta + 2 units); torn mode
    # cuts record 2 in half, leaving meta + 1 complete unit.
    assert len(records) == (2 if torn_mode else 3)

    resumed = _run(["--resume", str(run_dir)])
    assert resumed.returncode == 0, resumed.stderr.decode()
    assert resumed.stdout == golden.stdout
    notes = resumed.stderr.decode()
    assert "unit(s) already completed" in notes
    if torn_mode:
        assert "truncated a torn tail" in notes

    assert _live_segments() == []  # nothing leaked by the crash


def test_resume_of_complete_run_recomputes_nothing(tmp_path):
    run_dir = tmp_path / "run"
    first = _run(["--resume", str(run_dir)])
    assert first.returncode == 0, first.stderr.decode()

    again = _run(["--resume", str(run_dir)])
    assert again.returncode == 0
    assert again.stdout == first.stdout
    assert "3/3 unit(s) already completed" in again.stderr.decode()

    # The journal gained no records the second time around.
    records, _, torn = scan_journal(run_dir / JOURNAL_FILENAME)
    assert not torn and len(records) == 4
    assert _live_segments() == []


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(),
                    reason="needs /proc to list processes")
def test_sigkill_leaves_no_orphaned_workers(tmp_path):
    run_dir = tmp_path / "run"
    crashed = _run(["--resume", str(run_dir)],
                   env={CRASH_ENV: "2"}, expect_kill=True)
    assert crashed.returncode != 0

    deadline = time.monotonic() + 5.0
    survivors = _processes_naming(str(run_dir))
    while survivors and time.monotonic() < deadline:
        time.sleep(0.1)
        survivors = _processes_naming(str(run_dir))
    assert survivors == []
