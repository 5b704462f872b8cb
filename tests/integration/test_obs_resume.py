"""Journaled runs record the same telemetry as unjournaled ones.

A journaled chaos run captures each scenario's telemetry and grafts it
into the run's recording.  Solver work inside a scenario must reach the
manifest once, through that graft, whether the scenario ran fresh,
was replayed from the journal, or ran without a journal at all.  Each
run is a fresh interpreter, so warm solver caches in one run cannot
change another's counters.
"""

from __future__ import annotations

import json
import subprocess
import sys


def _chaos_manifest(tmp_path, name: str, extra: "list[str]") -> dict:
    obs_dir = tmp_path / name
    subprocess.run(
        [sys.executable, "-m", "repro.cli.main", "--seed", "7", "chaos",
         "--quick", "--obs-dir", str(obs_dir)] + extra,
        check=True, capture_output=True, timeout=120,
    )
    return json.loads((obs_dir / "manifest.json").read_text())


def test_fresh_replayed_and_unjournaled_chaos_count_alike(tmp_path):
    journal = str(tmp_path / "journal")
    fresh = _chaos_manifest(tmp_path, "fresh", ["--resume", journal])
    replayed = _chaos_manifest(tmp_path, "replayed", ["--resume", journal])
    plain = _chaos_manifest(tmp_path, "plain", [])

    assert fresh["metrics"]["counters"]["solver.path_hits"] > 0
    for manifest in (fresh, replayed):
        assert manifest["metrics"]["counters"] == plain["metrics"]["counters"]
        assert manifest["seed"]["streams"] == plain["seed"]["streams"]
