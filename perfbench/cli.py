"""``cli_reproduce``: fresh-interpreter ``repro-numa experiment all`` runs.

A closed loop with one client: the next invocation starts when the
previous one exits.  This is what every reproducer runs, and the only
workload where import and the 21 experiments show: no service code
runs.  The program's default seed is used, so the benchmark seed has
no input to vary here.
"""

from __future__ import annotations

import time

from common import cli_argv, median, probe_times, program_env, run_timed

EXPERIMENT_COUNT = 21
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli.main; "
    "print(repr(time.perf_counter() - t))"
)


def check_output(out: bytes, code: int) -> "str | None":
    """Why one ``experiment all`` run is wrong, or ``None``."""
    if code != 0:
        return f"exit code {code}"
    lines = out.decode().splitlines()
    passed = sum(1 for line in lines if line.split()[1:2] == ["PASS"])
    if passed != EXPERIMENT_COUNT or len(lines) != EXPERIMENT_COUNT:
        return f"{passed} PASS lines of {len(lines)}, expected {EXPERIMENT_COUNT}"
    return None


def run(seed: int, seconds: float, setups: int = 4) -> dict:
    setup = probe_times(IMPORT_PROBE, setups)
    env = program_env()
    argv = cli_argv("experiment", "all")
    walls, rss, wrong = [], [], []
    reference = None
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(walls) < 3:
        wall, code, out, peak = run_timed(argv, env, timeout=170)
        walls.append(wall)
        rss.append(peak)
        problem = check_output(out, code)
        if problem is None and reference is not None and out != reference:
            problem = "stdout differs from the first invocation"
        if problem is not None:
            wrong.append(f"invocation {len(walls)}: {problem}")
        reference = out if reference is None else reference
    return {
        "setup_s": median(setup),
        "setup_samples_s": setup,
        "op_s": walls,
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(rss),
        "attempted": len(walls),
        "failed": sum(1 for w in wrong if "exit code" in w),
        "wrong": wrong,
    }
