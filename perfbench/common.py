"""Shared pieces of the benchmark: statistics, spans, processes, stamps.

Everything here runs in the benchmark's client process.  The program
under test is reached only through its CLI (fresh interpreters), its
public library calls, or its TCP socket; the benchmark never patches
it, and every span is recorded here, around those calls.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: The checkout the benchmark runs in: it is started from the root.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Everything the benchmark writes lands here (ignored by git).
OUT = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    """The program could not be driven (missing sources, dead server)."""


def require_program() -> None:
    """Refuse to run without the program's sources in the checkout."""
    if not (SRC / "repro" / "cli" / "main.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}: run from the root of a "
            f"checkout of the repository"
        )


def use_program_in_process() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for a child interpreter that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Warnings go to stderr and never touch stdout, but keep the child's
    # output independent of the caller's warning filters.
    env.pop("PYTHONWARNINGS", None)
    return env


def cli_argv(*args: str) -> list[str]:
    """``repro-numa ARGS`` as a fresh-interpreter command line."""
    return [
        sys.executable, "-c",
        "import sys; from repro.cli.main import main; sys.exit(main())",
        *args,
    ]


# --- statistics --------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    if data[hi] == data[lo]:  # also keeps inf (a refused request) finite-safe
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives."""
    import statistics

    data = list(values)
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


# --- tracing -----------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id).

    Spans nest through a stack, so a span opened inside another records
    it as its parent.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, req=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, req]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None, req=None) -> int:
        """Record a span measured elsewhere (e.g. in a child interpreter)."""
        self.spans.append([name, start, end, parent, req])
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _r in self.spans if n == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds).

        Self time is a span's duration minus the part its direct
        children cover (children never overlap: one thread records).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, list] = {}
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - child_time[i]
        return {name: tuple(row) for name, row in table.items()}

    def render_self_times(self, title: str) -> str:
        table = self.self_times()
        lines = [title, f"  {'span':38s} {'count':>7s} {'total s':>10s} {'self s':>10s}"]
        for name, (count, total, own) in sorted(
            table.items(), key=lambda item: -item[1][2]
        ):
            lines.append(f"  {name:38s} {count:7d} {total:10.4f} {own:10.4f}")
        return "\n".join(lines)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "req")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


# --- processes ---------------------------------------------------------------


def run_timed(argv: list[str], env: dict, timeout: float) -> tuple[float, int, bytes, float]:
    """Run a child to completion: (wall s, exit code, stdout, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        out, _err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"{argv[:4]}... exceeded {timeout} s")
    wall = time.perf_counter() - start
    return wall, proc.returncode, out, children_peak_rss_mb()


def probe_times(code: str, times: int) -> list[float]:
    """Run ``code`` in ``times`` fresh interpreters; each prints seconds.

    One discarded run first, so every timed run finds bytecode cached,
    as an installed package would.
    """
    env = program_env()
    samples = []
    for k in range(times + 1):
        _wall, exit_code, out, _rss = run_timed(
            [sys.executable, "-c", code], env, timeout=120
        )
        if exit_code != 0:
            raise BenchError(f"set-up probe exited {exit_code}")
        if k:
            samples.append(float(out.decode().strip().splitlines()[-1]))
    return samples


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for child so far (MB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a running process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def stop(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Interrupt a child, then kill it if it lingers; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


# --- environment stamp -------------------------------------------------------


def _source_digest() -> str:
    """Content digest of the program sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_id() -> str:
    """What must match for two result sets to be comparable."""
    return f"{platform.node()}|{_cpu_model()}|{os.cpu_count()}"


def env_stamp() -> dict:
    return {
        "commit": _commit() or "unknown",
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "host": host_id(),
    }
