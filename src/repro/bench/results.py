"""Benchmark result containers and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import BenchmarkError

__all__ = ["Measurement", "BandwidthMatrix", "JobResult"]


@dataclass(frozen=True)
class Measurement:
    """One benchmarked bandwidth figure with its sampling protocol.

    ``protocol`` records how ``gbps`` was derived from ``samples``:
    ``"max"`` (STREAM's max-of-N) or ``"mean"`` (fio's long-transfer
    average).
    """

    gbps: float
    samples: tuple[float, ...]
    protocol: str = "max"

    def __post_init__(self) -> None:
        if not self.samples:
            raise BenchmarkError("a measurement needs at least one sample")
        if self.protocol not in ("max", "mean"):
            raise BenchmarkError(f"unknown protocol {self.protocol!r}")

    @property
    def value(self) -> float:
        """Unit-agnostic alias for :attr:`gbps` (latency benchmarks store
        nanoseconds in the same protocol container)."""
        return self.gbps

    @property
    def runs(self) -> int:
        """Number of repetitions behind this figure."""
        return len(self.samples)

    @property
    def spread(self) -> float:
        """max - min over the samples (run-to-run dispersion)."""
        return max(self.samples) - min(self.samples)

    @classmethod
    def from_samples(cls, samples, protocol: str = "max") -> "Measurement":
        """Apply ``protocol`` to raw samples."""
        seq = tuple(float(s) for s in samples)
        if not seq:
            raise BenchmarkError("no samples")
        value = max(seq) if protocol == "max" else float(np.mean(seq))
        return cls(gbps=value, samples=seq, protocol=protocol)


@dataclass(frozen=True)
class BandwidthMatrix:
    """An N x N bandwidth matrix (rows: CPU node, columns: MEM node).

    This is the object behind the paper's Fig. 3; ``row(n)`` is the
    CPU-centric model of node ``n`` and ``col(n)`` the memory-centric one
    (Fig. 4).
    """

    node_ids: tuple[int, ...]
    values: np.ndarray
    label: str = "bandwidth (Gbps)"

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        if self.values.shape != (n, n):
            raise BenchmarkError(
                f"matrix shape {self.values.shape} does not match {n} nodes"
            )

    def _index(self, node: int) -> int:
        try:
            return self.node_ids.index(node)
        except ValueError as exc:
            raise BenchmarkError(f"node {node} not in matrix") from exc

    def at(self, cpu_node: int, mem_node: int) -> float:
        """Value for (CPU node, MEM node)."""
        return float(self.values[self._index(cpu_node), self._index(mem_node)])

    def row(self, cpu_node: int) -> dict[int, float]:
        """CPU-centric model: this CPU node against every memory node."""
        i = self._index(cpu_node)
        return {n: float(self.values[i, j]) for j, n in enumerate(self.node_ids)}

    def col(self, mem_node: int) -> dict[int, float]:
        """Memory-centric model: every CPU node against this memory node."""
        j = self._index(mem_node)
        return {n: float(self.values[i, j]) for i, n in enumerate(self.node_ids)}

    def asymmetry(self) -> float:
        """Largest relative |BW(i,j) - BW(j,i)| / max — the paper's
        evidence that the matrix cannot come from an undirected metric."""
        v = self.values
        diff = np.abs(v - v.T)
        scale = np.maximum(v, v.T)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(scale > 0, diff / scale, 0.0)
        return float(rel.max())

    def render(self, digits: int = 2) -> str:
        """Fixed-width text table (CPUn rows, MEMn columns)."""
        width = max(8, digits + 6)
        header = "".join(f"MEM{n}".rjust(width) for n in self.node_ids)
        lines = [f"{self.label}", " " * 6 + header]
        for i, n in enumerate(self.node_ids):
            cells = "".join(f"{self.values[i, j]:.{digits}f}".rjust(width)
                            for j in range(len(self.node_ids)))
            lines.append(f"CPU{n}".ljust(6) + cells)
        return "\n".join(lines)


@dataclass(frozen=True)
class JobResult:
    """Outcome of one fio job.

    ``solver_stats`` is a cumulative snapshot of the executing engine's
    :class:`~repro.obs.stats.SolverStats` taken when the result was
    produced (solve count, cache hit rate, events processed).
    """

    job_name: str
    engine: str
    streams: tuple[tuple[int, int], ...]  # (cpu_node, mem_node) per stream
    per_stream_gbps: dict[str, float]
    aggregate_gbps: float
    duration_s: float
    tags: dict = field(default_factory=dict)
    solver_stats: dict = field(default_factory=dict)

    @property
    def numjobs(self) -> int:
        """Concurrent streams in this job."""
        return len(self.streams)

    def render(self) -> str:
        """One-job summary line plus per-stream detail."""
        lines = [
            f"{self.job_name} ({self.engine}, {self.numjobs} streams): "
            f"{self.aggregate_gbps:.2f} Gbps aggregate over {self.duration_s:.1f} s"
        ]
        for name in sorted(self.per_stream_gbps):
            lines.append(f"  {name}: {self.per_stream_gbps[name]:.2f} Gbps")
        return "\n".join(lines)
