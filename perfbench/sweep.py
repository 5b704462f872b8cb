"""``sweep_64n``: repeated Algorithm 1 sweeps over a 64-node host.

In-process and single-threaded: ``HostCharacterizer.characterize_many``
(both modes, 100 runs per probe) over every target of
``scaled_host(32)``, with ``reset_sessions()`` before each sweep as a
fresh CLI would.  The routing -> solver -> core path under a working
set far larger than the 8-node reference host; no import, no serving.
The seed picks the measurement-noise registry seed, so each seed is a
different (deterministic) input.
"""

from __future__ import annotations

import hashlib
import time

from common import median, probe_times, self_peak_rss_mb

PACKAGES = 32  # scaled_host(32): 64 NUMA nodes
RUNS = 100
SETUP_PROBE = (
    "import time; t = time.perf_counter(); "
    "from repro.core.characterize import HostCharacterizer; "
    "from repro.rng import RngRegistry; "
    "from repro.solver import reset_sessions; "
    "from repro.topology.builders import scaled_host; "
    f"scaled_host({PACKAGES}); print(repr(time.perf_counter() - t))"
)


def registry_seed(seed: int) -> int:
    return 1000 + seed


def render(results: dict, targets) -> str:
    """What ``iomodel --targets all`` prints for the sweep."""
    return "\n\n".join(results[t].render() for t in targets)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_check(machine, seed: int, results: dict) -> "str | None":
    """The batched sweep must equal node-by-node Algorithm 1.

    One seeded target and mode is re-measured with
    ``IOModelBuilder.measure_pair`` per node (the unbatched reference
    path); values must match bit for bit.
    """
    import random

    from repro.core.iomodel import IOModelBuilder
    from repro.rng import RngRegistry

    rng = random.Random(seed)
    target = rng.choice(list(machine.node_ids))
    mode = rng.choice(("write", "read"))
    builder = IOModelBuilder(
        machine, registry=RngRegistry(registry_seed(seed)), runs=RUNS
    )
    model = getattr(results[target], f"{mode}_model")
    for node in machine.node_ids:
        value = builder.measure_pair(node, target, mode).gbps
        if value != model.values[node]:
            return (
                f"target {target} {mode}: node {node} batched "
                f"{model.values[node]!r} != per-pair {value!r}"
            )
    return None


def sweep_once(machine, seed: int):
    from repro.core.characterize import HostCharacterizer
    from repro.rng import RngRegistry
    from repro.solver import reset_sessions

    reset_sessions()
    characterizer = HostCharacterizer(
        machine, registry=RngRegistry(registry_seed(seed)), runs=RUNS
    )
    return characterizer.characterize_many(tuple(machine.node_ids))


def run(seed: int, seconds: float, setups: int = 5) -> dict:
    setup = probe_times(SETUP_PROBE, setups)
    from repro.topology.builders import scaled_host

    machine = scaled_host(PACKAGES)
    targets = tuple(machine.node_ids)
    first = sweep_once(machine, seed)  # warm-up and the recorded digest
    expected = digest(render(first, targets))
    wrong = []
    problem = reference_check(machine, seed, first)
    if problem is not None:
        wrong.append(problem)
    walls = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(walls) < 3:
        t0 = time.perf_counter()
        results = sweep_once(machine, seed)
        text = render(results, targets)
        walls.append(time.perf_counter() - t0)
        if digest(text) != expected:
            wrong.append(f"sweep {len(walls)}: output digest changed")
    return {
        "setup_s": median(setup),
        "setup_samples_s": setup,
        "op_s": walls,
        "ops_per_s": len(targets) * len(walls) / sum(walls),
        "peak_rss_mb": self_peak_rss_mb(),
        "attempted": len(walls),
        "failed": 0,
        "wrong": wrong,
        "digest": expected,
    }
