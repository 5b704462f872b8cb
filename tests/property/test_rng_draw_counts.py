"""RNG draw accounting invariants.

The :class:`~repro.rng.CountingGenerator` wrapper must be invisible to
the numbers (sequences bit-identical to a bare generator) while its
accounting must be *path-independent*: Algorithm 1 run pair-by-pair
(:meth:`IOModelBuilder.measure_pair` in a loop) and as a vectorized
sweep (:meth:`IOModelBuilder.build_many`) draw the same named streams
the same number of times — that equality is what makes the run-manifest
seed block trustworthy as a determinism fingerprint.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iomodel import IOModelBuilder
from repro.rng import DEFAULT_SEED, RngRegistry
from repro.topology.builders import reference_host, scaled_host

hosts = st.builds(
    scaled_host,
    n_packages=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=20),
)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.text(min_size=1, max_size=30),
    n=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=50, deadline=None)
def test_counting_wrapper_preserves_sequences(seed, name, n):
    counted = RngRegistry(seed).stream(name)
    bare = np.random.Generator(np.random.PCG64(counted.bit_generator.seed_seq))
    assert (counted.standard_normal(n) == bare.standard_normal(n)).all()
    assert counted.uniform() == bare.uniform()
    assert (counted.integers(0, 100, size=n) == bare.integers(0, 100, size=n)).all()


@given(
    name=st.text(min_size=1, max_size=20),
    shape=st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=10),
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
    ),
)
@settings(max_examples=50, deadline=None)
def test_draw_counts_match_values_produced(name, shape):
    registry = RngRegistry(3)
    out = np.asarray(registry.stream(name).normal(size=shape))
    expected = 1 if shape is None else out.size  # size=None draws one scalar
    assert registry.draw_counts == {name: expected}


@given(hosts, st.sampled_from(["write", "read"]), st.integers(min_value=1, max_value=8))
@settings(max_examples=12, deadline=None)
def test_build_many_draws_match_per_pair_loop(machine, mode, runs):
    """The vectorized sweep and the pair loop have identical draw ledgers."""
    from repro.solver import reset_sessions

    target = machine.node_ids[-1]

    reset_sessions()
    loop_registry = RngRegistry(DEFAULT_SEED)
    loop_builder = IOModelBuilder(machine, registry=loop_registry, runs=runs)
    for other in machine.node_ids:
        loop_builder.measure_pair(other, target, mode)

    reset_sessions()
    sweep_registry = RngRegistry(DEFAULT_SEED)
    sweep_builder = IOModelBuilder(machine, registry=sweep_registry, runs=runs)
    sweep_builder.build_many((target,), mode)

    assert loop_registry.draw_counts == sweep_registry.draw_counts
    assert sum(loop_registry.draw_counts.values()) == machine.n_nodes * runs
    reset_sessions()


def test_zero_sigma_sweep_draws_nothing():
    """sigma=0 skips noise generation on both paths — and the ledger shows it."""
    machine = reference_host()
    registry = RngRegistry(DEFAULT_SEED)
    builder = IOModelBuilder(machine, registry=registry, runs=5, sigma=0.0)
    builder.build_many((machine.node_ids[-1],), "write")
    assert registry.draw_counts == {}


def test_draws_land_in_metrics_when_recording():
    from repro.obs import MetricsRegistry, TraceRecorder
    from repro.obs import recorder as obs

    registry = RngRegistry(5)
    recorder = TraceRecorder(MetricsRegistry())
    obs.install(recorder)
    try:
        registry.stream("noise/a").standard_normal(4)
        registry.stream("noise/b").uniform()
    finally:
        obs.uninstall()
    assert recorder.metrics.counters == {
        "rng.draws/noise/a": 4,
        "rng.draws/noise/b": 1,
    }
    # The per-registry ledger counts regardless of recording state.
    registry.stream("noise/a").standard_normal(2)
    assert registry.draw_counts == {"noise/a": 6, "noise/b": 1}
