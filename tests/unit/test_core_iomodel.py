"""Algorithm 1 implementation."""

import pytest

from repro.cli.commands import _MACHINES
from repro.core import iomodel
from repro.core.iomodel import IOModelBuilder
from repro.errors import AllocationError, ModelError
from repro.memory.allocator import PageAllocator
from repro.units import MiB


class TestBuilder:
    def test_threads_per_node(self, host):
        assert IOModelBuilder(host).threads_per_node() == 4

    def test_buffer_must_defeat_cache(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host, buffer_bytes=host.params.llc_bytes)

    def test_runs_validated(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host, runs=0)

    def test_measure_pair_protocol(self, host):
        builder = IOModelBuilder(host, runs=25)
        m = builder.measure_pair(0, 7, "write")
        assert m.protocol == "mean"
        assert m.runs == 25
        assert m.gbps == pytest.approx(44.5, rel=0.05)

    def test_measure_pair_mode_validated(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).measure_pair(0, 7, "sideways")

    def test_unknown_target_rejected(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).build(42, "write")

    def test_build_mode_validated(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).build(7, "sideways")

    def test_negative_sigma_rejected(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host, sigma=-0.1)

    @pytest.mark.parametrize("mode", ["write", "read"])
    @pytest.mark.parametrize("name", sorted(_MACHINES))
    def test_vectorized_build_matches_measure_pair_loop(self, name, mode, registry):
        machine = _MACHINES[name]()
        target = machine.node_ids[-1]
        builder = IOModelBuilder(machine, registry=registry, runs=10)
        model = builder.build(target, mode)
        assert model.values == {
            i: builder.measure_pair(i, target, mode).gbps for i in machine.node_ids
        }

    def test_memory_starved_node_fails_the_sweep_like_measure_pair(self, host):
        m = IOModelBuilder(host).threads_per_node()
        starved = min(host.node_ids, key=lambda n: host.node(n).free_bytes)
        roomy = max(host.node_ids, key=lambda n: host.node(n).free_bytes)
        # m buffers overflow the starved node; 2m still fit on the roomy one.
        buffer_bytes = host.node(starved).free_bytes // m + MiB
        assert 2 * m * buffer_bytes <= host.node(roomy).free_bytes
        builder = IOModelBuilder(host, runs=2, buffer_bytes=buffer_bytes)
        builder.measure_pair(roomy, roomy, "write")
        for mode in ("write", "read"):
            with pytest.raises(AllocationError):
                builder.measure_pair(starved, roomy, mode)
            with pytest.raises(AllocationError):
                builder.build_many((roomy,), mode)

    def test_sweep_shares_one_allocator_and_frees_every_page(
        self, host, registry, monkeypatch
    ):
        made = []

        class RecordingAllocator(PageAllocator):
            def __init__(self, machine):
                super().__init__(machine)
                made.append(self)

        monkeypatch.setattr(iomodel, "PageAllocator", RecordingAllocator)
        IOModelBuilder(host, registry=registry, runs=2).build_many((0, 7), "read")
        (allocator,) = made
        for n in host.node_ids:
            assert allocator.free_bytes(n) == host.node(n).free_bytes

    def test_build_many_matches_single_builds(self, host, registry):
        builder = IOModelBuilder(host, registry=registry, runs=10)
        swept = builder.build_many((0, 7), "write")
        assert sorted(swept) == [0, 7]
        for target in (0, 7):
            assert swept[target].values == builder.build(target, "write").values

    def test_build_many_unknown_target_rejected(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).build_many((7, 42), "write")


class TestModels:
    def test_write_model_matches_paper(self, host, registry):
        model = IOModelBuilder(host, registry=registry, runs=20).build(7, "write")
        assert [sorted(c.node_ids) for c in model.classes] == [
            [6, 7], [0, 1, 4, 5], [2, 3]
        ]
        assert model.mode == "write"
        assert model.threads == 4

    def test_read_model_matches_paper(self, host, registry):
        model = IOModelBuilder(host, registry=registry, runs=20).build(7, "read")
        assert [sorted(c.node_ids) for c in model.classes] == [
            [6, 7], [2, 3], [0, 1, 5], [4]
        ]

    def test_build_both(self, host, registry):
        write, read = IOModelBuilder(host, registry=registry, runs=5).build_both(7)
        assert write.mode == "write"
        assert read.mode == "read"

    def test_deterministic(self, host):
        a = IOModelBuilder(host, runs=10).build(7, "write").values
        b = IOModelBuilder(host, runs=10).build(7, "write").values
        assert a == b

    def test_generalises_to_other_targets(self, host, registry):
        # §V-B: "The methodology ... can also be generalized to other
        # nodes in the host."
        model = IOModelBuilder(host, registry=registry, runs=5).build(0, "write")
        assert 0 in model.class_by_rank(1).node_ids
        assert 1 in model.class_by_rank(1).node_ids

    def test_no_device_consulted(self, registry):
        # The methodology must work on a device-free machine.
        from repro.topology.builders import reference_host

        bare = reference_host(with_devices=False)
        model = IOModelBuilder(bare, registry=registry, runs=5).build(7, "read")
        assert [sorted(c.node_ids) for c in model.classes] == [
            [6, 7], [2, 3], [0, 1, 5], [4]
        ]
