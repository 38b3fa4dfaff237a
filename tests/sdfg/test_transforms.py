"""Tests for the transformation passes."""

import pytest

from repro.hw.memory import Storage
from repro.sdfg import Schedule, Sym, program, validate
from repro.sdfg.frontend import float64, int32
from repro.sdfg.libnodes.mpi import MPIIsend, MPIWaitall
from repro.sdfg.libnodes.nvshmem import PutmemSignal, SignalWait
from repro.sdfg.programs import (
    CONJUGATES_1D,
    CONJUGATES_2D,
    build_jacobi_1d_sdfg,
    build_jacobi_2d_sdfg,
    baseline_pipeline,
    cpufree_pipeline,
)
from repro.sdfg.transforms import (
    OverlapTransformError,
    auto_overlap,
    gpu_persistent_kernel,
    gpu_transform,
    map_fusion,
    mpi_to_nvshmem,
    nvshmem_array,
)
from repro.sdfg.transforms.mpi_to_nvshmem import FLAGS_ARRAY, MPIToNVSHMEMError
from repro.sdfg.transforms.persistent import PersistentTransformError
from repro.sdfg.validation import SDFGValidationError

N = Sym("N")


class TestGPUTransform:
    def test_states_and_storage_moved(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        assert all(s.schedule is Schedule.GPU_DEVICE for s in sdfg.walk_states())
        assert sdfg.arrays["A"].storage is Storage.GLOBAL

    def test_idempotent(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        gpu_transform(sdfg)
        assert sdfg.arrays["A"].storage is Storage.GLOBAL


class TestMapFusion:
    def test_fuses_identical_range_elementwise_states(self):
        @program
        def two_maps(A: float64[N], B: float64[N], C: float64[N]):
            B[1:-1] = A[1:-1] * 2
            C[1:-1] = A[1:-1] + 1

        sdfg = two_maps.to_sdfg()
        assert map_fusion(sdfg) == 1
        states = list(sdfg.walk_states())
        assert len(states) == 1
        assert len(states[0].tasklets) == 2
        validate(sdfg)

    def test_no_fusion_across_different_ranges(self):
        @program
        def two_maps(A: float64[N], B: float64[N], C: float64[N]):
            B[1:-1] = A[1:-1] * 2
            C[2:-2] = A[2:-2] + 1

        sdfg = two_maps.to_sdfg()
        assert map_fusion(sdfg) == 0
        assert len(list(sdfg.walk_states())) == 2

    def test_no_fusion_across_library_nodes(self):
        sdfg = build_jacobi_1d_sdfg()
        # compute states are separated by comm states -> nothing fuses
        assert map_fusion(sdfg) == 0

    def test_pointwise_chain_fuses(self):
        @program
        def chain(A: float64[N], B: float64[N], C: float64[N]):
            B[1:-1] = A[1:-1] * 2
            C[1:-1] = B[1:-1] + 1  # reads exactly what the first wrote

        sdfg = chain.to_sdfg()
        assert map_fusion(sdfg) == 1

    def test_offset_dependency_does_not_fuse(self):
        @program
        def stencil_chain(A: float64[N], B: float64[N], C: float64[N]):
            B[1:-1] = A[1:-1] * 2
            C[1:-1] = B[:-2] + B[2:]  # neighborhood read: fusing is illegal

        sdfg = stencil_chain.to_sdfg()
        assert map_fusion(sdfg) == 0


class TestMPIToNVSHMEM:
    def test_jacobi_1d_lowering(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        nodes = [n for s in sdfg.walk_states() for n in s.library_nodes]
        puts = [n for n in nodes if isinstance(n, PutmemSignal)]
        waits = [n for n in nodes if isinstance(n, SignalWait)]
        assert len(puts) == 4 and len(waits) == 4
        assert not any(isinstance(n, (MPIIsend, MPIWaitall)) for n in nodes)
        assert FLAGS_ARRAY in sdfg.arrays
        assert sdfg.arrays[FLAGS_ARRAY].shape == (4,)

    def test_flags_are_unique_per_pair(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        nodes = [n for s in sdfg.walk_states() for n in s.library_nodes]
        put_flags = sorted(n.flag_index for n in nodes if isinstance(n, PutmemSignal))
        wait_flags = sorted(n.flag_index for n in nodes if isinstance(n, SignalWait))
        assert put_flags == [0, 1, 2, 3]
        assert wait_flags == [0, 1, 2, 3]

    def test_put_destination_comes_from_conjugate_recv(self):
        """Isend(A[1], nw) must land at the peer's A[N-1] (their Irecv
        from ne)."""
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        puts = [n for s in sdfg.walk_states() for n in s.library_nodes
                if isinstance(n, PutmemSignal)]
        first = puts[0]  # was Isend(A[1], nw, 2)
        assert first.pe == "nw"
        assert repr(first.dst).startswith("A[")
        assert "(N - 1)" in repr(first.dst)

    def test_signal_value_is_loop_variable(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        puts = [n for s in sdfg.walk_states() for n in s.library_nodes
                if isinstance(n, PutmemSignal)]
        assert all(p.signal_value == Sym("t") for p in puts)

    def test_waits_remember_peer_param(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        waits = [n for s in sdfg.walk_states() for n in s.library_nodes
                 if isinstance(n, SignalWait)]
        assert {w.peer_param for w in waits} == {"nw", "ne"}

    def test_unmatched_send_raises(self):
        @program
        def lonely(A: float64[N], TSTEPS: int32, nw: int32, ne: int32):
            for t in range(1, TSTEPS):
                comm.Isend(A[1], nw, 2)  # noqa: F821
                A[1:-1] = A[1:-1]

        sdfg = lonely.to_sdfg()
        gpu_transform(sdfg)
        with pytest.raises(MPIToNVSHMEMError, match="no conjugate"):
            mpi_to_nvshmem(sdfg, CONJUGATES_1D)

    def test_non_involution_conjugates_rejected(self):
        sdfg = build_jacobi_1d_sdfg()
        with pytest.raises(MPIToNVSHMEMError, match="involution"):
            mpi_to_nvshmem(sdfg, {"nw": "ne", "ne": "nw2", "nw2": "ne"})

    def test_no_comm_program_untouched(self):
        @program
        def pure(A: float64[N], TSTEPS: int32):
            for t in range(1, TSTEPS):
                A[1:-1] = A[1:-1] + 1

        sdfg = pure.to_sdfg()
        mpi_to_nvshmem(sdfg, {})
        assert FLAGS_ARRAY not in sdfg.arrays


class TestNVSHMEMArray:
    def test_touched_arrays_become_symmetric(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        nvshmem_array(sdfg)
        assert sdfg.arrays["A"].storage is Storage.SYMMETRIC
        assert sdfg.arrays["B"].storage is Storage.SYMMETRIC

    def test_untouched_arrays_stay_global(self):
        @program
        def partial(A: float64[N], C: float64[N], TSTEPS: int32, nw: int32, ne: int32):
            for t in range(1, TSTEPS):
                comm.Isend(A[1], nw, 2)      # noqa: F821
                comm.Irecv(A[N - 1], ne, 2)  # noqa: F821
                comm.Waitall()               # noqa: F821
                C[1:-1] = A[1:-1] + 1

        sdfg = partial.to_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        nvshmem_array(sdfg)
        assert sdfg.arrays["A"].storage is Storage.SYMMETRIC
        assert sdfg.arrays["C"].storage is Storage.GLOBAL

    def test_validation_requires_symmetric(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        with pytest.raises(SDFGValidationError, match="NVSHMEMArray"):
            validate(sdfg)


class TestPersistent:
    def test_loop_scheduled_persistent(self):
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        loop = sdfg.loop_regions()[0]
        assert loop.schedule is Schedule.GPU_PERSISTENT
        assert all(s.schedule is Schedule.GPU_PERSISTENT for s in loop.walk_states())

    def test_requires_gpu_transform_first(self):
        sdfg = build_jacobi_1d_sdfg()
        with pytest.raises(PersistentTransformError, match="gpu_transform"):
            gpu_persistent_kernel(sdfg)

    def test_requires_loop(self):
        @program
        def flat(A: float64[N]):
            A[1:-1] = A[1:-1]

        sdfg = flat.to_sdfg()
        gpu_transform(sdfg)
        with pytest.raises(PersistentTransformError, match="no loop"):
            gpu_persistent_kernel(sdfg)

    def test_persistent_with_mpi_fails_validation(self):
        sdfg = build_jacobi_1d_sdfg()
        gpu_transform(sdfg)
        gpu_persistent_kernel(sdfg)
        with pytest.raises(SDFGValidationError, match="MPIToNVSHMEM"):
            validate(sdfg)

    def test_relaxed_barriers_fewer_than_conservative(self):
        relaxed = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        conservative = build_jacobi_1d_sdfg()
        gpu_transform(conservative)
        mpi_to_nvshmem(conservative, CONJUGATES_1D)
        nvshmem_array(conservative)
        gpu_persistent_kernel(conservative, relax_barriers=False)

        def count_syncs(sdfg):
            return sum(
                1 for s in sdfg.walk_states() if getattr(s, "sync_after", False)
            )

        assert count_syncs(relaxed) < count_syncs(conservative)

    def test_back_edge_always_synchronizes(self):
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        loop = sdfg.loop_regions()[0]
        from repro.sdfg.graph import State
        states = [el for el in loop.elements if isinstance(el, State)]
        assert states[-1].sync_after


class TestAutoOverlap:
    def test_rewrites_jacobi_1d_after_full_pipeline(self):
        """persistent -> overlap ordering: the pass applies on top of
        the fully lowered cpufree pipeline and re-relaxes barriers."""
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        before = len(list(sdfg.walk_states()))
        assert auto_overlap(sdfg, chunks=3) == 1
        validate(sdfg)
        loop = sdfg.loop_regions()[0]
        assert loop.schedule is Schedule.GPU_PERSISTENT
        assert all(s.schedule is Schedule.GPU_PERSISTENT
                   for s in loop.walk_states())
        # top + bottom + 3 interior chunks replace the one compute map;
        # the two eager puts are relocated, not duplicated
        assert len(list(sdfg.walk_states())) == before + 4
        from repro.sdfg.graph import State
        states = [el for el in loop.elements if isinstance(el, State)]
        assert states[-1].sync_after  # back edge still synchronizes
        groups = {getattr(s, "overlap_group", None) for s in states}
        assert len(groups - {None}) == 1

    def test_chunks_within_group_skip_barriers(self):
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        auto_overlap(sdfg, chunks=4)
        loop = sdfg.loop_regions()[0]
        from repro.sdfg.graph import State
        states = [el for el in loop.elements if isinstance(el, State)]
        grouped = [s for s in states
                   if getattr(s, "overlap_group", None) is not None]
        # every grouped state except the group's last runs barrier-free
        assert not any(s.sync_after for s in grouped[:-1])

    def test_map_fusion_then_overlap(self):
        """map_fusion -> overlap ordering: a fused multi-tasklet map
        with an eager boundary put still tiles."""

        @program
        def fused(A: float64[N], B: float64[N], C: float64[N],
                  TSTEPS: int32, nw: int32, ne: int32):
            for t in range(1, TSTEPS):
                B[1:-1] = A[1:-1] * 2
                C[1:-1] = A[1:-1] + 1
                comm.Isend(B[1], nw, 2)      # noqa: F821
                comm.Irecv(B[N - 1], ne, 2)  # noqa: F821
                comm.Waitall()               # noqa: F821

        sdfg = fused.to_sdfg()
        gpu_transform(sdfg)
        assert map_fusion(sdfg) == 1
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        nvshmem_array(sdfg)
        assert auto_overlap(sdfg, chunks=2) == 1
        gpu_persistent_kernel(sdfg)
        validate(sdfg)

    def test_non_tileable_map_refused_with_named_error(self):
        """No-op guarantee: a map outside the affine subset is refused
        loudly, never silently rewritten."""

        @program
        def clamped(A: float64[N], B: float64[N],
                    TSTEPS: int32, nw: int32, ne: int32):
            for t in range(1, TSTEPS):
                B[1:-1] = np.maximum(A[1:-1], A[2:])  # noqa: F821
                comm.Isend(B[1], nw, 2)      # noqa: F821
                comm.Irecv(B[N - 1], ne, 2)  # noqa: F821
                comm.Waitall()               # noqa: F821

        sdfg = clamped.to_sdfg()
        gpu_transform(sdfg)
        mpi_to_nvshmem(sdfg, CONJUGATES_1D)
        nvshmem_array(sdfg)
        described = sdfg.describe()
        with pytest.raises(OverlapTransformError, match="non-tileable"):
            auto_overlap(sdfg, chunks=2)
        assert sdfg.describe() == described  # graph untouched on refusal

    def test_requires_a_loop(self):
        @program
        def flat(A: float64[N]):
            A[1:-1] = A[1:-1]

        sdfg = flat.to_sdfg()
        with pytest.raises(OverlapTransformError, match="no loop"):
            auto_overlap(sdfg, chunks=2)

    def test_requires_an_overlappable_map(self):
        @program
        def pure(A: float64[N], TSTEPS: int32):
            for t in range(1, TSTEPS):
                A[1:-1] = A[1:-1] + 1

        sdfg = pure.to_sdfg()
        with pytest.raises(OverlapTransformError, match="no overlappable"):
            auto_overlap(sdfg, chunks=2)

    def test_rejects_bad_chunk_count(self):
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        with pytest.raises(OverlapTransformError, match="chunk"):
            auto_overlap(sdfg, chunks=0)

    def test_2d_pipeline_composes(self):
        sdfg = cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D)
        assert auto_overlap(sdfg, chunks=2) == 1
        validate(sdfg)

    def test_executor_results_bit_identical(self):
        """The rewritten SDFG computes exactly what the original does."""
        import numpy as np
        from repro.hw import HGX_A100_8GPU
        from repro.runtime import MultiGPUContext
        from repro.sdfg.codegen import SDFGExecutor
        from repro.sdfg.distributed import SlabDecomposition1D
        from repro.sim import Tracer

        rng = np.random.default_rng(11)
        u0 = rng.random(26)
        decomp = SlabDecomposition1D(24, 3)

        def run(overlapped):
            sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
            if overlapped:
                auto_overlap(sdfg, chunks=3)
            ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(3), tracer=Tracer())
            report = SDFGExecutor(sdfg, ctx).run(decomp.rank_args(u0, 6))
            return decomp.gather(report.arrays, u0)

        np.testing.assert_array_equal(run(False), run(True))


class TestFullPipelines:
    def test_baseline_pipeline_validates(self):
        validate(baseline_pipeline(build_jacobi_1d_sdfg()))
        validate(baseline_pipeline(build_jacobi_2d_sdfg()))

    def test_cpufree_pipeline_validates(self):
        validate(cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D))
        validate(cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D))

    def test_2d_lowering_has_8_flag_pairs(self):
        sdfg = cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D)
        assert sdfg.arrays[FLAGS_ARRAY].shape == (8,)
