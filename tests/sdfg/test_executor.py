"""End-to-end executor tests: generated programs vs NumPy references."""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sdfg.codegen import SDFGExecutor
from repro.sdfg.distributed import GridDecomposition2D, SlabDecomposition1D
from repro.sdfg.programs import (
    CONJUGATES_1D,
    CONJUGATES_2D,
    baseline_pipeline,
    build_jacobi_1d_sdfg,
    build_jacobi_2d_sdfg,
    cpufree_pipeline,
)
from repro.sim import Tracer


def ref_1d(u0, tsteps):
    A, B = np.array(u0), np.array(u0)
    for _ in range(1, tsteps):
        B[1:-1] = (A[:-2] + A[1:-1] + A[2:]) / 3.0
        A[1:-1] = (B[:-2] + B[1:-1] + B[2:]) / 3.0
    return A


def ref_2d(u0, tsteps):
    A, B = np.array(u0), np.array(u0)
    for _ in range(1, tsteps):
        B[1:-1, 1:-1] = 0.25 * (A[:-2, 1:-1] + A[2:, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:])
        A[1:-1, 1:-1] = 0.25 * (B[:-2, 1:-1] + B[2:, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:])
    return A


def ref_3d(u0, tsteps):
    A, B = np.array(u0), np.array(u0)
    for _ in range(1, tsteps):
        B[1:-1, 1:-1, 1:-1] = (
            A[:-2, 1:-1, 1:-1] + A[2:, 1:-1, 1:-1]
            + A[1:-1, :-2, 1:-1] + A[1:-1, 2:, 1:-1]
            + A[1:-1, 1:-1, :-2] + A[1:-1, 1:-1, 2:]
        ) / 6.0
        A[1:-1, 1:-1, 1:-1] = (
            B[:-2, 1:-1, 1:-1] + B[2:, 1:-1, 1:-1]
            + B[1:-1, :-2, 1:-1] + B[1:-1, 2:, 1:-1]
            + B[1:-1, 1:-1, :-2] + B[1:-1, 1:-1, 2:]
        ) / 6.0
    return A


def run_1d(pipeline_kind, n_global=24, ranks=3, tsteps=6):
    rng = np.random.default_rng(7)
    u0 = rng.random(n_global + 2)
    if pipeline_kind == "baseline":
        sdfg = baseline_pipeline(build_jacobi_1d_sdfg())
    else:
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
    decomp = SlabDecomposition1D(n_global, ranks)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(max(ranks, 1)), tracer=Tracer())
    report = SDFGExecutor(sdfg, ctx).run(decomp.rank_args(u0, tsteps))
    return decomp.gather(report.arrays, u0), ref_1d(u0, tsteps), report


def run_2d(pipeline_kind, gy=16, gx=12, ranks=4, tsteps=5):
    rng = np.random.default_rng(8)
    u0 = rng.random((gy + 2, gx + 2))
    if pipeline_kind == "baseline":
        sdfg = baseline_pipeline(build_jacobi_2d_sdfg())
    else:
        sdfg = cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D)
    decomp = GridDecomposition2D(gy, gx, ranks)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
    report = SDFGExecutor(sdfg, ctx).run(decomp.rank_args(u0, tsteps))
    return decomp.gather(report.arrays, u0), ref_2d(u0, tsteps), report


class TestJacobi1D:
    @pytest.mark.parametrize("kind", ["baseline", "cpufree"])
    def test_matches_reference(self, kind):
        got, expected, _ = run_1d(kind)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["baseline", "cpufree"])
    def test_two_ranks(self, kind):
        got, expected, _ = run_1d(kind, n_global=10, ranks=2, tsteps=4)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["baseline", "cpufree"])
    def test_single_rank_proc_null_everywhere(self, kind):
        got, expected, _ = run_1d(kind, n_global=8, ranks=1, tsteps=3)
        np.testing.assert_array_equal(got, expected)

    def test_cpufree_faster_than_baseline(self):
        _, _, base = run_1d("baseline", tsteps=20)
        _, _, free = run_1d("cpufree", tsteps=20)
        assert free.total_time_us < base.total_time_us

    def test_cpufree_single_launch(self):
        _, _, report = run_1d("cpufree", ranks=3, tsteps=10)
        launches = [s for s in report.tracer.spans_in("api") if s.name.startswith("launch")]
        assert len(launches) == 3  # one per rank

    def test_baseline_launches_per_state_per_iteration(self):
        _, _, report = run_1d("baseline", ranks=2, tsteps=4)
        launches = [s for s in report.tracer.spans_in("api") if s.name.startswith("launch")]
        # 2 compute states x 3 loop iterations x 2 ranks
        assert len(launches) == 2 * 3 * 2


class TestJacobi2D:
    @pytest.mark.parametrize("kind", ["baseline", "cpufree"])
    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_matches_reference_all_grid_shapes(self, kind, ranks):
        # 2 ranks -> 2x1 grid, 8 -> 4x2 (the rectangular splits of Fig 6.3b)
        got, expected, _ = run_2d(kind, gy=16, gx=12, ranks=ranks, tsteps=4)
        np.testing.assert_array_equal(got, expected)

    def test_cpufree_massively_faster_with_strided_comm(self):
        """Fig 6.3b: the baseline pays MPI_Type_vector + stream syncs on
        every strided halo; CPU-Free uses device-side iput."""
        _, _, base = run_2d("baseline", ranks=4, tsteps=10)
        _, _, free = run_2d("cpufree", ranks=4, tsteps=10)
        improvement = (base.total_time_us - free.total_time_us) / base.total_time_us
        assert improvement > 0.5

    def test_baseline_comm_dominates(self):
        """Fig 6.3b: baseline 'almost completely dominated by
        communication'."""
        _, _, base = run_2d("baseline", ranks=4, tsteps=10)
        assert base.comm_time_us + base.api_time_us + base.sync_time_us > 0.5 * base.total_time_us

    @pytest.mark.parametrize("options, seed, tsteps", [
        ({"nbi": False}, 11, 4),             # §5.3.2 blocking puts
        ({"specialize_comm": True}, 5, 5),   # §5.4 TB-specialized kernel
    ])
    def test_pipeline_options_bit_equal_to_default(self, options, seed, tsteps):
        """The blocking-put and TB-specialized expansions change timing
        only: their arrays equal the default CPU-Free pipeline's."""
        gy, gx, ranks = 16, 24, 8
        u0 = np.random.default_rng(seed).random((gy + 2, gx + 2))
        decomp = GridDecomposition2D(gy, gx, ranks)
        results = []
        for opts in ({}, options):
            sdfg = cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D, **opts)
            ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
            report = SDFGExecutor(sdfg, ctx).run(decomp.rank_args(u0, tsteps))
            results.append(decomp.gather(report.arrays, u0))
        np.testing.assert_array_equal(*results)


class TestTimingOnlyMode:
    def test_same_time_without_data(self):
        rng = np.random.default_rng(9)
        u0 = rng.random(26)
        decomp = SlabDecomposition1D(24, 3)
        args = decomp.rank_args(u0, 6)

        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(3), tracer=Tracer())
        with_data = SDFGExecutor(sdfg, ctx).run(args)

        sdfg2 = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        ctx2 = MultiGPUContext(HGX_A100_8GPU.scaled_to(3), tracer=Tracer())
        timing = SDFGExecutor(sdfg2, ctx2, with_data=False).run(args)

        assert timing.arrays is None
        assert timing.total_time_us == pytest.approx(with_data.total_time_us)

    def test_report_iteration_count(self):
        _, _, report = run_1d("cpufree", tsteps=6)
        assert report.iterations == 5  # range(1, 6)
        assert report.per_iteration_us == pytest.approx(report.total_time_us / 5)
