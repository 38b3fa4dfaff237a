"""Vectorized-map specialization vs the scalar fallback.

The contract: for every affine stencil tasklet the vectorized
(whole-map NumPy slice) execution must be bit-identical to the
codegen-faithful scalar loop, on the real 1D/2D/3D Jacobi SDFGs and
every compiler pipeline.
"""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sdfg.codegen import MapMode, SDFGExecutor, specialize_maps
from repro.sdfg.codegen.fastpath import plan_state
from repro.sdfg.distributed import (
    GridDecomposition2D,
    SlabDecomposition1D,
    SlabDecomposition3D,
)
from repro.sdfg.frontend import float64, int32, program
from repro.sdfg.programs import (
    CONJUGATES_1D,
    CONJUGATES_2D,
    baseline_pipeline,
    build_jacobi_1d_sdfg,
    build_jacobi_2d_sdfg,
    build_jacobi_3d_sdfg,
    cpufree_pipeline,
)
from repro.sdfg.symbols import Sym
from repro.sdfg.transforms import auto_overlap
from repro.sdfg.validation import validate
from repro.sim import Tracer


def _final_arrays(sdfg, rank_args, num_gpus, fastpath):
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(num_gpus), tracer=Tracer())
    report = SDFGExecutor(sdfg, ctx, fastpath=fastpath).run(rank_args)
    return report.arrays


def _assert_modes_identical(build, args, ranks):
    """Run the same program under both modes; arrays must be
    bit-identical."""
    vector = _final_arrays(build(), args, ranks, "vector")
    scalar = _final_arrays(build(), args, ranks, "scalar")
    for rank, (got, want) in enumerate(zip(scalar, vector)):
        for name in want:
            np.testing.assert_array_equal(
                got[name], want[name],
                err_msg=f"scalar diverged from vector: rank {rank}, array {name}",
            )


class TestJacobiBitIdentical:
    def test_jacobi_1d(self):
        rng = np.random.default_rng(11)
        u0 = rng.random(20)
        decomp = SlabDecomposition1D(18, 3)
        args = decomp.rank_args(u0, 5)
        _assert_modes_identical(
            lambda: baseline_pipeline(build_jacobi_1d_sdfg()), args, 3)

    def test_jacobi_1d_cpufree(self):
        rng = np.random.default_rng(12)
        u0 = rng.random(14)
        decomp = SlabDecomposition1D(12, 2)
        args = decomp.rank_args(u0, 4)
        _assert_modes_identical(
            lambda: cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D), args, 2)

    def test_jacobi_2d(self):
        rng = np.random.default_rng(13)
        u0 = rng.random((10, 10))
        decomp = GridDecomposition2D(8, 8, 4)
        args = decomp.rank_args(u0, 4)
        _assert_modes_identical(
            lambda: cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D), args, 4)

    def test_jacobi_3d(self):
        rng = np.random.default_rng(14)
        u0 = rng.random((8, 8, 8))
        decomp = SlabDecomposition3D(6, 6, 2)
        args = decomp.rank_args(u0, 3)
        _assert_modes_identical(
            lambda: cpufree_pipeline(build_jacobi_3d_sdfg(), CONJUGATES_1D), args, 2)


#: the three compile programs: (builder, conjugates, initial field, decomposition)
_PROGRAMS = {
    "jacobi_1d": (build_jacobi_1d_sdfg, CONJUGATES_1D, (34,),
                  lambda ranks: SlabDecomposition1D(32, ranks)),
    "jacobi_2d": (build_jacobi_2d_sdfg, CONJUGATES_2D, (18, 18),
                  lambda ranks: GridDecomposition2D(16, 16, ranks)),
    "jacobi_3d": (build_jacobi_3d_sdfg, CONJUGATES_1D, (18, 10, 10),
                  lambda ranks: SlabDecomposition3D(16, 8, ranks)),
}


def _pipelined(program, pipeline):
    build, conjugates, _, _ = _PROGRAMS[program]
    if pipeline == "baseline":
        return baseline_pipeline(build())
    if pipeline.startswith("auto_overlap_"):
        sdfg = cpufree_pipeline(build(), conjugates)
        auto_overlap(sdfg, chunks=int(pipeline.rsplit("_", 1)[1]))
        validate(sdfg)
        return sdfg
    options = {"cpufree_nbi": {}, "cpufree_blocking": {"nbi": False},
               "cpufree_specialized": {"specialize_comm": True}}[pipeline]
    return cpufree_pipeline(build(), conjugates, **options)


@pytest.mark.parametrize("ranks", [4, 8])
@pytest.mark.parametrize("pipeline", [
    "baseline", "cpufree_nbi", "cpufree_blocking", "cpufree_specialized",
    "auto_overlap_2", "auto_overlap_4",
])
@pytest.mark.parametrize("program", sorted(_PROGRAMS))
def test_every_pipeline_scalar_matches_vector(program, pipeline, ranks):
    """Scalar and vector executor arrays are bit-identical on every
    program x pipeline the ``compile`` benchmark workload runs."""
    _, _, shape, decomposition = _PROGRAMS[program]
    u0 = np.random.default_rng(ranks).random(shape)
    args = decomposition(ranks).rank_args(u0, 4)
    _assert_modes_identical(lambda: _pipelined(program, pipeline), args, ranks)


class TestSpecializationPass:
    @pytest.mark.parametrize("build", [
        build_jacobi_1d_sdfg, build_jacobi_2d_sdfg, build_jacobi_3d_sdfg,
    ])
    def test_all_jacobi_maps_vectorize(self, build):
        sdfg = baseline_pipeline(build())
        counts = specialize_maps(sdfg)
        assert counts[MapMode.VECTORIZED.value] >= 2
        assert counts[MapMode.GENERIC.value] == 0

    def test_plans_cached_on_state(self):
        sdfg = baseline_pipeline(build_jacobi_1d_sdfg())
        state = next(s for s in sdfg.walk_states() if s.tasklets)
        assert plan_state(state, sdfg) is plan_state(state, sdfg)

    def test_nonaffine_falls_back_to_generic(self):
        N = Sym("N")

        @program
        def expsum(A: float64[N], B: float64[N], TSTEPS: int32):
            for t in range(1, TSTEPS):
                B[1:-1] = np.exp(A[1:-1])  # noqa: F821

        sdfg = baseline_pipeline(expsum.to_sdfg())
        counts = specialize_maps(sdfg)
        assert counts[MapMode.GENERIC.value] == 1

    def test_generic_fallback_still_correct(self):
        N = Sym("N")

        @program
        def expstep(A: float64[N], B: float64[N], TSTEPS: int32):
            for t in range(1, TSTEPS):
                B[1:-1] = np.exp(A[1:-1])  # noqa: F821
                A[1:-1] = B[1:-1] / 2.0

        sdfg = baseline_pipeline(expstep.to_sdfg())
        u0 = np.linspace(0.0, 1.0, 9)
        args = [{"A": np.array(u0), "B": np.array(u0), "N": 9, "TSTEPS": 4}]
        (arrays,) = _final_arrays(sdfg, args, 1, "vector")
        A, B = np.array(u0), np.array(u0)
        for _ in range(1, 4):
            B[1:-1] = np.exp(A[1:-1])
            A[1:-1] = B[1:-1] / 2.0
        np.testing.assert_array_equal(arrays["A"], A)
        np.testing.assert_array_equal(arrays["B"], B)

    def test_unknown_mode_rejected(self):
        sdfg = baseline_pipeline(build_jacobi_1d_sdfg())
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1), tracer=Tracer())
        with pytest.raises(ValueError, match="fastpath"):
            SDFGExecutor(sdfg, ctx, fastpath="turbo")
