"""Executor arrays against independent NumPy references.

Each compute state runs its tasklets as whole-map NumPy expressions.
The gathered fields must equal the hand-written references of
``test_executor`` bit for bit, on the real 1D/2D/3D Jacobi SDFGs and
every compiler pipeline.
"""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sdfg.codegen import SDFGExecutor
from repro.sdfg.codegen.executor import plan_state
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
from tests.sdfg.test_executor import ref_1d, ref_2d, ref_3d


def _final_arrays(sdfg, rank_args, num_gpus):
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(num_gpus), tracer=Tracer())
    return SDFGExecutor(sdfg, ctx).run(rank_args).arrays


def _assert_matches_reference(sdfg, decomp, u0, tsteps, reference):
    """Run ``sdfg`` on ``decomp``'s ranks; the gathered field must equal
    ``reference`` bit for bit."""
    arrays = _final_arrays(sdfg, decomp.rank_args(u0, tsteps), decomp.ranks)
    np.testing.assert_array_equal(decomp.gather(arrays, u0), reference(u0, tsteps))


class TestJacobiBitIdentical:
    def test_jacobi_1d(self):
        u0 = np.random.default_rng(11).random(20)
        _assert_matches_reference(baseline_pipeline(build_jacobi_1d_sdfg()),
                                  SlabDecomposition1D(18, 3), u0, 5, ref_1d)

    def test_jacobi_1d_cpufree(self):
        u0 = np.random.default_rng(12).random(14)
        _assert_matches_reference(cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D),
                                  SlabDecomposition1D(12, 2), u0, 4, ref_1d)

    def test_jacobi_2d(self):
        u0 = np.random.default_rng(13).random((10, 10))
        _assert_matches_reference(cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D),
                                  GridDecomposition2D(8, 8, 4), u0, 4, ref_2d)

    def test_jacobi_3d(self):
        u0 = np.random.default_rng(14).random((8, 8, 8))
        _assert_matches_reference(cpufree_pipeline(build_jacobi_3d_sdfg(), CONJUGATES_1D),
                                  SlabDecomposition3D(6, 6, 2), u0, 3, ref_3d)


#: the three compile programs: (builder, conjugates, initial field,
#: decomposition, reference)
_PROGRAMS = {
    "jacobi_1d": (build_jacobi_1d_sdfg, CONJUGATES_1D, (34,),
                  lambda ranks: SlabDecomposition1D(32, ranks), ref_1d),
    "jacobi_2d": (build_jacobi_2d_sdfg, CONJUGATES_2D, (18, 18),
                  lambda ranks: GridDecomposition2D(16, 16, ranks), ref_2d),
    "jacobi_3d": (build_jacobi_3d_sdfg, CONJUGATES_1D, (18, 10, 10),
                  lambda ranks: SlabDecomposition3D(16, 8, ranks), ref_3d),
}


def _pipelined(program, pipeline):
    build, conjugates = _PROGRAMS[program][:2]
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
    """The gathered field equals the NumPy reference bit for bit on
    every program x pipeline x ranks case the ``compile`` benchmark
    workload runs."""
    _, _, shape, decomposition, reference = _PROGRAMS[program]
    u0 = np.random.default_rng(ranks).random(shape)
    _assert_matches_reference(_pipelined(program, pipeline), decomposition(ranks),
                              u0, 4, reference)


class TestSpecializationPass:
    def test_plans_cached_on_state(self):
        sdfg = baseline_pipeline(build_jacobi_1d_sdfg())
        state = next(s for s in sdfg.walk_states() if s.tasklets)
        assert plan_state(state) is plan_state(state)

    def test_generic_fallback_still_correct(self):
        """A tasklet outside the affine subset (a call) runs as the same
        whole-map expression."""
        N = Sym("N")

        @program
        def expstep(A: float64[N], B: float64[N], TSTEPS: int32):
            for t in range(1, TSTEPS):
                B[1:-1] = np.exp(A[1:-1])  # noqa: F821
                A[1:-1] = B[1:-1] / 2.0

        sdfg = baseline_pipeline(expstep.to_sdfg())
        u0 = np.linspace(0.0, 1.0, 9)
        args = [{"A": np.array(u0), "B": np.array(u0), "N": 9, "TSTEPS": 4}]
        (arrays,) = _final_arrays(sdfg, args, 1)
        A, B = np.array(u0), np.array(u0)
        for _ in range(1, 4):
            B[1:-1] = np.exp(A[1:-1])
            A[1:-1] = B[1:-1] / 2.0
        np.testing.assert_array_equal(arrays["A"], A)
        np.testing.assert_array_equal(arrays["B"], B)

    def test_unknown_mode_rejected(self):
        sdfg = baseline_pipeline(build_jacobi_1d_sdfg())
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1), tracer=Tracer())
        for mode in ("turbo", "scalar"):
            with pytest.raises(ValueError, match="fastpath"):
                SDFGExecutor(sdfg, ctx, fastpath=mode)
