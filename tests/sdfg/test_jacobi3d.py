"""Tests for the 3D DaCe program through both pipelines (extension:
the paper's DaCe evaluation covers 1D/2D; 3D demonstrates the
compiler's generality)."""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sdfg import AccessKind
from repro.sdfg.codegen import SDFGExecutor, generate_cuda
from repro.sdfg.distributed import SlabDecomposition3D
from repro.sdfg.libnodes.nvshmem import PutmemSignal
from repro.sdfg.programs import (
    CONJUGATES_1D,
    baseline_pipeline,
    build_jacobi_3d_sdfg,
    cpufree_pipeline,
)
from repro.sim import Tracer
from tests.sdfg.test_executor import ref_3d


def run(kind, nz=12, m=8, ranks=3, tsteps=4):
    rng = np.random.default_rng(12)
    u0 = rng.random((nz + 2, m + 2, m + 2))
    decomp = SlabDecomposition3D(nz, m, ranks)
    sdfg = build_jacobi_3d_sdfg()
    if kind == "baseline":
        sdfg = baseline_pipeline(sdfg)
    else:
        sdfg = cpufree_pipeline(sdfg, CONJUGATES_1D)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
    report = SDFGExecutor(sdfg, ctx).run(decomp.rank_args(u0, tsteps))
    return decomp.gather(report.arrays, u0), ref_3d(u0, tsteps), report


@pytest.mark.parametrize("kind", ["baseline", "cpufree"])
def test_3d_bit_exact(kind):
    got, expected, _ = run(kind)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("kind", ["baseline", "cpufree"])
def test_3d_single_rank(kind):
    got, expected, _ = run(kind, nz=6, ranks=1)
    np.testing.assert_array_equal(got, expected)


def test_halo_planes_classified_contiguous():
    """z-halo planes span the trailing axes fully → putmem lowering."""
    sdfg = cpufree_pipeline(build_jacobi_3d_sdfg(), CONJUGATES_1D)
    puts = [n for s in sdfg.walk_states() for n in s.library_nodes
            if isinstance(n, PutmemSignal)]
    bindings = {"N": 8, "M": 8, "t": 1}
    assert all(
        p.expand(sdfg, bindings).access is AccessKind.CONTIGUOUS for p in puts
    )


def test_3d_generated_code_uses_block_put():
    code = generate_cuda(cpufree_pipeline(build_jacobi_3d_sdfg(), CONJUGATES_1D))
    assert "nvshmemx_putmem_signal_nbi_block" in code
    assert "nvshmem_double_iput" not in code  # nothing strided in 3D slabs


def test_3d_cpufree_faster():
    _, _, base = run("baseline", tsteps=8)
    _, _, free = run("cpufree", tsteps=8)
    assert free.total_time_us < base.total_time_us


def test_indivisible_planes_rejected():
    with pytest.raises(ValueError, match="divisible"):
        SlabDecomposition3D(10, 8, 3)
