"""The executor binds array arguments by reference, as a DaCe SDFG call
does: each rank's argument is that rank's array, and a symmetric array's
``nvshmem_malloc`` adopts the ranks' arguments as its PE buffers."""

import tracemalloc

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sanitize import attach_sanitizer
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

PIPELINES = {
    "baseline": lambda: baseline_pipeline(build_jacobi_1d_sdfg()),
    "cpufree": lambda: cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D),
}


def args_1d(ranks=2):
    u0 = np.random.default_rng(3).random(26)
    return SlabDecomposition1D(24, ranks).rank_args(u0, 4)


def executor(pipeline, gpus=2):
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(gpus), tracer=Tracer())
    return SDFGExecutor(PIPELINES[pipeline](), ctx)


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_report_arrays_are_the_arguments(pipeline):
    args = args_1d()
    report = executor(pipeline).run(args)
    for r, rank_args in enumerate(args):
        for name in ("A", "B"):
            assert report.arrays[r][name] is rank_args[name]


def test_symmetric_pe_buffers_are_the_arguments():
    args = args_1d()
    ex = executor("cpufree")
    ex.run(args)
    for name in ("A", "B"):
        sym = ex.nvshmem.heap.get(name)
        for pe in range(2):
            assert sym.on(pe).data is args[pe][name]


def test_adopted_buffers_count_against_every_pe():
    """Two symmetric arrays per PE, the PEs with no rank included: the
    same bytes the zero-filled allocation used to account."""
    args = args_1d(ranks=2)
    ex = executor("cpufree", gpus=4)
    ex.run(args)
    slab = args[0]["A"].nbytes
    assert [ex.ctx.memory.used_bytes(pe) for pe in range(4)] == [2 * slab] * 4
    assert not ex.nvshmem.heap.get("A").local(3).any()


def test_sanitizer_tracks_adopted_arrays():
    args = args_1d()
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())
    sanitizer = attach_sanitizer(ctx)
    SDFGExecutor(PIPELINES["cpufree"](), ctx).run(args)
    assert sanitizer.tracks("A") and sanitizer.tracks("B")
    assert {a.array for a in sanitizer.accesses} == {"A", "B"}


def test_run_without_data_ignores_array_arguments():
    args = args_1d()
    args[0]["A"] = "not an array"
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())
    report = SDFGExecutor(PIPELINES["cpufree"](), ctx, with_data=False).run(args)
    assert report.arrays is None


def _wrong_shape(args):
    args[1]["A"] = np.zeros(args[1]["A"].size + 1)


def _wrong_dtype(args):
    args[1]["A"] = args[1]["A"].astype(np.float32)


def _read_only(args):
    args[1]["A"].flags.writeable = False


def _not_an_array(args):
    args[1]["A"] = args[1]["A"].tolist()


def _aliased_in_rank(args):
    args[1]["B"] = args[1]["A"]


def _aliased_across_ranks(args):
    # overlapping views of one buffer, as slicing a global field would give
    field = np.zeros(2 * args[0]["A"].size)
    args[0]["B"] = field[: args[0]["A"].size]
    args[1]["B"] = field[2 : 2 + args[1]["A"].size]


def _symmetric_on_one_rank(args):
    del args[1]["B"]


REJECTED = {
    "wrong shape": (_wrong_shape, r"rank 1: array 'A' must be a writeable float64 "
                                  r"ndarray of shape \(14,\), got float64 \(15,\)"),
    "wrong dtype": (_wrong_dtype, r"rank 1: array 'A' .* got float32 \(14,\)"),
    "read-only": (_read_only, r"rank 1: array 'A' .* got read-only float64"),
    "not an array": (_not_an_array, r"rank 1: array 'A' .* got list"),
    "aliased within a rank": (_aliased_in_rank, r"rank 1: array '[AB]' may share "
                                                r"memory with rank 1's array '[AB]'"),
    "aliased across ranks": (_aliased_across_ranks, r"rank 1: array 'B' may share "
                                                    r"memory with rank 0's array 'B'"),
}


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("case", REJECTED)
def test_unbindable_argument_rejected(pipeline, case):
    mutate, message = REJECTED[case]
    args = args_1d()
    mutate(args)
    with pytest.raises(ValueError, match=message):
        executor(pipeline).run(args)


def test_symmetric_array_on_a_subset_of_ranks_rejected():
    args = args_1d()
    _symmetric_on_one_rank(args)
    with pytest.raises(ValueError, match=r"symmetric array 'B' is passed on rank\(s\) \[0\]"):
        executor("cpufree").run(args)


def test_global_array_on_a_subset_of_ranks_is_zero_allocated():
    args = args_1d()
    _symmetric_on_one_rank(args)
    report = executor("baseline").run(args)
    assert report.arrays[0]["B"] is args[0]["B"]
    assert report.arrays[1]["B"].shape == args[1]["A"].shape


def test_data_run_allocates_less_than_half_its_arguments():
    """An in-place run allocates only tasklet temporaries and simulator
    state: at 512² on 8 ranks that is ~0.15x its arguments' bytes, where
    a copy of every argument alone would be 1x."""
    g = 512
    u0 = np.random.default_rng(0).random((g + 2, g + 2))
    args = GridDecomposition2D(g, g, 8).rank_args(u0, 3)
    arg_bytes = sum(a.nbytes for rank in args for a in rank.values()
                    if isinstance(a, np.ndarray))
    ex = SDFGExecutor(cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D),
                      MultiGPUContext(HGX_A100_8GPU.scaled_to(8)))
    tracemalloc.start()
    try:
        report = ex.run(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.arrays[7]["A"] is args[7]["A"]
    assert peak < arg_bytes / 2
