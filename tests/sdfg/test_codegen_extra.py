"""Extra codegen coverage: copy specialization, executor error paths."""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.runtime import MultiGPUContext
from repro.sdfg import Sym, program
from repro.sdfg.codegen import SDFGExecutor, generate_cuda
from repro.sdfg.distributed import SlabDecomposition1D
from repro.sdfg.frontend import float64, int32
from repro.sdfg.graph import Edge
from repro.sdfg.memlet import Memlet, Range
from repro.sdfg.nodes import AccessNode
from repro.sdfg.programs import CONJUGATES_1D, build_jacobi_1d_sdfg, cpufree_pipeline
from repro.sdfg.transforms import gpu_persistent_kernel, gpu_transform
from repro.sim import Tracer

N = Sym("N")


def test_in_kernel_copy_specialization_rendered():
    """§5.1: array-to-array copies inside persistent kernels use the
    GPU-thread parallel copy routine."""

    @program
    def copier(A: float64[N], B: float64[N], TSTEPS: int32):
        for t in range(1, TSTEPS):
            B[1:-1] = A[1:-1]

    sdfg = copier.to_sdfg()
    gpu_transform(sdfg)
    gpu_persistent_kernel(sdfg)
    code = generate_cuda(sdfg)
    assert "device_parallel_copy" in code


def test_non_copy_rendered_as_expression():
    @program
    def scaler(A: float64[N], B: float64[N], TSTEPS: int32):
        for t in range(1, TSTEPS):
            B[1:-1] = A[1:-1] * 2

    sdfg = scaler.to_sdfg()
    gpu_transform(sdfg)
    gpu_persistent_kernel(sdfg)
    code = generate_cuda(sdfg)
    assert "device_parallel_copy" not in code
    assert "A[1:-1] * 2" in code


def test_executor_rejects_more_ranks_than_gpus():
    @program
    def f(A: float64[N]):
        A[1:-1] = A[1:-1]

    sdfg = f.to_sdfg()
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())
    executor = SDFGExecutor(sdfg, ctx)
    args = [{"A": np.zeros(4), "N": 4} for _ in range(3)]
    with pytest.raises(ValueError, match="more ranks"):
        executor.run(args)


def test_executor_loopless_program_single_iteration():
    @program
    def f(A: float64[N]):
        A[1:-1] = A[1:-1] + 1

    sdfg = f.to_sdfg()
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1), tracer=Tracer())
    report = SDFGExecutor(sdfg, ctx).run([{"A": np.zeros(4), "N": 4}])
    assert report.iterations == 1
    np.testing.assert_array_equal(report.arrays[0]["A"], [0, 1, 1, 0])


def test_executor_unbound_symbol_raises():
    @program
    def f(A: float64[N]):
        A[1:-1] = A[1:-1]

    sdfg = f.to_sdfg()
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1), tracer=Tracer())
    with pytest.raises(KeyError, match="N"):
        SDFGExecutor(sdfg, ctx, with_data=False).run([{}])


def test_executor_runs_once():
    """A second run() would start from the first run's clock, tracer and
    signal flags (its waits are satisfied early): it must refuse."""
    sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(4), tracer=Tracer())
    args = SlabDecomposition1D(64, 4).rank_args(np.linspace(0.0, 1.0, 66), 6)
    executor = SDFGExecutor(sdfg, ctx)
    first = executor.run(args)
    with pytest.raises(RuntimeError, match="fresh MultiGPUContext"):
        executor.run(args)
    fresh = MultiGPUContext(HGX_A100_8GPU.scaled_to(4), tracer=Tracer())
    again = SDFGExecutor(sdfg, fresh).run(
        SlabDecomposition1D(64, 4).rank_args(np.linspace(0.0, 1.0, 66), 6))
    assert again.total_time_us == first.total_time_us


def test_report_times_read_the_tracer():
    @program
    def f(A: float64[N]):
        A[1:-1] = A[1:-1] + 1

    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1), tracer=Tracer())
    report = SDFGExecutor(f.to_sdfg(), ctx).run([{"A": np.zeros(4), "N": 4}])
    for category in ("comm", "sync", "api"):
        assert getattr(report, f"{category}_time_us") == report.tracer.total(category)
    with pytest.raises(AttributeError):
        report.comm_time_us = 1.0


@pytest.mark.parametrize("schedule", ["discrete", "persistent"])
def test_loop_dependent_memlets_rebind_every_iteration(schedule):
    """A state whose subsets read the loop variable cannot be bound once
    per rank: it is re-bound on every execution, and its per-execution
    counters still count once per execution."""

    @program
    def prefix(A: float64[N], TSTEPS: int32):
        for t in range(1, TSTEPS):
            A[t:t + 1] = A[t - 1:t] + A[t:t + 1]

    sdfg = prefix.to_sdfg()
    gpu_transform(sdfg)
    if schedule == "persistent":
        gpu_persistent_kernel(sdfg)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1), tracer=Tracer())
    registry = MetricsRegistry()
    with use_metrics(registry):
        report = SDFGExecutor(sdfg, ctx).run([{"A": np.ones(7), "N": 7, "TSTEPS": 7}])
    np.testing.assert_array_equal(report.arrays[0]["A"], np.arange(1.0, 8.0))
    assert registry.value("sdfg.fastpath.map_exec") == 6
    assert registry.value("sdfg.fastpath.plan_cache", outcome="miss") == 1
    assert registry.value("sdfg.fastpath.plan_cache", outcome="hit") == 5


@pytest.mark.parametrize("persistent", [False, True])
@pytest.mark.parametrize("subset,message", [
    ((Range(1, -1), Range(0, 1)), "has 2 dims for array of shape"),
    ((Range(3, 1),), "empty/negative range"),
])
def test_executor_memlet_errors_surface_from_run(persistent, subset, message):
    """Binding resolves memlets once per rank; a malformed one still
    fails the run with the evaluator's own error."""

    @program
    def f(A: float64[N], TSTEPS: int32):
        for t in range(1, TSTEPS):
            A[1:-1] = A[1:-1] + 1

    sdfg = f.to_sdfg()
    gpu_transform(sdfg)
    if persistent:
        gpu_persistent_kernel(sdfg)
    state = next(s for s in sdfg.walk_states() if s.tasklets)
    i, edge = next((i, e) for i, e in enumerate(state.edges)
                   if isinstance(e.dst, AccessNode) and e.memlet is not None)
    state.edges[i] = Edge(edge.src, edge.dst, Memlet("A", subset))
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1), tracer=Tracer())
    with pytest.raises(ValueError, match=message):
        SDFGExecutor(sdfg, ctx).run([{"A": np.zeros(6), "N": 6, "TSTEPS": 3}])


def test_cuda_text_storage_allocation_styles():
    @program
    def f(A: float64[N]):
        A[1:-1] = A[1:-1]

    host_code = generate_cuda(f.to_sdfg())
    assert "malloc(" in host_code and "cudaMalloc" not in host_code

    sdfg = f.to_sdfg()
    gpu_transform(sdfg)
    gpu_code = generate_cuda(sdfg)
    assert "cudaMalloc" in gpu_code
