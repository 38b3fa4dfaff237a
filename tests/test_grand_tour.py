"""Grand tour: one test that walks the entire user journey.

frontend → baseline + CPU-Free pipelines → validation → JSON
round-trip → pseudo-CUDA → execution on the simulated
node → numerics vs oracle → speedup → timeline exports.  If this
passes, the README's pitch is true end to end.
"""

import json

import numpy as np

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sdfg import sdfg_from_json, sdfg_to_json, validate
from repro.sdfg.codegen import SDFGExecutor, generate_cuda
from repro.sdfg.distributed import GridDecomposition2D
from repro.sdfg.programs import (
    CONJUGATES_2D,
    baseline_pipeline,
    build_jacobi_2d_sdfg,
    cpufree_pipeline,
)
from repro.sim import Tracer


def test_grand_tour(tmp_path):
    ranks, gy, gx, tsteps = 4, 16, 16, 5
    rng = np.random.default_rng(99)
    u0 = rng.random((gy + 2, gx + 2))
    decomp = GridDecomposition2D(gy, gx, ranks)

    # --- oracle -------------------------------------------------------------
    A, B = np.array(u0), np.array(u0)
    for _ in range(1, tsteps):
        B[1:-1, 1:-1] = 0.25 * (A[:-2, 1:-1] + A[2:, 1:-1]
                                + A[1:-1, :-2] + A[1:-1, 2:])
        A[1:-1, 1:-1] = 0.25 * (B[:-2, 1:-1] + B[2:, 1:-1]
                                + B[1:-1, :-2] + B[1:-1, 2:])

    # --- compile both pipelines ----------------------------------------------
    baseline = baseline_pipeline(build_jacobi_2d_sdfg())
    cpufree = cpufree_pipeline(build_jacobi_2d_sdfg(), CONJUGATES_2D)
    validate(baseline)
    validate(cpufree)

    # --- artifacts round-trip -------------------------------------------------
    json_path = tmp_path / "cpufree.sdfg"
    json_path.write_text(sdfg_to_json(cpufree, indent=2))
    cpufree = sdfg_from_json(json_path.read_text())
    validate(cpufree)

    cuda = generate_cuda(cpufree)
    assert "cudaLaunchCooperativeKernel" in cuda
    assert "nvshmem_double_iput" in cuda  # strided east/west halos

    # --- execute both on the simulated HGX node --------------------------------
    reports = {}
    for name, sdfg in (("baseline", baseline), ("cpufree", cpufree)):
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
        report = SDFGExecutor(sdfg, ctx).run(decomp.rank_args(u0, tsteps))
        got = decomp.gather(report.arrays, u0)
        np.testing.assert_array_equal(got, A, err_msg=name)
        reports[name] = report

    # --- the paper's conclusion, in one assertion -------------------------------
    speedup = (reports["baseline"].total_time_us - reports["cpufree"].total_time_us) \
        / reports["baseline"].total_time_us * 100
    # Fig 6.3b reaches 96% on device-saturating domains; even this tiny
    # 16x16 test domain shows the decisive win
    assert speedup > 60.0

    # --- timeline export ----------------------------------------------------------
    trace = reports["cpufree"].tracer.to_chrome_trace()
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(trace))
    assert json.loads(trace_path.read_text())

    # the CPU-Free host went quiet after one launch per rank
    launches = [s for s in reports["cpufree"].tracer.spans_in("api")
                if s.name.startswith("launch")]
    assert len(launches) == ranks
