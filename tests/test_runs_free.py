"""Finished runs are freed by reference counting alone.

Nothing a simulator owns points back at it, so once the caller drops a
run's result, its ``Simulator`` and ``MultiGPUContext`` go at once,
with the cycle collector off: peak memory never waits for a collection.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.stencil.variants  # noqa: F401 - populate the registry
from repro.bench import figures
from repro.faults.harness import run_cell
from repro.hw import HGX_A100_8GPU
from repro.recover import run_with_recovery
from repro.runtime import MultiGPUContext
from repro.sdfg.codegen import SDFGExecutor
from repro.sdfg.distributed import SlabDecomposition1D
from repro.sdfg.programs import baseline_pipeline, build_jacobi_1d_sdfg
from repro.sim import Simulator, Tracer
from repro.stencil import StencilConfig
from repro.stencil.base import VARIANTS
from repro.stencil.runner import run_variant


def _timing(shape, **kw):
    return StencilConfig(global_shape=shape, num_gpus=2, iterations=4,
                         with_data=False, **kw)


def _batched_point():
    rows = figures._run_stencil_group(
        [("cpufree", _timing((66, 130))), ("cpufree", _timing((130, 130)))],
        with_metrics=False)
    return len(rows) == 2


def _sdfg_baseline():
    decomp = SlabDecomposition1D(64, 2)
    u0 = np.linspace(0.0, 1.0, 66)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())
    report = SDFGExecutor(baseline_pipeline(build_jacobi_1d_sdfg()), ctx).run(
        decomp.rank_args(u0, 4))
    return report.total_time_us > 0


def _recovery(profile, shape, gpus, iterations, every):
    config = StencilConfig(global_shape=shape, num_gpus=gpus, iterations=iterations,
                           fault_profile=profile)
    outcome = run_with_recovery(VARIANTS["cpufree"], config, checkpoint_every=every)
    # the crashed configuration must really have thrown a segment away
    return outcome.restarts >= 1 if profile else outcome.restarts == 0


RUNS = {
    "per-point": lambda: figures._stencil_point(
        "baseline_copy", _timing((66, 130))).per_iteration_us > 0,
    "batched": _batched_point,
    "dace-6.3a": lambda: figures._dace_1d_point(2, "baseline", 1000, 4).x == 2,
    "watchdog-transient": lambda: run_variant(
        "cpufree", _timing((66, 130), fault_profile="transient@3")).total_time_us > 0,
    "crashed-chaos-cell": lambda: run_cell(
        "cpufree", "crash", (34, 66), 2, 6)["status"] == "diagnostic",
    "sdfg-baseline": _sdfg_baseline,
    "recover-clean": lambda: _recovery(None, (34, 66), 2, 6, 2),
    "recover-crashed": lambda: _recovery("crash_recover@1", (258, 258), 8, 16, 4),
}


@pytest.mark.parametrize("name", RUNS)
def test_finished_run_is_freed_without_the_cycle_collector(monkeypatch, name):
    refs = []
    for cls in (Simulator, MultiGPUContext):
        def tracking_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", tracking_init)
    gc.collect()
    gc.disable()
    try:
        ran_as_intended = RUNS[name]()
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert ran_as_intended
    assert refs
    assert alive == []
