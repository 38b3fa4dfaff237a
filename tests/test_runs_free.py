"""Finished runs are freed by reference counting alone.

Nothing a simulator owns points back at it, so once the caller drops a
run's result, its ``Simulator`` and ``MultiGPUContext`` go at once,
with the cycle collector off: peak memory never waits for a collection.
The same holds for a compiled SDFG, its regions and its states, and
for the compiler and metric helpers: a compile plus auto-overlap pass
and a metrics flatten leave no garbage for the collector at all.
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import repro.stencil.variants  # noqa: F401 - populate the registry
from repro.bench import figures
from repro.faults.harness import run_cell
from repro.hw import HGX_A100_8GPU
from repro.obs.diff import flatten_metrics
from repro.recover import run_with_recovery
from repro.runtime import MultiGPUContext
from repro.sanitize import attach_sanitizer, detect_races
from repro.sdfg.codegen import SDFGExecutor
from repro.sdfg.distributed import SlabDecomposition1D
from repro.sdfg.programs import (
    CONJUGATES_1D,
    baseline_pipeline,
    build_jacobi_1d_sdfg,
    cpufree_pipeline,
)
from repro.sdfg.transforms.overlap import auto_overlap
from repro.sim import Simulator, Tracer
from repro.stencil import StencilConfig
from repro.stencil.base import VARIANTS
from repro.stencil.runner import run_variant


def _timing(shape, **kw):
    return StencilConfig(global_shape=shape, num_gpus=2, iterations=4,
                         with_data=False, **kw)


def _batched_point():
    rows = figures._run_stencil_group(
        [("cpufree", _timing((66, 130))), ("cpufree", _timing((130, 130)))])
    return len(rows) == 2


def _sdfg_run(sdfg):
    decomp = SlabDecomposition1D(64, 2)
    u0 = np.linspace(0.0, 1.0, 66)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())
    args = decomp.rank_args(u0, 4)
    report = SDFGExecutor(sdfg, ctx).run(args)
    # the run binds the caller's arrays in place; returning them keeps
    # them alive through the check that the run itself was freed
    return report.total_time_us > 0 and report.arrays[1]["A"] is args[1]["A"] and args


def _recovery(profile, shape, gpus, iterations, every):
    config = StencilConfig(global_shape=shape, num_gpus=gpus, iterations=iterations,
                           fault_profile=profile)
    outcome = run_with_recovery(VARIANTS["cpufree"], config, checkpoint_every=every)
    # the crashed configuration must really have thrown a segment away
    return outcome.restarts >= 1 if profile else outcome.restarts == 0


def _hierarchical(with_data):
    # 16 PEs in two NVSwitch domains of 8: cross-domain puts use the rails
    config = StencilConfig(
        global_shape=(130, 34), num_gpus=16, iterations=4, with_data=with_data,
        node=replace(HGX_A100_8GPU, num_gpus=8, nvswitch_domain_gpus=8))
    return run_variant("cpufree", config).total_time_us > 0


def _sanitized():
    variant = VARIANTS["cpufree"](StencilConfig(global_shape=(34, 66), num_gpus=2,
                                                iterations=4))
    sanitizer = attach_sanitizer(variant.ctx)
    variant.run()
    detect_races(sanitizer)
    return len(sanitizer.accesses) > 0


RUNS = {
    "per-point": lambda: figures._stencil_point(
        "baseline_copy", _timing((66, 130))).per_iteration_us > 0,
    "batched": _batched_point,
    "dace-6.3a": lambda: figures._dace_point(
        "1d", "baseline", SlabDecomposition1D(2000, 2), 4).x == 2,
    "watchdog-transient": lambda: run_variant(
        "cpufree", _timing((66, 130), fault_profile="transient@3")).total_time_us > 0,
    "crashed-chaos-cell": lambda: run_cell(
        "cpufree", "crash", (34, 66), 2, 6)["status"] == "diagnostic",
    "sdfg-baseline": lambda: _sdfg_run(baseline_pipeline(build_jacobi_1d_sdfg())),
    "sdfg-cpufree": lambda: _sdfg_run(cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)),
    "recover-clean": lambda: _recovery(None, (34, 66), 2, 6, 2),
    "recover-crashed": lambda: _recovery("crash_recover@1", (258, 258), 8, 16, 4),
    "hierarchical-data": lambda: _hierarchical(True),
    "hierarchical-timing": lambda: _hierarchical(False),
    "sanitized": _sanitized,
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


@pytest.mark.parametrize("pipeline", ["baseline", "cpufree"])
def test_compiled_sdfg_is_freed_without_the_cycle_collector(pipeline):
    gc.collect()
    gc.disable()
    try:
        sdfg = build_jacobi_1d_sdfg()
        if pipeline == "cpufree":
            cpufree_pipeline(sdfg, CONJUGATES_1D)
        else:
            baseline_pipeline(sdfg)
        described = sdfg.describe()
        parts = [sdfg, *sdfg.walk_regions(), *sdfg.walk_states()]
        refs = [weakref.ref(part) for part in parts]
        del sdfg, parts
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert "for t in" in described
    assert len(refs) > 3
    assert alive == []


def _compile_and_overlap():
    sdfg = build_jacobi_1d_sdfg()
    cpufree_pipeline(sdfg, CONJUGATES_1D)
    return auto_overlap(sdfg, chunks=2) == 1


HELPERS = {
    "compile-auto-overlap": _compile_and_overlap,
    "flatten-metrics": lambda: flatten_metrics(
        {"sim": {"events": 3, "flag": {"wakeups": 1.0}}}) == {
            "sim.events": 3.0, "sim.flag.wakeups": 1.0},
}


@pytest.mark.parametrize("name", HELPERS)
def test_helper_leaves_no_cycles(name):
    HELPERS[name]()  # warm caches and lazy imports outside the count
    gc.collect()
    gc.disable()
    try:
        ran_as_intended = HELPERS[name]()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert ran_as_intended
    assert garbage == 0
