"""Perf smoke benchmarks for the engine and executor hot paths.

Unlike the figure benchmarks (which measure *simulated* microseconds),
these measure the *host* throughput of the hot loops the fast paths
target: simulator events per wall-clock second and executor stencil
cells per wall-clock second.  Everything lands in
``benchmark.extra_info`` so trajectories can be tracked across PRs
(baseline numbers in BENCH_PR1.json; calendar-queue scheduler numbers
in BENCH_PR5.json).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py -q
"""

import time

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sdfg.codegen import SDFGExecutor
from repro.sdfg.distributed import SlabDecomposition1D
from repro.sdfg.programs import CONJUGATES_1D, build_jacobi_1d_sdfg, cpufree_pipeline
from repro.sim import Delay, Flag, Simulator, Tracer, WaitFlag


def _engine_workload(n_chains: int = 200, hops: int = 50, *,
                     indexed: bool = False) -> tuple[float, int]:
    """Signal-chain workload: stresses the heap, the zero-delay ready
    queue, and flag waits.  ``indexed=True`` expresses the waits as
    structured ``ge=`` conditions (the calendar-queue scheduler's
    indexed wakeup path); ``False`` keeps opaque predicates (the
    legacy scan path).  Returns (wall seconds, events processed)."""
    sim = Simulator()
    flags = [Flag(sim, 0, name=f"f{i}") for i in range(n_chains)]

    def pinger(i):
        for hop in range(1, hops + 1):
            yield Delay(0.1 * (i % 7))
            flags[i].set(hop)
            if indexed:
                yield WaitFlag(flags[(i + 1) % n_chains], ge=hop)
            else:
                yield WaitFlag(flags[(i + 1) % n_chains], lambda v, h=hop: v >= h)

    for i in range(n_chains):
        sim.spawn(pinger(i), name=f"p{i}")
    events = n_chains * hops * 2  # delays + flag wakeups, lower bound
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started, events


def _executor_workload(n_global: int = 60_000, ranks: int = 2,
                       tsteps: int = 12) -> tuple[float, int]:
    """Full CPU-Free 1D Jacobi with real data; returns (wall seconds,
    stencil cells updated)."""
    rng = np.random.default_rng(3)
    u0 = rng.random(n_global + 2)
    decomp = SlabDecomposition1D(n_global, ranks)
    sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
    args = decomp.rank_args(u0, tsteps)
    started = time.perf_counter()
    SDFGExecutor(sdfg, ctx).run(args)
    elapsed = time.perf_counter() - started
    # two relaxation phases per iteration over the global interior
    cells = 2 * (tsteps - 1) * n_global
    return elapsed, cells


class TestEngineThroughput:
    def test_events_per_second(self, benchmark):
        box = {}

        def run():
            box["wall"], box["events"] = _engine_workload()

        benchmark.pedantic(run, rounds=1, iterations=1)
        rate = box["events"] / box["wall"]
        benchmark.extra_info["events_per_sec"] = round(rate)
        benchmark.extra_info["events"] = box["events"]
        # the pre-calendar-queue engine sustained ~320k events/s on this
        # workload shape, the bucketed scheduler >700k; loose floor so
        # CI noise cannot flake the smoke test
        assert rate > 50_000

    def test_events_per_second_indexed_waits(self, benchmark):
        """Same chain workload with structured ``ge=`` waits: the
        scheduler wakes exactly the eligible waiters from the flag's
        threshold index instead of scanning predicates."""
        box = {}

        def run():
            box["wall"], box["events"] = _engine_workload(indexed=True)

        benchmark.pedantic(run, rounds=1, iterations=1)
        rate = box["events"] / box["wall"]
        benchmark.extra_info["events_per_sec"] = round(rate)
        benchmark.extra_info["events"] = box["events"]
        assert rate > 50_000


class TestExecutorThroughput:
    def test_cells_per_second(self, benchmark):
        box = {}

        def run():
            box["wall"], box["cells"] = _executor_workload()

        benchmark.pedantic(run, rounds=1, iterations=1)
        rate = box["cells"] / box["wall"]
        benchmark.extra_info["cells_per_sec"] = round(rate)
        benchmark.extra_info["cells"] = box["cells"]
        # vectorized maps sustain well over 10M cells/s; the scalar
        # per-eval seed managed far less on large domains
        assert rate > 1_000_000

    @pytest.mark.parametrize("mode", ["vector", "scalar"])
    def test_modes_agree_while_timed(self, benchmark, mode):
        """Throughput of each mode on a small domain, recorded for the
        trajectory; correctness equivalence is asserted in
        tests/sdfg/test_fastpath.py."""
        rng = np.random.default_rng(4)
        n_global, ranks, tsteps = 2_000, 2, 6
        u0 = rng.random(n_global + 2)
        decomp = SlabDecomposition1D(n_global, ranks)
        sdfg = cpufree_pipeline(build_jacobi_1d_sdfg(), CONJUGATES_1D)
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks), tracer=Tracer())
        args = decomp.rank_args(u0, tsteps)
        box = {}

        def run():
            started = time.perf_counter()
            SDFGExecutor(sdfg, ctx, fastpath=mode).run(args)
            box["wall"] = time.perf_counter() - started

        benchmark.pedantic(run, rounds=1, iterations=1)
        cells = 2 * (tsteps - 1) * n_global
        benchmark.extra_info["cells_per_sec"] = round(cells / box["wall"])
        benchmark.extra_info["mode"] = mode
