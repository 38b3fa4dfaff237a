"""Perf smoke floors for the engine and executor hot paths.

Unlike the paper claims (which compare *simulated* microseconds),
these time the *host* throughput of the hot loops with
``time.perf_counter``: simulator events per wall-clock second and
executor stencil cells per wall-clock second, each against a loose
floor.  The benchmark harness (``benchmarks/harness``) tracks the same
rates on the real workloads.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_engine.py -q
"""

import time

import numpy as np

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
    def test_events_per_second(self):
        wall, events = _engine_workload()
        # the pre-calendar-queue engine sustained ~320k events/s on this
        # workload shape, the bucketed scheduler >700k; loose floor so
        # CI noise cannot flake the smoke test
        assert events / wall > 50_000

    def test_events_per_second_indexed_waits(self):
        """Same chain workload with structured ``ge=`` waits: the
        scheduler wakes exactly the eligible waiters from the flag's
        threshold index instead of scanning predicates."""
        wall, events = _engine_workload(indexed=True)
        assert events / wall > 50_000


class TestExecutorThroughput:
    def test_cells_per_second(self):
        wall, cells = _executor_workload()
        # vectorized maps sustain well over 10M cells/s; the scalar
        # per-eval seed managed far less on large domains
        assert cells / wall > 1_000_000
