"""The benchmark's four workloads.

Each workload drives the program only through its public API, as a
library user or the CLIs would.  A workload has three stages, run in a
fresh child interpreter per pass (see ``child.py``):

``prepare(seed)``
    imports and input construction — the end of set-up;
``run(state)``
    the timed section: a generator that yields between chunks of work
    (the child times its calibration loop there, see ``speed.py``) and
    returns :class:`Outputs`.  Yielding ``"compile"`` marks the chunk
    that just ended as compiler work (it counts toward ``compile_s``);
``check(state, outputs)``
    correctness checks against the harness's own references, outside
    the timed section; returns ``[(op name, passed), ...]``.

``prepare`` imports the program's names locally: in a traced pass the
layer boundaries are patched before it runs, so the names it binds are
the traced ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Generator

import numpy as np

from benchmarks.harness.reference import (
    jacobi_fixed_ring,
    jacobi_program,
    report_sections,
)

#: the checkout root (``benchmarks/harness/`` sits two levels below it)
ROOT = Path(__file__).resolve().parents[2]
GOLDEN_REPORT = ROOT / "tests" / "golden" / "bench_report.md"


@dataclass
class Outputs:
    """What one timed pass produced."""

    #: simulated µs per iteration of every simulated run, in run order
    sim_us: list[float]
    #: digests that must be identical across passes (name -> sha256)
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: workload-specific results for ``check``
    data: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: default pass count for ``run``
    passes: int
    why: str
    prepare: Callable[[int], Any]
    run: Callable[[Any], Generator[None, None, Outputs]]
    check: Callable[[Any, Outputs], list[tuple[str, bool]]]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


# -- figures: the paper's figure suite -------------------------------------------


def _figures_prepare(seed: int) -> SimpleNamespace:
    # timing-only sweeps: simulated time never depends on field data,
    # so the seed has nothing to set here
    from repro.bench import figures
    from repro.bench.report import render_figure
    from repro.perf import SweepRunner, use_runner

    return SimpleNamespace(figures=figures, render=render_figure,
                           SweepRunner=SweepRunner, use_runner=use_runner,
                           golden=GOLDEN_REPORT.read_text())


def _figures_run(st: SimpleNamespace):
    f = st.figures
    # what `python -m repro.bench --no-cache --jobs 1` runs: the default
    # figure set in report order, uncached, batching on
    figs = []
    with st.use_runner(st.SweepRunner(jobs=1, cache=None)):
        figs += f.fig22_motivation()
        yield
        figs += f.fig61_weak_2d_all()
        yield
        by_kind = f.fig62_3d()
        figs += [by_kind[k] for k in
                 ("weak", "weak_nocompute", "strong", "strong_nocompute")]
        yield
        figs.append(f.fig63a_dace_1d())
        yield
        figs.append(f.fig63b_dace_2d())
    sections = [st.render(fig) for fig in figs]
    return Outputs(sim_us=[row.per_iteration_us for fig in figs for row in fig.rows],
                   data=sections)


def _figures_check(st: SimpleNamespace, out: Outputs) -> list[tuple[str, bool]]:
    ops = []
    for got, want in zip_longest(out.data, report_sections(st.golden)):
        title = (want or got or "?").split("\n", 1)[0]
        ops.append((f"section equals golden: {title}", got == want))
    ops.append(("report byte-identical to golden",
                "\n\n".join(out.data) + "\n" == st.golden))
    return ops


# -- scaleout: the engine at 256 and 1024 PEs --------------------------------------

#: (PEs, global shape, NVSwitch domain size)
SCALEOUT_RUNS = ((1024, (4098, 34), 8), (256, (1026, 34), 128))
SCALEOUT_ITERATIONS = 4


def _scaleout_prepare(seed: int) -> SimpleNamespace:
    from dataclasses import replace

    from repro.hw import HGX_A100_8GPU
    from repro.stencil import StencilConfig, run_variant
    from repro.stencil.base import default_initial

    configs = [
        StencilConfig(
            global_shape=shape, num_gpus=pes, iterations=SCALEOUT_ITERATIONS,
            node=replace(HGX_A100_8GPU, num_gpus=min(domain, pes),
                         nvswitch_domain_gpus=domain),
            seed=seed)
        for pes, shape, domain in SCALEOUT_RUNS
    ]
    return SimpleNamespace(configs=configs, run_variant=run_variant,
                           default_initial=default_initial)


def _scaleout_run(st: SimpleNamespace):
    results = []
    for config in st.configs:
        if results:
            yield
        results.append(st.run_variant("cpufree", config))
    return Outputs(sim_us=[r.per_iteration_us for r in results],
                   data=[r.result for r in results])


def _scaleout_check(st: SimpleNamespace, out: Outputs) -> list[tuple[str, bool]]:
    ops = []
    for config, field_ in zip(st.configs, out.data):
        u0 = st.default_initial(config.global_shape, config.seed)
        want = jacobi_fixed_ring(u0, config.iterations)
        ops.append((f"{config.num_gpus} PEs: field equals reference",
                    field_ is not None and np.array_equal(field_, want)))
    return ops


# -- compile: frontend, transforms, lint and executor ------------------------------

#: (program, global interior, time steps); interiors divide 4 and 8 ranks
COMPILE_PROGRAMS = (
    ("jacobi_1d", (32768,), 8),
    ("jacobi_2d", (256, 256), 8),
    ("jacobi_3d", (32, 32), 6),
)
COMPILE_PIPELINES = ("baseline", "cpufree_nbi", "cpufree_blocking",
                     "cpufree_specialized", "auto_overlap_2", "auto_overlap_4")
COMPILE_RANKS = (4, 8)


def _compile_prepare(seed: int) -> SimpleNamespace:
    from repro.hw import HGX_A100_8GPU
    from repro.runtime import MultiGPUContext
    from repro.sdfg import programs
    from repro.sdfg.codegen import SDFGExecutor
    from repro.sdfg.distributed import (
        GridDecomposition2D,
        SlabDecomposition1D,
        SlabDecomposition3D,
    )
    from repro.sdfg.lint import lint_communication
    from repro.sdfg.transforms import auto_overlap
    from repro.sdfg.validation import validate
    from repro.sim import Tracer

    def decomposition(program: str, interior: tuple[int, ...], ranks: int):
        if program == "jacobi_1d":
            return SlabDecomposition1D(interior[0], ranks)
        if program == "jacobi_2d":
            return GridDecomposition2D(*interior, ranks)
        return SlabDecomposition3D(interior[0], interior[1], ranks)

    def pipeline(name: str, program: str):
        build = getattr(programs, f"build_{program}_sdfg")
        conjugates = (programs.CONJUGATES_2D if program == "jacobi_2d"
                      else programs.CONJUGATES_1D)
        if name == "baseline":
            return lambda: programs.baseline_pipeline(build())
        if name.startswith("auto_overlap_"):
            chunks = int(name.rsplit("_", 1)[1])

            def overlapped():
                sdfg = programs.cpufree_pipeline(build(), conjugates)
                auto_overlap(sdfg, chunks=chunks)
                validate(sdfg)
                return sdfg
            return overlapped
        options = {"cpufree_nbi": {}, "cpufree_blocking": {"nbi": False},
                   "cpufree_specialized": {"specialize_comm": True}}[name]
        return lambda: programs.cpufree_pipeline(build(), conjugates, **options)

    rng = np.random.default_rng(seed)
    fields, decomps, args = {}, {}, {}
    for program, interior, tsteps in COMPILE_PROGRAMS:
        if program == "jacobi_3d":
            shape = (interior[0] + 2, interior[1] + 2, interior[1] + 2)
        else:
            shape = tuple(n + 2 for n in interior)
        fields[program] = rng.random(shape)
        for ranks in COMPILE_RANKS:
            decomps[program, ranks] = decomposition(program, interior, ranks)
            # the executor writes into its arguments: one set per run
            for name in COMPILE_PIPELINES:
                args[program, name, ranks] = decomps[program, ranks].rank_args(
                    fields[program], tsteps)
    return SimpleNamespace(
        pipelines={(p, n): pipeline(n, p)
                   for p, _, _ in COMPILE_PROGRAMS for n in COMPILE_PIPELINES},
        fields=fields, decomps=decomps, args=args, lint=lint_communication,
        context=lambda ranks: MultiGPUContext(HGX_A100_8GPU.scaled_to(ranks),
                                              tracer=Tracer()),
        executor=SDFGExecutor)


def _compile_run(st: SimpleNamespace):
    findings, reports = {}, {}
    for program, _, _ in COMPILE_PROGRAMS:
        if reports:
            yield
        sdfgs = {}
        for name in COMPILE_PIPELINES:
            sdfgs[name] = st.pipelines[program, name]()
            findings[program, name] = st.lint(sdfgs[name])
        yield "compile"
        for name in COMPILE_PIPELINES:
            for ranks in COMPILE_RANKS:
                reports[program, name, ranks] = st.executor(
                    sdfgs[name], st.context(ranks), fastpath="vector",
                ).run(st.args[program, name, ranks])
    return Outputs(sim_us=[r.per_iteration_us for r in reports.values()],
                   data=(findings, reports))


def _compile_check(st: SimpleNamespace, out: Outputs) -> list[tuple[str, bool]]:
    findings, reports = out.data
    ops = []
    for program, _, tsteps in COMPILE_PROGRAMS:
        want = jacobi_program(st.fields[program], tsteps)
        for name in COMPILE_PIPELINES:
            ops.append((f"{program} {name}: lint clean",
                        findings[program, name] == []))
        for ranks in COMPILE_RANKS:
            decomp = st.decomps[program, ranks]
            got = [decomp.gather(reports[program, name, ranks].arrays,
                                 st.fields[program])
                   for name in COMPILE_PIPELINES]
            for name, field_ in zip(COMPILE_PIPELINES, got):
                ops.append((f"{program} {name} @{ranks}: field equals reference",
                            np.array_equal(field_, want)))
            ops.append((f"{program} @{ranks}: pipelines agree bitwise",
                        all(np.array_equal(g, got[0]) for g in got[1:])))
    return ops


# -- tools: span consumers, autotuner and recovery ---------------------------------

TOOLS_VARIANTS = ("cpufree", "cpufree_perks", "baseline_nvshmem",
                  "baseline_overlap", "baseline_copy")
#: (global shape, GPUs)
TOOLS_SHAPES = (((1026, 2050), 4), ((130, 258), 8))
TOOLS_ITERATIONS = 20
#: (size class, GPUs, trial budget)
TOOLS_TUNES = (("medium", 8, 16), ("large", 8, 12))
#: (global shape, GPUs, iterations, checkpoint cadence)
TOOLS_RECOVERY = ((1026, 1026), 8, 40, 8)


def _tools_prepare(seed: int) -> SimpleNamespace:
    from repro.obs.critical import critical_path
    from repro.obs.timeline import timeline_payload
    from repro.obs.whatif import whatif_report
    from repro.perf import SweepRunner
    from repro.recover import run_with_recovery
    from repro.stencil import StencilConfig, run_variant
    from repro.stencil.base import VARIANTS, default_initial
    from repro.tune import schedule_payload, tune

    runs = [(variant, StencilConfig(global_shape=shape, num_gpus=gpus,
                                    iterations=TOOLS_ITERATIONS,
                                    with_data=False))
            for variant in TOOLS_VARIANTS for shape, gpus in TOOLS_SHAPES]
    shape, gpus, iterations, _ = TOOLS_RECOVERY
    recovery = StencilConfig(global_shape=shape, num_gpus=gpus,
                             iterations=iterations, seed=seed,
                             fault_profile=f"crash_recover@{seed}")
    return SimpleNamespace(
        runs=runs, recovery=recovery, run_variant=run_variant,
        critical_path=critical_path, whatif_report=whatif_report,
        timeline_payload=timeline_payload, SweepRunner=SweepRunner,
        tune=tune, schedule_payload=schedule_payload,
        run_with_recovery=run_with_recovery, cpufree=VARIANTS["cpufree"],
        default_initial=default_initial)


def _tools_run(st: SimpleNamespace):
    analysed = []
    for variant, config in st.runs:
        if analysed:
            yield
        res = st.run_variant(variant, config)
        spans = res.tracer.spans
        st.critical_path(spans, config.iterations)
        whatif = st.whatif_report(spans)
        st.timeline_payload(spans)
        chrome = res.tracer.to_chrome_trace()
        analysed.append((f"{variant} {config.num_gpus}x{config.global_shape}",
                         res.total_time_us, res.per_iteration_us,
                         whatif["baseline_makespan_us"], len(spans), len(chrome)))
    runner = st.SweepRunner(jobs=1, cache=None)
    tunes = []
    for size, gpus, budget in TOOLS_TUNES:
        yield
        tunes.append(st.tune(size, gpus, budget=budget, runner=runner))
    yield
    recovered = st.run_with_recovery(st.cpufree, st.recovery,
                                     checkpoint_every=TOOLS_RECOVERY[3])
    return Outputs(
        sim_us=([a[2] for a in analysed]
                + [t.best_per_iteration_us for t in tunes]
                + [recovered.total_time_us / recovered.iterations]),
        fingerprints={f"tune {t.size} payload": _digest(st.schedule_payload(t))
                      for t in tunes},
        data=(analysed, tunes, recovered))


def _tools_check(st: SimpleNamespace, out: Outputs) -> list[tuple[str, bool]]:
    analysed, tunes, recovered = out.data
    ops = []
    for label, total, _, whatif_total, n_spans, n_events in analysed:
        ops.append((f"{label}: what-if scale-1 makespan equals simulated total",
                    abs(whatif_total - total) <= 1e-6 * total))
        ops.append((f"{label}: chrome trace carries every span", n_events >= n_spans))
    for t in tunes:
        ops.append((f"tune {t.size}: best <= cpufree x 1.001",
                    t.best_per_iteration_us <= t.cpufree_per_iteration_us * 1.001))
    config = st.recovery
    want = jacobi_fixed_ring(st.default_initial(config.global_shape, config.seed),
                             config.iterations)
    ops.append(("recovery: restarted at least once", recovered.restarts >= 1))
    ops.append(("recovery: field equals reference",
                np.array_equal(recovered.result, want)))
    return ops


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("figures", 10,
             "the paper's figure suite, uncached: engine, tracer, host-API "
             "baselines and batched sweeps",
             _figures_prepare, _figures_run, _figures_check),
    Workload("scaleout", 6,
             "cpufree Jacobi at 1024 and 256 PEs: the sharded calendar, "
             "proxy puts and rail pricing",
             _scaleout_prepare, _scaleout_run, _scaleout_check),
    Workload("compile", 8,
             "three Jacobi programs through six compiler pipelines, then "
             "executed on real data",
             _compile_prepare, _compile_run, _compile_check),
    Workload("tools", 8,
             "span consumers (critical path, what-if, timeline, Chrome "
             "trace), the autotuner and crash recovery",
             _tools_prepare, _tools_run, _tools_check),
)}
