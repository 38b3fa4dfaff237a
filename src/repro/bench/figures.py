"""Experiment definitions for every figure in the paper's evaluation.

Domain-size conventions (derived in DESIGN.md §5 / EXPERIMENTS.md):
the paper's labels (256², 2048², 8192² for 2D) are the *8-GPU global*
domain sizes — the reading consistent with its device-saturation
classification and with the reported speedups.  Weak scaling keeps a
constant per-GPU chunk of ``label² / 8`` elements and stacks chunks
along axis 0.  Strong scaling fixes the global domain.

All sweeps run the simulator in timing-only mode (``with_data=False``)
— simulated time is identical with or without the backing NumPy data
(asserted by the test suite), and correctness is covered by tests.

Every sweep point is expressed as a call to one of two *top-level
worker functions*, ``_stencil_point`` (a stencil variant) and
``_dace_point`` (a generated DaCe program), mapped through
:func:`repro.perf.active_runner`, so the CLI can fan points out over
worker processes and cache their rows on disk; results are assembled
in submission order, keeping figure tables byte-identical at any
``--jobs`` setting (see docs/performance.md).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field

from repro.hw import HGX_A100_8GPU
from repro.nvshmem.device import Scope
from repro.runtime import MultiGPUContext
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
from repro.faults.profiles import active_fault_profile, get_injector
from repro.perf import active_runner
from repro.perf import warm
from repro.perf.batch import register_batchable
from repro.sim import Tracer
from repro.stencil import StencilConfig, run_variant
from repro.stencil.batch import run_batched_stencil

__all__ = [
    "DEFAULT_GPU_COUNTS",
    "FigureData",
    "Row",
    "STENCIL_VARIANTS",
    "fig22_motivation",
    "fig61_weak_2d",
    "fig61_weak_2d_all",
    "fig62_3d",
    "fig63a_dace_1d",
    "fig63b_dace_2d",
    "fig_auto_overlap",
    "fig_multinode_weak",
    "weak_shape_2d",
    "weak_shape_3d",
    "win_loss",
]

DEFAULT_GPU_COUNTS = (1, 2, 4, 8)
STENCIL_VARIANTS = (
    "baseline_copy",
    "baseline_overlap",
    "baseline_p2p",
    "baseline_nvshmem",
    "cpufree",
    "cpufree_perks",
)

#: the paper's 2D domain-size classes (8-GPU global edge length)
SIZE_CLASSES_2D = {"small": 256, "medium": 2048, "large": 8192}
#: 3D domain (8-GPU global edge length); "large" per the paper's §6.1.2
SIZE_3D = 512


@dataclass
class Row:
    """One measured point of a figure."""

    series: str
    x: int  #: GPU count
    per_iteration_us: float
    comm_us_per_iter: float = 0.0
    overlap_ratio: float = 0.0


@dataclass
class FigureData:
    """All rows of one (sub)figure plus derived headline metrics."""

    figure: str
    title: str
    rows: list[Row]
    headlines: dict[str, float] = field(default_factory=dict)

    def series(self, name: str) -> list[Row]:
        return [r for r in self.rows if r.series == name]

    def at(self, series: str, x: int) -> Row:
        for row in self.rows:
            if row.series == series and row.x == x:
                return row
        raise KeyError(f"no row for {series} at {x} GPUs")

    def speedup(self, ours: str, baseline: str, x: int) -> float:
        """Paper §6 speedup formula, percent."""
        t_base = self.at(baseline, x).per_iteration_us
        t_ours = self.at(ours, x).per_iteration_us
        return (t_base - t_ours) / t_base * 100.0


# ------------------------------ shapes ---------------------------------------


def weak_shape_2d(label_edge: int, gpus: int) -> tuple[int, int]:
    """Global 2D shape (with Dirichlet ring) at ``gpus`` devices for a
    size class labeled by its 8-GPU edge length."""
    rows_per_gpu = label_edge // 8
    if rows_per_gpu < 3:
        raise ValueError("size label too small for the 8-way weak-scaling chunking")
    return (rows_per_gpu * gpus + 2, label_edge + 2)


def weak_shape_3d(label_edge: int, gpus: int) -> tuple[int, int, int]:
    """Global 3D shape at ``gpus`` devices (z-axis slab decomposition)."""
    planes_per_gpu = label_edge // 8
    return (planes_per_gpu * gpus + 2, label_edge + 2, label_edge + 2)


def _stencil_row(variant: str, config: StencilConfig, res) -> Row:
    return Row(
        series=variant,
        x=config.num_gpus,
        per_iteration_us=res.per_iteration_us,
        comm_us_per_iter=res.comm_time_us / config.iterations,
        overlap_ratio=res.overlap_ratio,
    )


def _stencil_point(variant: str, config: StencilConfig) -> Row:
    """Sweep worker: one stencil variant at one configuration."""
    return _stencil_row(variant, config, run_variant(variant, config))


def _stencil_group_key(args: tuple):
    """Batch-group key for :func:`_stencil_point`: everything except
    ``global_shape`` — points in one group run fused as a stack of
    domain sizes.  Faulted and data-carrying points never batch, and
    neither do hierarchical (multi-NVSwitch-domain) ones: rail links
    price transfers against in-flight occupancy on the *pilot* clock,
    which under a vector clock would misprice the other members."""
    variant, config = args
    if config.with_data or config.fault_profile is not None:
        return None
    if variant == "auto_overlap":
        # the variant picks its schedule from the global shape
        # (choose_schedule), so members of a stacked run would not
        # share one chunking — run these points individually
        return None
    if config.node.scaled_to(config.num_gpus).is_hierarchical:
        return None
    rest = tuple(
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name != "global_shape"
    )
    return (variant, len(config.global_shape), rest)


def _run_stencil_group(argtuples) -> list:
    """Fused group runner: one vector-clock simulation for the whole
    stack, demuxed into the exact per-point ``Row`` values."""
    variant = argtuples[0][0]
    configs = [config for _, config in argtuples]
    results = run_batched_stencil(variant, configs)
    return [_stencil_row(variant, config, res)
            for config, res in zip(configs, results)]


register_batchable(_stencil_point, group_key=_stencil_group_key,
                   run=_run_stencil_group)


def _stencil_row_sets(
    specs: list[tuple[dict[int, tuple[int, ...]], tuple[str, ...], int, bool]],
) -> list[list[Row]]:
    """Run several row sets through ONE runner map call.

    Each spec is ``(shapes, variants, iterations, no_compute)``; the
    concatenated task list is mapped once and sliced back per spec.
    One map call means the batch scheduler sees every point of every
    set at once — points that differ only in ``global_shape`` (the same
    variant at several domain sizes) group into one fused simulation.
    Row values and merged metrics are unchanged: map preserves
    submission order, so the slices equal per-spec map calls.
    """
    tasks: list[tuple[str, StencilConfig]] = []
    bounds: list[tuple[int, int]] = []
    for shapes, variants, iterations, no_compute in specs:
        start = len(tasks)
        tasks.extend(
            (variant, StencilConfig(
                global_shape=shape, num_gpus=gpus, iterations=iterations,
                with_data=False, no_compute=no_compute,
            ))
            for gpus, shape in shapes.items()
            for variant in variants
        )
        bounds.append((start, len(tasks)))
    rows = active_runner().map(_stencil_point, tasks)
    return [rows[a:b] for a, b in bounds]


# ------------------------------ Figure 2.2 ---------------------------------------


def fig22_motivation(iterations: int = 40) -> tuple[FigureData, FigureData]:
    """Fig 2.2: (a) pure communication/synchronization overhead with no
    computation, 2-8 GPUs; (b) communication fraction and overlap of
    the CPU-controlled overlapping stencil versus CPU-Free.

    One map runs 2.2a's no-compute points and the two full 8-GPU runs
    (Fig 6.1-small's points); 2.2b reads its fractions off both."""
    variants = ("baseline_overlap", "cpufree")
    shapes = {g: weak_shape_2d(SIZE_CLASSES_2D["small"], g) for g in (2, 4, 8)}
    a_rows, full_rows = _stencil_row_sets([
        (shapes, variants, iterations, True),
        ({8: shapes[8]}, variants, iterations, False),
    ])
    fig_a = FigureData("2.2a", "Pure communication overhead (no compute)", a_rows)

    b_rows: list[Row] = []
    headlines: dict[str, float] = {}
    for full in full_rows:
        nocomp = fig_a.at(full.series, 8)
        b_rows.append(Row(full.series, 8, full.per_iteration_us,
                          comm_us_per_iter=nocomp.per_iteration_us,
                          overlap_ratio=full.overlap_ratio))
        headlines[f"{full.series}_comm_fraction"] = (
            nocomp.per_iteration_us / full.per_iteration_us)
        headlines[f"{full.series}_overlap_ratio"] = full.overlap_ratio
    fig_b = FigureData("2.2b", "Communication fraction and overlap at 8 GPUs",
                       b_rows, headlines)
    return fig_a, fig_b


# ------------------------------ Figure 6.1 ---------------------------------------


def fig61_weak_2d(
    size: str,
    gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
    iterations: int = 40,
    variants: tuple[str, ...] = STENCIL_VARIANTS,
) -> FigureData:
    """Fig 6.1: 2D Jacobi weak scaling for one size class."""
    return fig61_weak_2d_all((size,), gpu_counts, iterations, variants)[0]


def fig61_weak_2d_all(
    sizes: tuple[str, ...] = ("small", "medium", "large"),
    gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
    iterations: int = 40,
    variants: tuple[str, ...] = STENCIL_VARIANTS,
) -> list[FigureData]:
    """Fig 6.1 across size classes, swept in one runner map so each
    (variant, GPU count) runs its sizes as one fused batch."""
    specs = [
        ({g: weak_shape_2d(SIZE_CLASSES_2D[s], g) for g in gpu_counts},
         variants, iterations, False)
        for s in sizes
    ]
    row_sets = _stencil_row_sets(specs)
    figs = []
    for size, rows in zip(sizes, row_sets):
        label_edge = SIZE_CLASSES_2D[size]
        fig = FigureData(
            "6.1", f"2D Jacobi weak scaling ({size}: {label_edge}^2 at 8 GPUs)",
            rows)
        top = max(gpu_counts)
        fig.headlines = {
            "speedup_vs_nvshmem_%": fig.speedup("cpufree", "baseline_nvshmem", top),
            "speedup_vs_copy_%": fig.speedup("cpufree", "baseline_copy", top),
            "speedup_vs_overlap_%": fig.speedup("cpufree", "baseline_overlap", top),
            "perks_vs_best_baseline_%": _perks_vs_best(fig, variants, top),
            "perks_weak_scaling_dropoff_%": _weak_dropoff(fig, "cpufree_perks", gpu_counts),
        }
        figs.append(fig)
    return figs


def _perks_vs_best(fig: FigureData, variants: tuple[str, ...], x: int) -> float:
    baselines = [v for v in variants if v.startswith("baseline")]
    best = min(baselines, key=lambda v: fig.at(v, x).per_iteration_us)
    return fig.speedup("cpufree_perks", best, x)


def _weak_dropoff(fig: FigureData, series: str, gpu_counts: tuple[int, ...]) -> float:
    """Weak-scaling dropoff: per-iteration growth from 1 to max GPUs."""
    lo, hi = min(gpu_counts), max(gpu_counts)
    t1 = fig.at(series, lo).per_iteration_us
    tn = fig.at(series, hi).per_iteration_us
    return (tn - t1) / t1 * 100.0


# --------------------------- Multi-node scaling -----------------------------


def fig_multinode_weak(
    size: str = "small",
    gpu_counts: tuple[int, ...] = (8, 16, 32, 64),
    iterations: int = 10,
    variants: tuple[str, ...] = ("baseline_nvshmem", "cpufree"),
) -> FigureData:
    """Multi-node extension (beyond the paper's single-node testbed):
    2D Jacobi weak scaling across NVSwitch domains.

    Counts above 8 GPUs scale the HGX node hierarchically — 8-GPU
    NVSwitch domains joined by NIC rails — so boundary halo exchanges
    cross rails through the proxy path while interior ones stay on
    NVLink.  The headline is the per-variant weak-scaling dropoff from
    one domain to the largest count: how much of the single-node curve
    survives the rails.  Not part of the default report (the committed
    golden pins the paper's figures); run it by name:
    ``python -m repro.bench multinode``.
    """
    shapes = {g: weak_shape_2d(SIZE_CLASSES_2D[size], g) for g in gpu_counts}
    (rows,) = _stencil_row_sets([(shapes, variants, iterations, False)])
    label_edge = SIZE_CLASSES_2D[size]
    fig = FigureData(
        "MN", f"Multi-node 2D Jacobi weak scaling ({size}: {label_edge}^2 at 8 GPUs)",
        rows)
    fig.headlines = {
        f"{variant}_dropoff_%": _weak_dropoff(fig, variant, gpu_counts)
        for variant in variants
    }
    top = max(gpu_counts)
    if "cpufree" in variants and "baseline_nvshmem" in variants:
        fig.headlines["speedup_vs_nvshmem_%"] = fig.speedup(
            "cpufree", "baseline_nvshmem", top)
    return fig


# --------------------------- Auto-overlap win/loss ---------------------------


def win_loss(cpufree: Row, auto: Row) -> str:
    """``"win"``, ``"tie"`` or ``"loss"`` of ``auto_overlap`` against
    hand-tuned ``cpufree`` at one point: a win is a strictly faster
    per-iteration time.  ``chunks=1`` delegates to cpufree's exact body,
    so ties are bit-exact; anything inside float noise of that is a tie."""
    eps = 1e-9 * cpufree.per_iteration_us
    if auto.per_iteration_us < cpufree.per_iteration_us - eps:
        return "win"
    if auto.per_iteration_us <= cpufree.per_iteration_us + eps:
        return "tie"
    return "loss"


def fig_auto_overlap(
    sizes: tuple[str, ...] = ("small", "medium", "large"),
    gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
    iterations: int = 40,
) -> FigureData:
    """Compiler-derived ``auto_overlap`` vs hand-tuned ``cpufree``.

    One row pair per (size, gpus) point of the figure suite; the
    headlines are the :func:`win_loss` tally.  Opt-in (run by name:
    ``python -m repro.bench auto_overlap``) so the committed golden
    report is unaffected; ``repro.tune --winloss-out`` emits the same
    comparison as byte-stable JSON.
    """
    variants = ("cpufree", "auto_overlap")
    specs = [
        ({g: weak_shape_2d(SIZE_CLASSES_2D[s], g) for g in gpu_counts},
         variants, iterations, False)
        for s in sizes
    ]
    row_sets = _stencil_row_sets(specs)
    rows: list[Row] = []
    outcomes: list[str] = []
    for size, srows in zip(sizes, row_sets):
        for row in srows:
            row.series = f"{row.series}/{size}"
            rows.append(row)
        pairs = iter(srows)
        outcomes += [win_loss(cf, ao) for cf, ao in zip(pairs, pairs)]
    fig = FigureData(
        "AO", "Auto-overlap (compiler schedule) vs hand-tuned cpufree", rows)
    wins, ties, losses = (outcomes.count(o) for o in ("win", "tie", "loss"))
    total = len(outcomes)
    fig.headlines = {
        "wins": float(wins),
        "ties": float(ties),
        "losses": float(losses),
        "win_or_tie_fraction": (wins + ties) / total if total else 0.0,
    }
    return fig


# ------------------------------ Figure 6.2 ---------------------------------------


def fig62_3d(
    gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
    iterations: int = 30,
    variants: tuple[str, ...] = STENCIL_VARIANTS,
) -> dict[str, FigureData]:
    """Fig 6.2: 3D Jacobi — weak scaling, weak-scaling no-compute,
    strong scaling, strong-scaling no-compute."""
    weak_shapes = {g: weak_shape_3d(SIZE_3D, g) for g in gpu_counts}
    strong_shape = weak_shape_3d(SIZE_3D, 8)
    strong_shapes = {g: strong_shape for g in gpu_counts}

    # one map call for all four row sets: each (variant, gpus,
    # no_compute) runs its weak and strong shapes as one fused batch
    weak, weak_nc, strong, strong_nc = _stencil_row_sets([
        (weak_shapes, variants, iterations, False),
        (weak_shapes, variants, iterations, True),
        (strong_shapes, variants, iterations, False),
        (strong_shapes, variants, iterations, True),
    ])
    out: dict[str, FigureData] = {}
    out["weak"] = FigureData("6.2-weak", "3D Jacobi weak scaling", weak)
    out["weak_nocompute"] = FigureData(
        "6.2-weak-nc", "3D Jacobi weak scaling, no compute (comm latency)",
        weak_nc)
    out["strong"] = FigureData(
        "6.2-strong", "3D Jacobi strong scaling (fixed 512^3 domain)", strong)
    out["strong_nocompute"] = FigureData(
        "6.2-strong-nc", "3D Jacobi strong scaling, no compute", strong_nc)

    top = max(gpu_counts)
    nc = out["weak_nocompute"]
    host_controlled = [v for v in variants
                       if v.startswith("baseline") and v != "baseline_nvshmem"]
    best_host = min(host_controlled, key=lambda v: nc.at(v, top).per_iteration_us)
    nc.headlines = {
        "comm_improvement_vs_best_host_controlled_%": nc.speedup("cpufree", best_host, top),
        "comm_improvement_vs_nvshmem_%": nc.speedup("cpufree", "baseline_nvshmem", top),
    }
    strong = out["strong_nocompute"]
    # flatness measured from 2 GPUs (a single GPU has no communication)
    lo = min(g for g in gpu_counts if g >= 2)
    strong.headlines = {
        "cpufree_growth_%": (strong.at("cpufree", top).per_iteration_us
                             / strong.at("cpufree", lo).per_iteration_us - 1) * 100,
        "copy_growth_%": (strong.at("baseline_copy", top).per_iteration_us
                          / strong.at("baseline_copy", lo).per_iteration_us - 1) * 100,
    }
    return out


# ------------------------------ Figure 6.3 ---------------------------------------


#: DaCe programs by name: builder and CPU-Free conjugates
_DACE_PROGRAMS = {
    "1d": (build_jacobi_1d_sdfg, CONJUGATES_1D),
    "2d": (build_jacobi_2d_sdfg, CONJUGATES_2D),
}


def _pipelined_sdfg(program, kind, options):
    """Build + transform one DaCe program (the warm-start template)."""
    build, conjugates = _DACE_PROGRAMS[program]
    sdfg = build()
    if kind == "baseline":
        return baseline_pipeline(sdfg)
    return cpufree_pipeline(sdfg, conjugates, **dict(options))


def _dace_point(program: str, kind: str, decomp, tsteps: int,
                options: tuple = (), comm_scope: Scope = Scope.THREAD,
                fault_profile: str | None = None) -> Row:
    """Sweep worker: one timing-only run of a DaCe program.

    ``program`` names a :data:`_DACE_PROGRAMS` entry, ``kind`` its
    pipeline (``"baseline"`` or ``"cpufree"``) and ``decomp`` a frozen
    decomposition dataclass, so its ``repr`` keys the point.  Timing-only
    runs need just the per-rank scalar parameters, so the (huge) global
    domain is never allocated.  ``options`` are ``(name, value)``
    keyword pairs for :func:`cpufree_pipeline` and ``comm_scope`` is the
    executor's put scope: the figures keep the defaults, and the §5
    ablations of :mod:`repro.bench.paper` vary one of them per run.
    """
    # The transformed graph depends only on (program, pipeline), never
    # on the decomposition or fault profile, so one worker process
    # builds it once and every later point starts from a deep copy.
    # The copy matters for determinism: executor plan attachment (and
    # its hit/miss metrics) must happen freshly per point, so runs are
    # byte-identical whether the template was warm or cold.  Tasklet
    # *compiles* still amortize through the content-keyed code cache
    # in repro.sdfg.codegen.executor, which is metric-invisible.
    sdfg = warm.warm(("dace-sdfg", program, kind, options),
                     lambda: _pipelined_sdfg(program, kind, options),
                     copy=copy.deepcopy)
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(decomp.ranks), tracer=Tracer(),
                          faults=get_injector(fault_profile))
    executor = SDFGExecutor(sdfg, ctx, with_data=False, comm_scope=comm_scope)
    report = executor.run(decomp.rank_params(tsteps))
    return Row(
        series=f"dace_{kind}", x=decomp.ranks,
        per_iteration_us=report.per_iteration_us,
        comm_us_per_iter=report.comm_time_us / report.iterations,
    )


def _dace_rows(program: str, decomps: list, tsteps: int) -> list[Row]:
    """Baseline and CPU-Free rows of ``program`` at each decomposition."""
    tasks = [(program, kind, decomp, tsteps, (), Scope.THREAD,
              active_fault_profile())
             for decomp in decomps for kind in ("baseline", "cpufree")]
    return active_runner().map(_dace_point, tasks)


def fig63a_dace_1d(
    gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
    per_gpu_n: int = 1_000_000,
    tsteps: int = 11,
) -> FigureData:
    """Fig 6.3a: DaCe Jacobi 1D, discrete MPI baseline vs generated
    CPU-Free, weak scaling (constant elements per GPU)."""
    rows = _dace_rows("1d", [SlabDecomposition1D(per_gpu_n * gpus, gpus)
                             for gpus in gpu_counts], tsteps)
    fig = FigureData("6.3a", "DaCe Jacobi 1D: baseline vs CPU-Free", rows)
    top = max(gpu_counts)
    base, free = fig.at("dace_baseline", top), fig.at("dace_cpufree", top)
    fig.headlines = {
        "total_improvement_%": fig.speedup("dace_cpufree", "dace_baseline", top),
        "comm_improvement_%": (base.comm_us_per_iter - free.comm_us_per_iter)
        / base.comm_us_per_iter * 100.0,
    }
    return fig


def _fig63b_decomp(base_edge: int, gpus: int) -> GridDecomposition2D:
    """Fig 6.3b's decomposition: the global interior doubles
    axis-0-first per GPU doubling."""
    gy, gx = base_edge, base_edge
    q, axis = gpus, 0
    while q > 1:
        if axis == 0:
            gy *= 2
        else:
            gx *= 2
        axis ^= 1
        q //= 2
    return GridDecomposition2D(gy, gx, gpus)


def fig63b_dace_2d(
    gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
    base_edge: int = 2048,
    tsteps: int = 6,
) -> FigureData:
    """Fig 6.3b: DaCe Jacobi 2D with strided east/west halos.

    The global domain grows axis-0-first while the process grid is
    wide (py <= px), so P = 2 and 8 produce rectangular tiles with
    long strided columns — the baseline's unbalanced-partition bump.
    """
    rows = _dace_rows("2d", [_fig63b_decomp(base_edge, gpus) for gpus in gpu_counts],
                      tsteps)
    fig = FigureData("6.3b", "DaCe Jacobi 2D: baseline vs CPU-Free (strided halos)", rows)
    top, lo = max(gpu_counts), min(gpu_counts)
    base = fig.at("dace_baseline", top)
    fig.headlines = {
        "total_improvement_%": fig.speedup("dace_cpufree", "dace_baseline", top),
        "baseline_comm_fraction_%": base.comm_us_per_iter / base.per_iteration_us * 100.0,
        "cpufree_weak_scaling_efficiency_%": (
            fig.at("dace_cpufree", lo).per_iteration_us
            / fig.at("dace_cpufree", top).per_iteration_us * 100.0),
    }
    return fig

