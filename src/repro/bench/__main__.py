"""Command-line entry point: regenerate every paper figure.

Usage::

    python -m repro.bench                 # all figures, print tables
    python -m repro.bench 6.1 6.3b        # a subset
    python -m repro.bench --out report.txt
    python -m repro.bench --jobs 4        # fan sweep points out over processes
    python -m repro.bench --no-cache      # force recomputation
    python -m repro.bench --profile       # cProfile the run (implies --jobs 1)
    python -m repro.bench --paper         # the report, then the paper-claim verdict

Sweep points run through :mod:`repro.perf`: independent figure
configurations fan out over worker processes (``--jobs``) and replay
from an on-disk result cache keyed by a content hash of configuration
+ simulator sources.  Each point is cached as it completes, so
rerunning with the same ``--cache-dir`` after a finished or killed
run replays every finished point and computes only the rest.  The
report body is byte-identical at any ``--jobs`` setting and on replay;
wall-clock timings and cache statistics print to stdout only, never
into ``--out``.  ``--paper`` appends the verdict of
:mod:`repro.bench.paper` to the same report, read from the figures it
just rendered, and exits 1 on a miss.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext

from repro.bench.figures import (
    DEFAULT_GPU_COUNTS,
    STENCIL_VARIANTS,
    fig22_motivation,
    fig61_weak_2d_all,
    fig62_3d,
    fig63a_dace_1d,
    fig63b_dace_2d,
    fig_auto_overlap,
    fig_multinode_weak,
)
from repro.bench.report import render_figure
from repro.cliutil import cli_entry
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.perf import ResultCache, SweepRunner, use_runner
from repro.perf.cache import DEFAULT_CACHE_DIR


def _run_22():
    a, b = fig22_motivation()
    return [a, b]


def _run_61():
    return fig61_weak_2d_all(("small", "medium", "large"))


def _run_62():
    figs = fig62_3d()
    return [figs[k] for k in ("weak", "weak_nocompute", "strong", "strong_nocompute")]


FIGURES = {
    "2.2": _run_22,
    "6.1": _run_61,
    "6.2": _run_62,
    "6.3a": lambda: [fig63a_dace_1d()],
    "6.3b": lambda: [fig63b_dace_2d()],
}

#: opt-in figures, run only when named explicitly — kept out of the
#: default selection so the committed golden report (which pins the
#: paper's figure set byte-for-byte) is unaffected
EXTRA_FIGURES = {
    "multinode": lambda: [fig_multinode_weak()],
    "auto_overlap": lambda: [fig_auto_overlap()],
}

#: static sweep-shape facts per figure id, for --list-figures: the
#: variants (series) each figure runs and its sweep-point count.  Kept
#: in lockstep with the figure definitions in repro.bench.figures —
#: tests/bench pins the counts against the definitions' constants.
_G = len(DEFAULT_GPU_COUNTS)
_V = len(STENCIL_VARIANTS)
FIGURE_CATALOG = {
    "2.2": ("Motivation: comm overhead + comm fraction at 8 GPUs",
            ("baseline_overlap", "cpufree"), 3 * 2 + 2),
    "6.1": ("2D Jacobi weak scaling, 3 size classes",
            STENCIL_VARIANTS, 3 * _G * _V),
    "6.2": ("3D Jacobi weak+strong scaling, each with no-compute",
            STENCIL_VARIANTS, 4 * _G * _V),
    "6.3a": ("DaCe Jacobi 1D: baseline vs generated CPU-Free",
             ("dace_baseline", "dace_cpufree"), _G * 2),
    "6.3b": ("DaCe Jacobi 2D with strided halos",
             ("dace_baseline", "dace_cpufree"), _G * 2),
    "multinode": ("2D weak scaling across NVSwitch domains (8-64 GPUs)",
                  ("baseline_nvshmem", "cpufree"), 4 * 2),
    "auto_overlap": ("Auto-overlap compiler schedule vs cpufree win/loss",
                     ("cpufree", "auto_overlap"), 3 * _G * 2),
}


def _list_figures() -> str:
    """Render the figure catalog (no sweeps run)."""
    lines = ["figure        points  variants",
             "------        ------  --------"]
    for figure_id in [*sorted(FIGURES), *sorted(EXTRA_FIGURES)]:
        title, variants, points = FIGURE_CATALOG[figure_id]
        extra = "*" if figure_id in EXTRA_FIGURES else ""
        lines.append(f"{figure_id + extra:<14}{points:>6}  {', '.join(variants)}")
        lines.append(f"              {'':>6}  {title}")
    lines.append("")
    lines.append("(* = opt-in figure, runs only when named explicitly)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures on the simulator.",
    )
    parser.add_argument("figures", nargs="*", default=[],
                        help=f"figure ids to run (default: all of {sorted(FIGURES)})")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--list-figures", action="store_true",
                        help="list every figure id (including opt-in extras) "
                             "with its variants and sweep-point count, "
                             "without running anything")
    parser.add_argument("--paper", action="store_true",
                        help="after the default figure report, evaluate every "
                             "paper claim on its figures plus the ablation "
                             "runs, append the verdict table, and exit 1 if "
                             "any claim misses its band")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for sweep points (default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--profile", nargs="?", const="repro-bench.prof",
                        default=None, metavar="PATH",
                        help="cProfile the run and dump stats to PATH "
                             "(default: repro-bench.prof); forces --jobs 1")
    parser.add_argument("--profile-out", type=str, default=None, metavar="PATH",
                        help="write per-point cProfile stats (sorted by "
                             "cumulative time) to PATH, one section per "
                             "computed sweep point; forces --jobs 1")
    parser.add_argument("--batch", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="fuse compatible cache-miss sweep points into one "
                             "vector-clock simulation (default on; --no-batch "
                             "forces the per-point path — output and cache "
                             "entries are byte-identical either way). Batched "
                             "runs record no metrics, so --metrics-out runs "
                             "every point on its own")
    parser.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                        help="collect observability metrics across the run and "
                             "write the registry dump (JSON) to PATH; the dump "
                             "is byte-identical at any --jobs setting")
    parser.add_argument("--fault-profile", type=str, default=None, metavar="NAME",
                        help="run every figure under this fault profile "
                             "(e.g. transient or transient@7); the profile is "
                             "recorded in the metrics dump and in the report "
                             "header")
    args = parser.parse_args(argv)

    if args.list_figures:
        print(_list_figures())
        return 0

    if args.paper and args.figures:
        parser.error("--paper reads the default figure set; name no figures")
    if args.paper and args.fault_profile is not None:
        parser.error("--paper checks the clean run; drop --fault-profile")
    all_figures = {**FIGURES, **EXTRA_FIGURES}
    selected = args.figures or sorted(FIGURES)
    unknown = [f for f in selected if f not in all_figures]
    if unknown:
        parser.error(f"unknown figure id(s) {unknown}; "
                     f"choose from {sorted(all_figures)}")

    jobs = 1 if (args.profile or args.profile_out) else args.jobs
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    profile_sink: list[tuple[str, str]] | None = [] if args.profile_out else None
    runner = SweepRunner(jobs=jobs, cache=cache, profile_sink=profile_sink,
                         batch=args.batch)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    registry = MetricsRegistry() if args.metrics_out else None
    sections: list[str] = []
    figures: dict[str, list] = {}
    timings: list[tuple[str, float]] = []
    if args.fault_profile is not None:
        # the header is part of the report body so a faulted report can
        # never be mistaken for (or diffed against) a clean one
        sections.append(f"[fault profile: {args.fault_profile}]")
        sections.append("")
        if registry is not None:
            registry.gauge("bench.fault_profile", profile=args.fault_profile).set(1)
    from repro.faults.profiles import use_fault_profile

    with use_fault_profile(args.fault_profile), use_runner(runner), (
            use_metrics(registry) if registry is not None else nullcontext()):
        if profiler is not None:
            profiler.enable()
        for figure_id in selected:
            started = time.perf_counter()
            figures[figure_id] = all_figures[figure_id]()
            for fig in figures[figure_id]:
                sections.append(render_figure(fig))
                sections.append("")
            timings.append((figure_id, time.perf_counter() - started))
        if profiler is not None:
            profiler.disable()

    results = None
    if args.paper:
        from repro.bench.paper import evaluate_claims, render_claims

        # outside the runner and the registry: the ablation runs are
        # not sweep points, so they neither hit the cache nor add metrics
        results = evaluate_claims(figures)
        sections += [render_claims(results), ""]
    report = "\n".join(sections)
    print(report)
    # timing / cache lines go to stdout only: the report body must stay
    # byte-identical across --jobs settings and cache hits vs misses
    for figure_id, elapsed in timings:
        print(f"(figure {figure_id} regenerated in {elapsed:.1f}s wall time)")
    if cache is not None:
        print(f"(sweep cache: {runner.hits} hit(s), {runner.misses} miss(es) "
              f"in {args.cache_dir})")
    if args.batch:
        # batched runs record no metrics: a metered sweep fuses nothing
        why = "" if registry is None else "; --metrics-out runs every point on its own"
        print(f"(batched execution: {runner.batch_points} point(s) fused into "
              f"{runner.batch_groups} run(s), {runner.batch_fallbacks} "
              f"fallback(s){why})")
    if cache is not None and cache.quarantined:
        for key, reason in cache.quarantined:
            print(f"(cache entry {key[:12]}… quarantined: {reason} — "
                  f"recomputed)")
    if runner.quarantined:
        for point in runner.quarantined:
            print(f"(sweep point quarantined after {point.attempts} "
                  f"attempt(s): {point.identity} — {point.reason})")
    if profile_sink is not None:
        with open(args.profile_out, "w") as fh:
            for identity, text in profile_sink:
                fh.write(f"==== {identity}\n{text}\n")
        print(f"(per-point profiles for {len(profile_sink)} computed point(s) "
              f"written to {args.profile_out})")
    if profiler is not None:
        import pstats

        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print(f"(profile written to {args.profile}; top functions:)")
        stats.print_stats(10)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"report written to {args.out}")
    if registry is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(registry.to_json())
        print(f"({len(registry)} metric series written to {args.metrics_out})")
    return 0 if results is None or all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(cli_entry(main))
