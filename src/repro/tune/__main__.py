"""Command-line autotuner entry point.

Usage::

    python -m repro.tune --size large --gpus 8          # tune one config
    python -m repro.tune --budget 12 --out schedule.json
    python -m repro.tune --jobs 4 --cache-dir tune-cache
    python -m repro.tune --cache-dir tune-cache   # rerun: cache replay
    python -m repro.tune --winloss-out BENCH_PR10.json  # win/loss table

Trials run through the same :mod:`repro.perf` machinery as
``repro.bench``: points fan out over ``--jobs`` processes and replay
from the on-disk result cache, so a rerun on an unchanged repo reports
``0 miss(es)``.  The emitted schedule JSON is byte-stable (identical
repo -> identical bytes), which CI asserts by tuning twice and
``cmp``-ing the files.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import DEFAULT_GPU_COUNTS, SIZE_CLASSES_2D
from repro.cliutil import cli_entry
from repro.obs.stablejson import dump_stable
from repro.perf import ResultCache, SweepRunner
from repro.perf.cache import DEFAULT_CACHE_DIR
from repro.tune import schedule_payload, tune, win_loss_payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Autotune the auto-overlap schedule for one "
                    "(app, topology, size) configuration.",
    )
    parser.add_argument("--size", type=str, default="large",
                        choices=sorted(SIZE_CLASSES_2D),
                        help="2D domain size class (default: large)")
    parser.add_argument("--gpus", type=int, default=8,
                        help="GPU count / topology scale (default: 8)")
    parser.add_argument("--iterations", type=int, default=20,
                        help="time steps per trial (default: 20)")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="measure at most N candidates from the "
                             "priority-ordered grid (default: all)")
    parser.add_argument("--out", type=str, default=None, metavar="PATH",
                        help="write the byte-stable best-schedule JSON here")
    parser.add_argument("--winloss-out", type=str, default=None, metavar="PATH",
                        help="also sweep auto_overlap vs cpufree across the "
                             "figure suite's (size x gpus) points and write "
                             "the win/loss table here (BENCH_PR10.json)")
    parser.add_argument("--winloss-iterations", type=int, default=40,
                        help="time steps per win/loss point (default: 40, "
                             "matching the figure suite)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for trial points (default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        parser.error(f"--budget must be at least 1, got {args.budget}")

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = SweepRunner(jobs=args.jobs, cache=cache)

    result = tune(args.size, args.gpus, args.iterations,
                  budget=args.budget, runner=runner)
    print(f"tuned jacobi2d size={args.size} gpus={args.gpus} "
          f"iterations={args.iterations}: {len(result.trials)} trial(s)")
    print(f"  best schedule: {result.best.describe()} "
          f"-> {result.best_per_iteration_us:.3f} us/iter")
    print(f"  cost model:    {result.model.describe()} "
          f"-> {result.model_per_iteration_us:.3f} us/iter "
          f"(regret {result.model_regret_percent:.2f}%)")
    print(f"  hand-tuned cpufree: {result.cpufree_per_iteration_us:.3f} us/iter")
    if args.out:
        dump_stable(schedule_payload(result), args.out)
        print(f"best-schedule JSON written to {args.out}")

    if args.winloss_out:
        table = win_loss_payload(
            gpu_counts=DEFAULT_GPU_COUNTS,
            iterations=args.winloss_iterations, runner=runner)
        dump_stable(table, args.winloss_out)
        print(f"win/loss table written to {args.winloss_out}: "
              f"{table['wins']} win(s), {table['ties']} tie(s), "
              f"{table['losses']} loss(es) over {len(table['points'])} "
              f"point(s)")

    # stdout-only diagnostics, mirroring repro.bench: the JSON artifacts
    # above must stay byte-identical across cache states and --jobs
    if cache is not None:
        print(f"(sweep cache: {runner.hits} hit(s), {runner.misses} miss(es) "
              f"in {args.cache_dir})")
    print(f"(batched execution: {runner.batch_points} point(s) fused into "
          f"{runner.batch_groups} run(s), {runner.batch_fallbacks} "
          f"fallback(s))")
    return 0


if __name__ == "__main__":
    sys.exit(cli_entry(main))
