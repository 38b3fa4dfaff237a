"""The repository benchmark.

Usage (from the root of a checkout)::

    python -m benchmarks.harness run [-w WORKLOAD ...] [--seed N] [--passes N]
        [--trace-passes K] [--out PATH] [--spans DIR]
        [--history PATH --run-label L]
    python -m benchmarks.harness trace [same options; 3 + 3 passes by default]
    python -m benchmarks.harness compare A.json B.json
    python -m benchmarks.harness bench --workload W --seed N --seconds S --trace 0|1

``run`` measures the end-to-end metrics with tracing off (plus ``K``
traced passes for the per-layer breakdown); ``trace`` is ``run`` with
three untraced and three traced passes per workload; ``compare`` gives
per-metric verdicts between two results documents; ``bench`` measures
one workload for a fixed time and prints one JSON summary line (it is
the command ``BENCHMARK.json`` names).  Every command checks the
program's outputs and exits non-zero when an op fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.harness import driver
from benchmarks.harness.layers import LAYERS, layer_metric_specs

#: end-to-end metrics in ``BENCHMARK.json``: the ones every workload has
#: (compile_s exists only on ``compile``; sim_us_per_iter is exact, so
#: ``compare`` gates it, not a relative bound)
BENCH_END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _print_run(name: str, entry: dict) -> None:
    print(f"{name}: {entry['passes']} passes, {entry['ops']} ops, "
          f"{entry['failed']} failed")
    for metric, m in entry["metrics"].items():
        bound = "exact" if m["bound"] == 0.0 else f"{m['bound']:.0%}"
        print(f"  {metric:<16} {m['median']:>12.6g} {m['unit']:<7} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]  bound {bound}")
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")


def _print_trace(name: str, entry: dict) -> None:
    layers = entry["layers"]
    print(f"{name}: traced pass {entry['traced_pass_s']:.3f} s, overhead "
          f"{layers['harness.trace_overhead']['median']:+.1%}")
    print(f"  {'layer':<13} {'self_s':>9} {'share':>7} {'calls':>10}")
    for layer in LAYERS:
        calls = layers.get(f"{layer}.calls", {}).get("median", "")
        print(f"  {layer:<13} {layers[f'{layer}.self_s']['median']:>9.4f} "
              f"{layers[f'{layer}.share']['median']:>7.1%} {calls:>10}")
    for metric, m in layers.items():
        if metric.rsplit(".", 1)[1] not in ("self_s", "share", "calls"):
            print(f"  {metric:<28} {m['median']:>14.6g} {m['unit']}")
    top = sorted(entry["boundaries"].items(), key=lambda kv: -kv[1]["self_s"])
    print("  top boundaries by self time:")
    for key, b in top[:8]:
        print(f"    {key:<60} {b['self_s']:>8.4f} s {b['calls']:>9g} calls")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.history and not args.run_label:
        raise SystemExit("--history needs --run-label")
    results = {}
    for name in driver.workload_names(args.workload):
        n = args.passes or driver.WORKLOADS[name].passes
        _log(f"{name}: {n} untraced + {args.trace_passes} traced passes")
        results[name] = entry = driver.measure(
            name, args.seed, passes=n, traced=args.trace_passes,
            spans_dir=args.spans, log=_log)
        _print_run(name, entry)
        if args.trace_passes:
            _print_trace(name, entry)
    doc = driver.document(args.seed, results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"(results written to {args.out})")
    if args.history:
        sys.path.insert(0, str(driver.SRC))
        from repro.obs.history import HistoryStore

        n = HistoryStore(args.history).extend(driver.history_records(doc, args.run_label))
        print(f"({n} history records appended to {args.history} "
              f"as run {args.run_label!r})")
    failed = any(e["failed"] or e.get("unbalanced_passes") for e in results.values())
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from benchmarks.harness.compare import compare, load

    lines, regressed = compare(load(args.a), load(args.b))
    print("\n".join(lines))
    return 1 if regressed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.workload not in driver.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    entry = driver.measure(args.workload, args.seed, seconds=args.seconds,
                           traced=args.trace, log=_log)
    if args.trace:
        specs = layer_metric_specs()
        metrics = {name: {"value": entry["layers"][name]["median"],
                          "unit": specs[name][0]} for name in specs}
    else:
        metrics = {name: {"value": entry["metrics"][name]["median"],
                          "unit": entry["metrics"][name]["unit"]}
                   for name in BENCH_END_TO_END}
    for failure in entry["failures"]:
        _log(f"FAILED {failure}")
    print(json.dumps({"correct": entry["failed"] == 0, "attempted": entry["ops"],
                      "failed": entry["failed"], "metrics": metrics}))
    return 1 if entry["failed"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, passes, traced in (("run", None, 0), ("trace", 3, 3)):
        p = sub.add_parser(name)
        p.add_argument("-w", "--workload", action="append", default=None,
                       help="workload to measure (repeatable; default: all)")
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--passes", type=int, default=passes,
                       help="untraced passes per workload (default: "
                            + ("per workload)" if passes is None else f"{passes})"))
        p.add_argument("--trace-passes", type=int, default=traced,
                       help=f"traced passes per workload (default: {traced})")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the results document (JSON) here")
        p.add_argument("--spans", default=None, metavar="DIR",
                       help="write each traced pass's spans (Chrome trace) here")
        p.add_argument("--history", default=None, metavar="PATH",
                       help="append one perf-history record per workload and pass")
        p.add_argument("--run-label", default=None)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    bench_p = sub.add_parser("bench")
    bench_p.add_argument("--workload", required=True)
    bench_p.add_argument("--seed", type=int, required=True)
    bench_p.add_argument("--seconds", type=float, required=True)
    bench_p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.command == "compare":
        return _cmd_compare(args)
    driver.require_program()
    try:
        return _cmd_bench(args) if args.command == "bench" else _cmd_run(args)
    except driver.PassError as exc:
        _log(f"harness: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
