"""One benchmark pass in a fresh interpreter.

Usage::

    PYTHONPATH=src python -m benchmarks.harness.child WORKLOAD --seed N
        [--trace [--spans PATH]] [--setup-only]

Prints one JSON object as the last line of standard output:
``t_start`` (``time.monotonic()`` at the start of the timed section —
the parent subtracts its spawn time to get ``setup_s``), ``pass_s``,
``peak_rss_mb`` (read before the correctness checks), the simulated
results, the checked ops and, with ``--trace``, the per-layer report.
Host times are reported at reference speed (``speed.py``): the child
times the calibration loop when it starts, right before the timed
section, and after each chunk of it, and scales each chunk by the mean
of the loop times on either side; the raw wall times are kept as
``*_wall_s``.  ``--setup-only`` stops after set-up (it warms the file
and byte-code caches before timed passes).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from benchmarks.harness.speed import REFERENCE_S, calibrate


def _timed(steps, calib: float, profiler) -> tuple[object, dict]:
    """Drive a workload's timed generator chunk by chunk; returns its
    outputs and ``{chunk tag: [wall s, s at reference speed]}``."""
    totals: dict = {}
    while True:
        started = time.perf_counter()
        try:
            tag = next(steps)
            out = None
        except StopIteration as stop:
            tag, out = None, stop.value
        elapsed = time.perf_counter() - started
        if profiler is not None:
            profiler.pause()
        after, _ = calibrate(repeats=1)
        total = totals.setdefault(tag, [0.0, 0.0])
        total[0] += elapsed
        total[1] += elapsed * REFERENCE_S / ((calib + after) / 2)
        calib = after
        if out is not None:
            return out, totals
        if profiler is not None:
            profiler.resume()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness.child")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, metavar="PATH")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    calib_start, spent_start = (0.0, 0.0) if args.setup_only else calibrate()

    from benchmarks.harness.reference import geomean
    from benchmarks.harness.workloads import ROOT, WORKLOADS

    workload = WORKLOADS[args.workload]
    profiler = None
    if args.setup_only:
        workload.prepare(args.seed)
        print(json.dumps({"setup": True}))
        return 0
    if args.trace:
        from benchmarks.harness.layers import Profiler, layer_metric_specs

        profiler = Profiler(str(ROOT / "src"), record_spans=args.spans is not None)
        profiler.install()
    state = workload.prepare(args.seed)
    calib_before, spent_before = calibrate()

    t_start = time.monotonic()
    if profiler is not None:
        profiler.start()
    out, chunks = _timed(workload.run(state), calib_before, profiler)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_wall_s = sum(wall for wall, _ in chunks.values())
    pass_s = sum(scaled for _, scaled in chunks.values())
    speed = pass_s / pass_wall_s
    compile_wall_s, compile_s = chunks.get("compile", (None, None))

    if profiler is not None:
        profiler.uninstall()
    ops = []
    try:
        ops = [(name, bool(ok)) for name, ok in workload.check(state, out)]
    except Exception:  # a crashing check is a failed op, not a lost pass
        traceback.print_exc()
        ops.append(("checks ran to completion", False))
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "t_start": t_start,
        # set-up at reference speed is finished by the parent, which
        # knows the spawn time: (t_start - spawn - calib_spent_s) x factor
        "calib_spent_s": spent_start + spent_before,
        "setup_speed": REFERENCE_S / ((calib_start + calib_before) / 2),
        "calib_s": [calib_start, calib_before],
        "pass_s": pass_s,
        "pass_wall_s": pass_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "sim_us_per_iter": geomean(out.sim_us),
        "sim_runs": len(out.sim_us),
        "compile_s": compile_s,
        "compile_wall_s": compile_wall_s,
        "fingerprints": out.fingerprints,
        "ops": len(ops),
        "failures": [name for name, ok in ops if not ok],
    }
    if profiler is not None:
        result["trace"] = report = profiler.report()
        for name, (unit, _) in layer_metric_specs().items():
            if unit == "s":
                report["metrics"][name] *= speed
            elif unit == "1/s":
                report["metrics"][name] /= speed
        if args.spans:
            result["trace"]["spans"] = profiler.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
