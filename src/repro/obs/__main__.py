"""Inspection CLI for the observability layer.

Usage::

    python -m repro.obs summary                  # run a small stencil, report
    python -m repro.obs summary --variant baseline_copy --gpus 4
    python -m repro.obs links --metrics-out metrics.json
    python -m repro.obs ops --trace-out trace.json
    python -m repro.obs critical-path --iterations 8
    python -m repro.obs timeline --variant cpufree --gpus 4
    python -m repro.obs whatif --scale comm=0.5
    python -m repro.obs regress perf-history.jsonl --rtol 0.05
    python -m repro.obs diff old.json new.json --threshold 0.05

The run subcommands (``summary`` / ``links`` / ``ops`` /
``critical-path`` / ``timeline`` / ``whatif``) execute one stencil
variant on the simulator with metrics and tracing enabled and print the
corresponding report table.  ``--metrics-out`` writes the byte-stable
registry dump (same bytes on every run of the same configuration, at
any ``--jobs``); ``--trace-out`` writes the Chrome-trace JSON (open in
Perfetto / ``chrome://tracing``).

``timeline`` prints the per-PE phase gantt and utilization table
(:mod:`repro.obs.timeline`); ``--timeline-out`` writes the byte-stable
timeline document.  ``whatif`` replays the run's span DAG with scaled
resource costs (:mod:`repro.obs.whatif`) and ranks the predicted
savings; ``--scale compute=0.5`` (repeatable; also ``comm``, ``host``,
or a ``wire.pe0->*``-style link pattern) probes one custom scenario
instead of the default x2 sweep.

``regress`` compares two runs out of a perf-history JSONL file
(written by ``python -m repro.bench --history``) and exits 1 when any
point's median moved past its noise tolerance in the bad direction.

``diff`` compares two metric dumps (registry dumps or any nested JSON
of numbers, e.g. ``BENCH_*.json``) and exits with status 1 when any
metric increased by more than ``--threshold`` (relative).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cliutil import CliError, cli_entry, parse_shape
from repro.obs.critical import critical_path
from repro.obs.diff import diff_metrics, load_metrics
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.report import (
    critical_path_table,
    links_table,
    ops_table,
    summary_table,
)
from repro.obs.whatif import check_scale

RUN_COMMANDS = ("summary", "links", "ops", "critical-path", "timeline", "whatif")


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", default="cpufree",
                     help="stencil variant to run (default: cpufree)")
    sub.add_argument("--gpus", type=int, default=2,
                     help="number of GPUs/PEs (default: 2)")
    sub.add_argument("--shape", type=parse_shape, default=(66, 130),
                     help="global domain shape, e.g. 66x130 (default)")
    sub.add_argument("--iterations", type=int, default=4,
                     help="stencil iterations (default: 4)")
    sub.add_argument("--no-compute", action="store_true",
                     help="communication/synchronization only (paper's "
                          "no-compute mode)")
    sub.add_argument("--metrics-out", metavar="PATH",
                     help="write the metrics registry dump (JSON) to PATH")
    sub.add_argument("--trace-out", metavar="PATH",
                     help="write the Chrome-trace JSON to PATH")
    sub.add_argument("--top", type=int, default=5,
                     help="rows in top-k listings (default: 5)")
    sub.add_argument("--fault-profile", metavar="NAME", default=None,
                     help="run under this fault profile (e.g. transient or "
                          "lost_signal@7); recorded in the metrics dump")
    sub.add_argument("--domain-gpus", type=int, default=None, metavar="N",
                     help="NVSwitch domain size: GPU counts above N build "
                          "the hierarchical multi-node topology (N-GPU "
                          "domains joined by NIC rails); default: the "
                          "node preset's full size")
    sub.add_argument("--sanitize", action="store_true",
                     help="attach the happens-before race detector "
                          "(repro.sanitize); findings are printed, added to "
                          "the trace as instant events, and exit status 1")


def _run_variant(args: argparse.Namespace):
    """Execute the configured stencil run under a fresh registry."""
    # import here so `diff`/`regress` work without pulling in the simulator
    from repro.stencil.base import VARIANTS, StencilConfig

    if args.variant not in VARIANTS:
        raise CliError(
            f"unknown variant {args.variant!r}; choose from {sorted(VARIANTS)}"
        )
    registry = MetricsRegistry()
    with use_metrics(registry):
        extra = {}
        if args.domain_gpus is not None:
            if args.domain_gpus <= 0:
                raise CliError("--domain-gpus must be positive")
            from dataclasses import replace

            from repro.hw import HGX_A100_8GPU

            extra["node"] = replace(
                HGX_A100_8GPU,
                num_gpus=min(args.domain_gpus, args.gpus),
                nvswitch_domain_gpus=args.domain_gpus,
            )
        config = StencilConfig(
            global_shape=args.shape,
            num_gpus=args.gpus,
            iterations=args.iterations,
            no_compute=args.no_compute,
            fault_profile=args.fault_profile,
            **extra,
        )
        variant = VARIANTS[args.variant](config)
        sanitizer = None
        if getattr(args, "sanitize", False):
            from repro.sanitize import attach_sanitizer

            sanitizer = attach_sanitizer(variant.ctx)
        result = variant.run()
    findings = []
    if sanitizer is not None:
        from repro.sanitize import detect_races

        findings = detect_races(sanitizer)
        # race findings become Chrome instant events, anchored at the
        # moment the second (completing) access of each pair happened
        for finding in findings:
            result.tracer.add_instant(
                finding.finding_id, finding.second.time_us,
                category="race", args=finding.describe(),
            )
    return result, registry, findings


def _run_meta(args: argparse.Namespace) -> dict:
    """The self-describing ``run`` block embedded in JSON documents."""
    meta = {
        "variant": args.variant,
        "shape": list(args.shape),
        "gpus": args.gpus,
        "iterations": args.iterations,
        "no_compute": args.no_compute,
        "fault_profile": args.fault_profile,
    }
    # topology overrides appear only when requested, so the default
    # run block (and the goldens pinning it) stays byte-identical
    if args.domain_gpus is not None:
        meta["domain_gpus"] = args.domain_gpus
    return meta


def _write_outputs(args: argparse.Namespace, result, registry: MetricsRegistry) -> None:
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(registry.to_json())
        print(f"(metrics dump written to {args.metrics_out})", file=sys.stderr)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(result.tracer.to_chrome_trace(), fh, indent=1)
            fh.write("\n")
        print(f"(chrome trace written to {args.trace_out})", file=sys.stderr)


def _parse_scale(text: str) -> tuple[str, float]:
    resource, sep, factor = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"bad scale {text!r}: expected resource=factor, e.g. comm=0.5")
    try:
        value = float(factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad scale factor {factor!r} in {text!r}") from None
    try:
        check_scale(resource, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return resource, value


def _timeline_command(args: argparse.Namespace, result) -> None:
    from repro.obs.stablejson import dump_stable
    from repro.obs.timeline import render_gantt, timeline_payload, timeline_table

    spans = result.tracer.spans
    payload = timeline_payload(spans, meta=_run_meta(args))
    print(render_gantt(spans, width=args.width))
    print()
    print(timeline_table(payload))
    if args.timeline_out:
        dump_stable(payload, args.timeline_out)
        print(f"(timeline written to {args.timeline_out})", file=sys.stderr)


def _whatif_command(args: argparse.Namespace, result) -> None:
    from repro.obs.stablejson import dump_stable
    from repro.obs.whatif import DEFAULT_SCENARIOS, Scenario, whatif_report, whatif_table

    if args.scale:
        resources = {"compute": 1.0, "comm": 1.0, "host": 1.0}
        links = {}
        for resource, factor in args.scale:
            if resource in resources:
                resources[resource] = factor
            elif resource.startswith("wire."):
                links[resource] = factor
            else:
                raise CliError(
                    f"unknown resource {resource!r} in --scale; choose "
                    f"compute, comm, host, or a wire.peS->peD link pattern")
        name = ",".join(f"{r}={f:g}" for r, f in args.scale)
        scenarios = [Scenario(name, links=links, **resources)]
    else:
        scenarios = list(DEFAULT_SCENARIOS)
    payload = whatif_report(result.tracer.spans, scenarios,
                            meta=_run_meta(args))
    print(whatif_table(payload))
    if args.json_out:
        dump_stable(payload, args.json_out)
        print(f"(what-if report written to {args.json_out})", file=sys.stderr)


def _regress_command(args: argparse.Namespace) -> int:
    from repro.obs.history import HistoryStore, regress, regress_table

    store = HistoryStore(args.history)
    rtol_for = dict(args.rtol_for or [])
    try:
        report = regress(store, run=args.run, baseline=args.baseline,
                         field_name=args.field, rtol=args.rtol,
                         rtol_for=rtol_for)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(regress_table(report, show_ok=args.show_ok))
    return 1 if report.regressions else 0


def _parse_rtol_for(text: str) -> tuple[str, float]:
    pattern, sep, tol = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"bad per-point tolerance {text!r}: expected PATTERN=RTOL")
    try:
        return pattern, float(tol)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad tolerance {tol!r} in {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect a simulated run: metrics, traces, critical path, "
                    "timelines, perf history, causal what-if.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in RUN_COMMANDS:
        sub = subparsers.add_parser(command)
        _add_run_options(sub)
        if command == "timeline":
            sub.add_argument("--timeline-out", metavar="PATH",
                             help="write the byte-stable timeline JSON to PATH")
            sub.add_argument("--width", type=int, default=80,
                             help="gantt width in cells (default: 80)")
        elif command == "whatif":
            sub.add_argument("--scale", type=_parse_scale, action="append",
                             default=[], metavar="RESOURCE=FACTOR",
                             help="probe one custom scenario: scale compute/"
                                  "comm/host (or a wire.peS->peD link "
                                  "pattern) durations by FACTOR (repeatable; "
                                  "default: each resource 2x faster in turn)")
            sub.add_argument("--json-out", metavar="PATH",
                             help="write the byte-stable what-if JSON to PATH")
    regress_p = subparsers.add_parser("regress")
    regress_p.add_argument("history", help="perf-history JSONL file "
                           "(python -m repro.bench --history)")
    regress_p.add_argument("--run", default=None,
                           help="run label to judge (default: latest in file)")
    regress_p.add_argument("--baseline", default=None,
                           help="baseline run label (default: first other run)")
    regress_p.add_argument("--field", default="per_iter_us",
                           help="record field to compare (default: per_iter_us)")
    regress_p.add_argument("--rtol", type=float, default=0.05,
                           help="relative tolerance before a move in the bad "
                                "direction counts as a regression "
                                "(default: 0.05)")
    regress_p.add_argument("--rtol-for", type=_parse_rtol_for, action="append",
                           default=[], metavar="PATTERN=RTOL",
                           help="per-point tolerance override, fnmatch over "
                                "point ids (repeatable; last match wins)")
    regress_p.add_argument("--show-ok", action="store_true",
                           help="also list points that did not regress")
    diff = subparsers.add_parser("diff")
    diff.add_argument("old", help="baseline metrics JSON")
    diff.add_argument("new", help="candidate metrics JSON")
    diff.add_argument("--threshold", type=float, default=0.05,
                      help="relative increase that counts as a regression "
                           "(default: 0.05)")
    diff.add_argument("--all", action="store_true",
                      help="print every compared metric, not just changes")
    args = parser.parse_args(argv)

    if args.command == "diff":
        return _diff_command(args)
    if args.command == "regress":
        return _regress_command(args)

    result, registry, findings = _run_variant(args)
    if args.command == "summary":
        header = (f"{args.variant}: {'x'.join(map(str, args.shape))} on "
                  f"{args.gpus} GPU(s), {args.iterations} iteration(s)")
        print(header)
        print()
        print(summary_table(result.tracer, result.total_time_us, top=args.top))
    elif args.command == "links":
        print(links_table(registry))
    elif args.command == "ops":
        print(ops_table(registry, top=args.top))
    elif args.command == "timeline":
        _timeline_command(args, result)
    elif args.command == "whatif":
        _whatif_command(args, result)
    else:  # critical-path
        report = critical_path(result.tracer.spans, iterations=args.iterations)
        print(critical_path_table(report, top=max(args.top, 20)))
    if getattr(args, "sanitize", False):
        print()
        print(f"sanitizer: {len(findings)} race finding(s)")
        for finding in findings:
            print(f"  {finding.summary()}")
    _write_outputs(args, result, registry)
    return 1 if findings else 0


def _diff_command(args: argparse.Namespace) -> int:
    try:
        old = load_metrics(args.old)
        new = load_metrics(args.new)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    deltas = diff_metrics(old, new)
    only_old = sorted(old.keys() - new.keys())
    only_new = sorted(new.keys() - old.keys())
    regressions = [d for d in deltas if d.is_regression(args.threshold)]
    for delta in deltas:
        if not args.all and delta.rel == 0.0:
            continue
        marker = "REGRESSION" if delta.is_regression(args.threshold) else (
            "improved" if delta.rel < 0 else "within threshold")
        rel = "new" if delta.rel == float("inf") else f"{100.0 * delta.rel:+.1f}%"
        print(f"{delta.key}: {delta.old:g} -> {delta.new:g} ({rel}) [{marker}]")
    for key in only_old:
        print(f"{key}: only in {args.old}")
    for key in only_new:
        print(f"{key}: only in {args.new}")
    print(f"{len(deltas)} metric(s) compared, {len(regressions)} regression(s) "
          f"beyond {100.0 * args.threshold:.1f}%")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(cli_entry(main))
