"""Parent side of the harness: spawn passes, aggregate, document.

Load model: a closed loop with one client.  Each pass is a fresh child
interpreter (``child.py``) started only after the previous one exited,
so at most one benchmark process is busy at a time.  Every run starts
with one untimed set-up-only child, so the byte-code and file caches
are warm, as they are for a user who runs the CLIs more than once.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

from benchmarks.harness.layers import layer_metric_specs
from benchmarks.harness.workloads import ROOT, WORKLOADS

FORMAT = "repro-bench-v1"
SRC = ROOT / "src"
#: a pass that takes longer than this is killed and counted as failed
PASS_TIMEOUT_S = 150.0

#: end-to-end metrics: ``name -> (unit, better, bound)``.  ``bound`` is
#: the share of the baseline median a metric may worsen by before it
#: counts as a regression; ``0.0`` means exact (deterministic results).
#: Host times are at reference speed (``speed.py``); set-up, the
#: shortest interval and the one calibrated least often, gets the
#: largest bound.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.15),
    "pass_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_us_per_iter": ("sim_us", "lower", 0.0),
    "compile_s": ("s", "lower", 0.10),
}


class PassError(RuntimeError):
    """A child pass crashed, timed out or printed no result."""


def require_program() -> None:
    """Exit with status 2 unless the program's sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"harness: no program sources under {SRC.name}/repro "
                         f"in {ROOT}; run from a full checkout\n")
        raise SystemExit(2)


def spawn_pass(workload: str, seed: int, *, trace: bool = False,
               spans: str | None = None, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its result, with
    ``setup_s`` = spawn to start of the timed section, less the child's
    calibration loops, at reference speed."""
    cmd = [sys.executable, "-m", "benchmarks.harness.child", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload}: pass timed out after {PASS_TIMEOUT_S:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload}: pass exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if not setup_only:
        wall = result["t_start"] - spawned - result["calib_spent_s"]
        result["setup_wall_s"] = wall
        result["setup_s"] = wall * result["setup_speed"]
    return result


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _ops(passes: list[dict]) -> tuple[int, list[str]]:
    """Checked ops over all passes, plus the cross-pass ones: simulated
    results and fingerprints must repeat exactly in every pass."""
    attempted = sum(p["ops"] for p in passes)
    failures = [f"pass {i}: {name}" for i, p in enumerate(passes)
                for name in p["failures"]]
    checks = {"sim_us_per_iter": [p["sim_us_per_iter"] for p in passes]}
    for p in passes:
        for name, digest in p["fingerprints"].items():
            checks.setdefault(name, []).append(digest)
    for name, seen in checks.items():
        attempted += 1
        if len(set(seen)) != 1:
            failures.append(f"{name} identical across passes")
    return attempted, failures


def summarize(passes: list[dict], traced: list[dict]) -> dict:
    """One workload's entry in a results document."""
    attempted, failures = _ops(passes + traced)
    metrics = {}
    for metric, (unit, better, bound) in END_TO_END.items():
        values = [p[metric] for p in passes if p.get(metric) is not None]
        if values:
            metrics[metric] = {"unit": unit, "better": better, "bound": bound,
                               **spread(values), "values": values}
    entry: dict[str, Any] = {"passes": len(passes), "ops": attempted,
                             "failed": len(failures), "failures": failures,
                             "metrics": metrics}
    if traced:
        layers = {}
        for metric, (unit, better) in layer_metric_specs().items():
            values = [p["trace"]["metrics"][metric] for p in traced]
            layers[metric] = {"unit": unit, "better": better, **spread(values),
                              "values": values}
        traced_s = statistics.median(p["pass_s"] for p in traced)
        untraced_s = statistics.median(p["pass_s"] for p in passes)
        overhead = traced_s / untraced_s - 1.0
        layers["harness.trace_overhead"].update(
            median=overhead, q1=overhead, q3=overhead, values=[overhead])
        entry["layers"] = layers
        entry["traced_pass_s"] = traced_s
        entry["unbalanced_passes"] = sum(p["trace"]["unbalanced"] for p in traced)
        entry["boundaries"] = _median_boundaries(traced)
    return entry


def _median_boundaries(traced: list[dict]) -> dict:
    keys = {k for p in traced for k in p["trace"]["boundaries"]}
    out = {}
    for key in sorted(keys):
        rows = [p["trace"]["boundaries"].get(key, {"calls": 0, "self_s": 0.0})
                for p in traced]
        out[key] = {"calls": statistics.median(r["calls"] for r in rows),
                    "self_s": statistics.median(r["self_s"] for r in rows)}
    return out


def measure(workload: str, seed: int, *, passes: int = 0, traced: int = 0,
            seconds: float | None = None, spans_dir: str | None = None,
            log=None) -> dict:
    """Measure one workload: ``passes`` untraced and ``traced`` traced
    passes, each traced pass right after an untraced one (so the tracing
    overhead compares neighbours).  With ``seconds``, keep starting
    passes (pairs, when ``traced``) until that much time has passed,
    at least 3 (pairs: 2)."""
    spawn_pass(workload, seed, setup_only=True)
    plain: list[dict] = []
    with_trace: list[dict] = []

    def one(trace: bool) -> None:
        spans = (os.path.join(spans_dir, f"{workload}-pass{len(with_trace)}.trace.json")
                 if trace and spans_dir else None)
        result = spawn_pass(workload, seed, trace=trace, spans=spans)
        (with_trace if trace else plain).append(result)
        if log is not None:
            log(f"  {workload} pass {len(plain) + len(with_trace) - 1}: "
                f"{result['pass_s']:.3f} s{' traced' if trace else ''}, "
                f"{len(result['failures'])} failed")

    if seconds is None:
        for i in range(max(passes, traced)):
            if i < passes:
                one(False)
            if i < traced:
                one(True)
    else:
        minimum = 2 if traced else 3
        started = time.monotonic()
        while len(plain) < minimum or time.monotonic() - started < seconds:
            one(False)
            if traced:
                one(True)
    return summarize(plain, with_trace)


def environment() -> dict:
    """Where the numbers were measured."""
    import numpy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "machine": platform.machine(),
           "system": platform.system()}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, text=True, capture_output=True, timeout=30)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["src_dirty"] = bool(dirty.stdout.strip())
    except OSError:
        pass  # not a git checkout (or no git): the SHA stays unknown
    return env


def document(seed: int, workloads: dict[str, dict]) -> dict:
    return {"format": FORMAT, "seed": seed,
            "environment": environment(), "workloads": workloads}


def history_records(doc: dict, label: str) -> list[dict]:
    """One perf-history record per workload and pass (``id`` = the
    workload), gateable with ``python -m repro.obs regress``."""
    records = []
    for name, entry in doc["workloads"].items():
        for i in range(entry["passes"]):
            record = {"run": label, "id": name, "pass": i, "seed": doc["seed"],
                      "failed": entry["failed"]}
            for metric, m in entry["metrics"].items():
                record[metric] = m["values"][i]
            records.append(record)
    return records


def workload_names(selected: list[str] | None) -> list[str]:
    names = selected or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    return names
