"""Perf-smoke goldens: a canonical observed run must reproduce the
committed metrics dump, Chrome trace and what-if reports byte for byte,
and the DaCe figures must reproduce their metrics dump.  The chaos,
sanitizer and recovery reports pin the transport's behaviour under
fault plans, under the happens-before sanitizer, and across a crash.

This is the local half of the CI ``perf-smoke`` job: every engine or
transport optimization claims to be invisible to published output, and
this test pins that claim to artifacts in git rather than to a
same-process A/B comparison.  If a change legitimately alters the
dumps, regenerate per tests/golden/README.md and review the diff.
"""

import pathlib

import pytest

from repro.bench.__main__ import main as bench_main
from repro.faults.__main__ import main as faults_main
from repro.obs.__main__ import main
from repro.recover.__main__ import main as recover_main
from repro.sanitize.__main__ import main as sanitize_main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
RUN = ["--shape", "66x130", "--gpus", "2", "--iterations", "4"]
CANONICAL = ["summary", *RUN]


def test_metrics_and_trace_match_committed_golden(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    trace = tmp_path / "trace.json"
    rc = main([*CANONICAL, "--metrics-out", str(metrics),
               "--trace-out", str(trace)])
    assert rc == 0
    assert metrics.read_bytes() == (GOLDEN / "perf_smoke_metrics.json").read_bytes()
    assert trace.read_bytes() == (GOLDEN / "perf_smoke_trace.json").read_bytes()


@pytest.mark.parametrize("golden,variant_args", [
    ("perf_smoke_whatif.json", []),
    # host x2 on this CPU-controlled baseline took four Gauss–Seidel
    # sweeps before the replay became one topological pass
    ("perf_smoke_whatif_overlap.json", ["--variant", "baseline_overlap"]),
])
def test_whatif_report_matches_committed_golden(tmp_path, capsys, golden,
                                                variant_args):
    out = tmp_path / "whatif.json"
    assert main(["whatif", *RUN, *variant_args, "--json-out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_dace_figure_metrics_match_committed_golden(tmp_path, capsys):
    """Figs 6.3a/6.3b run the SDFG executor: this dump pins its
    ``sdfg.*`` counters and the metrics of every DaCe point."""
    metrics = tmp_path / "metrics.json"
    rc = bench_main(["6.3a", "6.3b", "--no-cache", "--jobs", "1",
                     "--out", str(tmp_path / "report.md"), "--metrics-out", str(metrics)])
    assert rc == 0
    assert metrics.read_bytes() == (GOLDEN / "dace_figures_metrics.json").read_bytes()


SMALL = ["--gpus", "2", "--shape", "34x66"]


@pytest.mark.parametrize("golden,entry,args", [
    ("chaos_report.json", faults_main, [*SMALL, "--iterations", "6"]),
    ("sanitize_sweep.json", sanitize_main,
     ["sweep", *SMALL, "--iterations", "4"]),
    ("sanitize_sweep_transient.json", sanitize_main,
     ["sweep", *SMALL, "--iterations", "4", "--fault-profile", "transient"]),
    ("recover_report.json", recover_main, []),
])
def test_transport_reports_match_committed_golden(tmp_path, capsys, golden,
                                                  entry, args):
    """Fault-plan deliveries (jitter, retry, loss, FIFO per route), the
    sanitizer's happens-before clocks and crash recovery, byte for byte."""
    out = tmp_path / golden
    assert entry([*args, "--report-out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
