"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q``
(about half a minute: the traced tests run real figure-suite passes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.harness import driver
from benchmarks.harness.__main__ import BENCH_END_TO_END
from benchmarks.harness.compare import compare
from benchmarks.harness.layers import LAYERS, ROOT as ROOT_LAYER, layer_metric_specs
from benchmarks.harness.workloads import ROOT, WORKLOADS

HARNESS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def traced_figures():
    """Two traced passes of the figure suite."""
    return [driver.spawn_pass("figures", 2024, trace=True) for _ in range(2)]


def test_traced_figures_pass_equals_golden(traced_figures):
    for result in traced_figures:
        assert result["ops"] >= 12
        assert result["failures"] == []


def test_layer_self_times_sum_to_traced_wall_time(traced_figures):
    for result in traced_figures:
        metrics = result["trace"]["metrics"]
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        assert not result["trace"]["unbalanced"]
        assert total == pytest.approx(result["pass_s"], rel=0.05)
        # at least 95% of the pass lands on named layers
        assert metrics[f"{ROOT_LAYER}.share"] < 0.05


def test_call_counts_repeat_exactly(traced_figures):
    first, second = (r["trace"]["metrics"] for r in traced_figures)
    counts = [name for name, (unit, _) in layer_metric_specs().items()
              if unit == "count"]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["sim.engine.events"] > 0 and first["sim.trace.spans"] > 0


def _checkout_copy(tmp_path: Path, *, with_program: bool = True) -> Path:
    """A minimal checkout: the harness, BENCHMARK.json and (optionally)
    the program sources and golden report."""
    root = tmp_path / "checkout"
    shutil.copytree(HARNESS, root / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        golden = root / "tests" / "golden" / "bench_report.md"
        golden.parent.mkdir(parents=True)
        shutil.copy(ROOT / "tests" / "golden" / "bench_report.md", golden)
    return root


def _harness(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "benchmarks.harness", *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


def test_tampered_expected_output_fails(tmp_path):
    root = _checkout_copy(tmp_path)
    golden = root / "tests" / "golden" / "bench_report.md"
    golden.write_text(golden.read_text().replace("155.60", "155.61", 1))
    proc = _harness(root, "run", "-w", "figures", "--passes", "1",
                    "--out", str(tmp_path / "run.json"))
    assert proc.returncode != 0
    entry = json.loads((tmp_path / "run.json").read_text())["workloads"]["figures"]
    assert entry["failed"] >= 2  # its section and the whole report
    assert any("Figure 2.2a" in f for f in entry["failures"])


def test_bench_refuses_without_program(tmp_path):
    root = _checkout_copy(tmp_path, with_program=False)
    proc = _harness(root, "bench", "--workload", "compile", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_history_self_comparison_passes(tmp_path):
    history, out = tmp_path / "history.jsonl", tmp_path / "run.json"
    proc = _harness(ROOT, "run", "-w", "compile", "--passes", "2",
                    "--out", str(out), "--history", str(history),
                    "--run-label", "base")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    sys.path.insert(0, str(driver.SRC))
    from repro.obs.history import HistoryStore

    store = HistoryStore(history)
    assert len(store.records()) == 2
    store.extend(driver.history_records(doc, "check"))
    gate = subprocess.run(
        [sys.executable, "-m", "repro.obs", "regress", str(history),
         "--field", "pass_s", "--rtol", "0.10"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(driver.SRC)},
        capture_output=True, text=True, timeout=120)
    assert gate.returncode == 0, gate.stdout + gate.stderr
    # a self-comparison also passes the harness's own compare
    lines, regressed = compare(doc, doc)
    assert not regressed
    assert all(line.endswith(("unchanged", "unresolved")) for line in lines[1:])


def _doc(median: float, q1: float, q3: float, *, bound: float = 0.10) -> dict:
    metric = {"unit": "s", "better": "lower", "bound": bound,
              "median": median, "q1": q1, "q3": q3, "values": [median]}
    return {"workloads": {"w": {"ops": 1, "failed": 0, "metrics": {"pass_s": metric}}}}


@pytest.mark.parametrize("new, verdict, regressed", [
    ((1.00, 0.99, 1.01), "unchanged", False),
    ((1.20, 1.19, 1.21), "worse", True),
    ((0.80, 0.79, 0.81), "improved", False),
    ((1.20, 0.80, 1.40), "unresolved", False),
])
def test_compare_verdicts(new, verdict, regressed):
    lines, got = compare(_doc(1.0, 0.99, 1.01), _doc(*new))
    assert lines[1].endswith(verdict)
    assert got is regressed


def test_exact_metric_change_is_a_regression():
    lines, regressed = compare(_doc(1.0, 1.0, 1.0, bound=0.0),
                               _doc(1.0000001, 1.0000001, 1.0000001, bound=0.0))
    assert regressed and lines[1].endswith("worse")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/harness"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(BENCH_END_TO_END)
    for name, metric in e2e.items():
        assert (metric["unit"], metric["better"], metric["bound"]) == driver.END_TO_END[name]
        assert 0 < metric["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = layer_metric_specs()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers
