"""Tie-order oracle: simulated results must not depend on how the engine
breaks ties between events scheduled for the same timestamp.

The engine dispatches same-time events in ``(time, seq)`` order.  That
order is a determinism contract, not a model: a simulated time that
changed when the ties were broken the other way would be a hidden race
in the model.  :class:`ReversedBucketTies` is a test-side
:class:`~repro.sim.Simulator` whose calendar buckets dispatch their
ties in reverse scheduling order (the ready queue of zero-delay
resumes is untouched).  Under it, the figure report, the perf-smoke
gauges and histograms, and both what-if reports must equal their
committed goldens.  Counters that record dispatch order itself (engine
event counts, ``sim.flag.wakeups``) are order diagnostics and may move;
docs/correctness.md names them.
"""

import json
import pathlib
from collections import deque
from heapq import heappush

import pytest

import repro.runtime.context
from repro.bench.__main__ import main as bench_main
from repro.obs.__main__ import main as obs_main
from repro.sim import Simulator
from repro.sim.stacked import pilot

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"
RUN = ["--shape", "66x130", "--gpus", "2", "--iterations", "4"]


class ReversedBucketTies(Simulator):
    """Dispatches the events of each calendar bucket last-scheduled
    first.  ``reversed_ties`` counts the pushes that landed in front of
    an earlier same-time event, so a test can check the perturbation
    actually engaged."""

    reversed_ties = 0

    def _push(self, time, proc, value):
        self._seq += 1
        entry = (time, self._seq, proc, value)
        t = pilot(time)
        if t == pilot(self.now):
            self._ready.append(entry)
            return
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = deque((entry,))
            heappush(self._times, t)
        else:
            bucket.appendleft(entry)
            ReversedBucketTies.reversed_ties += 1


@pytest.fixture
def reversed_ties(monkeypatch):
    monkeypatch.setattr(repro.runtime.context, "Simulator", ReversedBucketTies)
    monkeypatch.setattr(ReversedBucketTies, "reversed_ties", 0)
    yield
    assert ReversedBucketTies.reversed_ties > 0, "no same-time tie was reversed"


def test_reversed_ties_dispatch_bucket_last_first():
    sim = ReversedBucketTies()
    order = []
    for name in "abc":
        sim.call_at(1.0, lambda name=name: order.append(name))
    sim.run()
    assert order == ["c", "b", "a"]


def test_figure_report_unchanged(reversed_ties, tmp_path, capsys):
    out = tmp_path / "report.md"
    assert bench_main(["--no-cache", "--no-batch", "--jobs", "1",
                       "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "bench_report.md").read_bytes()


def test_perf_smoke_gauges_and_histograms_unchanged(reversed_ties, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert obs_main(["summary", *RUN, "--metrics-out", str(out)]) == 0
    fresh = json.loads(out.read_text())
    golden = json.loads((GOLDEN / "perf_smoke_metrics.json").read_text())
    assert fresh["gauges"] == golden["gauges"]
    assert fresh["histograms"] == golden["histograms"]


@pytest.mark.parametrize("golden,variant_args", [
    ("perf_smoke_whatif.json", []),
    ("perf_smoke_whatif_overlap.json", ["--variant", "baseline_overlap"]),
])
def test_whatif_reports_unchanged(reversed_ties, tmp_path, capsys, golden,
                                  variant_args):
    out = tmp_path / "whatif.json"
    assert obs_main(["whatif", *RUN, *variant_args, "--json-out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
