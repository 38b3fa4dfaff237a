"""The figure suite reads two numbers per run — communication time and
the overlap ratio — and neither needs a :class:`Span` object.  These
tests pin that laziness so it cannot silently regress."""

import pytest

from repro.sim import trace
from repro.stencil import StencilConfig, run_variant
from repro.stencil.batch import run_batched_stencil


@pytest.fixture
def span_count(monkeypatch):
    built = [0]
    init = trace.Span.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(trace.Span, "__init__", counting)
    return built


def _configs():
    return [StencilConfig(global_shape=(rows, 34), num_gpus=2, iterations=3,
                          with_data=False)
            for rows in (18, 34, 66)]


def test_fused_group_read_like_figures_builds_no_spans(span_count):
    results = run_batched_stencil("cpufree", _configs())
    for res in results:
        assert res.comm_time_us > 0.0
        assert 0.0 <= res.overlap_ratio <= 1.0
    assert span_count[0] == 0
    # reading the spans themselves builds them, for that member only
    n = len(results[0].tracer.spans)
    assert n > 0 and span_count[0] == n


def test_per_point_run_read_like_figures_builds_no_spans(span_count):
    res = run_variant("baseline_nvshmem", _configs()[0])
    assert res.comm_time_us > 0.0
    assert 0.0 <= res.overlap_ratio <= 1.0
    assert span_count[0] == 0
