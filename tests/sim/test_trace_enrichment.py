"""Tests for the tracer's observability enrichments: counter samples,
flow events, and the upgraded ASCII renderer."""

import pytest

from repro.sim.trace import Tracer


class TestCounterSamples:
    def test_samples_become_counter_events(self):
        tracer = Tracer()
        tracer.record("gpu0", "work", "compute", 0.0, 1.0)
        tracer.add_counter("pending", 0.5, 2)
        tracer.add_counter("pending", 0.8, 1)
        counters = [e for e in tracer.to_chrome_trace() if e["ph"] == "C"]
        assert [(e["ts"], e["args"]["value"]) for e in counters] == [(0.5, 2), (0.8, 1)]
        assert all(e["name"] == "pending" for e in counters)


class TestFlowEvents:
    def test_matched_flow_emits_start_and_finish(self):
        tracer = Tracer()
        tracer.record("gpu0", "put", "comm", 0.0, 2.0, meta={"flow_s": 11})
        tracer.record("gpu1", "wait", "sync", 0.0, 3.0, meta={"flow_f": 11})
        events = tracer.to_chrome_trace()
        (start,) = [e for e in events if e["ph"] == "s"]
        (finish,) = [e for e in events if e["ph"] == "f"]
        # ids are canonicalized by first appearance in span order,
        # so the raw allocation id (11) does not leak into the export
        assert start["id"] == finish["id"] == 1
        assert start["ts"] == 2.0  # arrow leaves when the producer ends
        assert finish["ts"] == 3.0
        assert finish["bp"] == "e"

    def test_orphan_finish_is_dropped(self):
        tracer = Tracer()
        tracer.record("gpu1", "wait", "sync", 0.0, 3.0, meta={"flow_f": 42})
        events = tracer.to_chrome_trace()
        assert not [e for e in events if e["ph"] in ("s", "f")]


class TestRenderAscii:
    def _tracer(self):
        tracer = Tracer()
        tracer.record("gpu0", "work", "compute", 0.0, 6.0)
        tracer.record("gpu0", "put", "comm", 6.0, 8.0)
        tracer.record("gpu1", "wait", "sync", 0.0, 8.0)
        tracer.record("gpu1", "flagset", "api", 8.0, 8.0)
        return tracer

    def test_ruler_row_with_us_labels(self):
        text = self._tracer().render_ascii(width=40)
        lines = text.splitlines()
        assert "t (us)" in lines[1]
        assert lines[1].count("+") == 5  # ends + quartile ticks
        assert "0.0" in lines[0] and "8.0" in lines[0]

    def test_legend_line(self):
        text = self._tracer().render_ascii()
        assert "# compute" in text and "~ comm" in text
        assert "| sync" in text and ". api" in text
        assert "* zero-duration" in text

    def test_zero_duration_span_renders_star(self):
        text = self._tracer().render_ascii(width=40)
        gpu1_row = next(l for l in text.splitlines() if l.lstrip().startswith("gpu1"))
        assert "*" in gpu1_row

    def test_empty_timeline(self):
        assert Tracer().render_ascii() == "(empty timeline)"

    def test_category_glyphs_present(self):
        text = self._tracer().render_ascii(width=60)
        gpu0_row = next(l for l in text.splitlines() if l.lstrip().startswith("gpu0"))
        assert "#" in gpu0_row and "~" in gpu0_row
