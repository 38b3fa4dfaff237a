"""Tests for timeline tracing and interval arithmetic."""

import pytest

from repro.sim import (
    Span,
    Tracer,
    interval_union_length,
    merge_intervals,
    overlap_length,
)


class TestIntervalMath:
    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_merge_disjoint(self):
        assert merge_intervals([(3, 4), (0, 1)]) == [(0, 1), (3, 4)]

    def test_merge_overlapping(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_merge_touching(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_merge_nested(self):
        assert merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]

    def test_union_length_counts_overlap_once(self):
        assert interval_union_length([(0, 2), (1, 3)]) == 3.0

    def test_overlap_length_basic(self):
        assert overlap_length([(0, 5)], [(3, 8)]) == 2.0

    def test_overlap_length_disjoint(self):
        assert overlap_length([(0, 1)], [(2, 3)]) == 0.0

    def test_overlap_length_multiple_pieces(self):
        a = [(0, 2), (4, 6)]
        b = [(1, 5)]
        assert overlap_length(a, b) == pytest.approx(2.0)  # [1,2) + [4,5)

    def test_overlap_symmetric(self):
        a = [(0, 3), (5, 9)]
        b = [(2, 6), (8, 12)]
        assert overlap_length(a, b) == overlap_length(b, a)


class TestTracer:
    def test_record_and_query(self):
        tr = Tracer()
        tr.record("gpu0.comp", "stencil", "compute", 0.0, 10.0)
        tr.record("gpu0.comm", "halo", "comm", 8.0, 12.0)
        assert tr.total("compute") == 10.0
        assert tr.total("comm") == 4.0
        assert tr.lanes() == ["gpu0.comm", "gpu0.comp"]

    def test_record_rejects_negative_span(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.record("l", "x", "compute", 5.0, 4.0)

    @pytest.mark.parametrize("start, end", [
        (float("nan"), 1.0), (0.0, float("nan")), (float("nan"), float("nan")),
    ])
    def test_record_rejects_nan_endpoints(self, start, end):
        tr = Tracer()
        with pytest.raises(ValueError, match="ends before it starts"):
            tr.record("gpu0.s", "k", "comm", start, end)
        assert tr.spans == []
        assert tr.total("comm") == 0.0
        assert tr.overlap_ratio() == 0.0

    def test_spans_extend_after_more_records(self):
        tr = Tracer()
        tr.record("a", "x", "comm", 0.0, 1.0)
        first = tr.spans
        assert tr.total("comm") == 1.0
        tr.record("a", "y", "comm", 2.0, 4.0)
        assert tr.spans is first
        assert [s.name for s in first] == ["x", "y"]
        assert tr.total("comm") == 3.0

    def test_overlap_ratio_full(self):
        tr = Tracer()
        tr.record("a", "comp", "compute", 0.0, 10.0)
        tr.record("b", "comm", "comm", 2.0, 6.0)
        assert tr.overlap_ratio() == pytest.approx(1.0)

    def test_overlap_ratio_partial(self):
        tr = Tracer()
        tr.record("a", "comp", "compute", 0.0, 4.0)
        tr.record("b", "comm", "comm", 2.0, 10.0)
        # comm = 8 units, overlapped = 2 units
        assert tr.overlap_ratio() == pytest.approx(0.25)

    def test_overlap_ratio_no_comm_is_zero(self):
        tr = Tracer()
        tr.record("a", "comp", "compute", 0.0, 4.0)
        assert tr.overlap_ratio() == 0.0

    def test_lane_prefix_filtering(self):
        tr = Tracer()
        tr.record("gpu0.s", "k", "compute", 0.0, 5.0)
        tr.record("gpu1.s", "k", "compute", 0.0, 3.0)
        assert tr.total("compute", lane_prefix="gpu1") == 3.0

    def test_busy_per_lane(self):
        tr = Tracer()
        tr.record("l1", "a", "compute", 0.0, 2.0)
        tr.record("l1", "b", "comm", 1.0, 4.0)
        tr.record("l2", "c", "compute", 0.0, 1.0)
        busy = tr.busy_per_lane()
        assert busy["l1"] == 4.0
        assert busy["l2"] == 1.0

    def test_render_ascii_nonempty(self):
        tr = Tracer()
        tr.record("gpu0", "k", "compute", 0.0, 5.0)
        tr.record("gpu0", "h", "comm", 5.0, 6.0)
        art = tr.render_ascii(width=40)
        assert "gpu0" in art
        assert "#" in art and "~" in art

    def test_render_ascii_empty(self):
        assert Tracer().render_ascii() == "(empty timeline)"
