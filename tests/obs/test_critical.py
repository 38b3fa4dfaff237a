"""Unit tests for critical-path extraction."""

import hashlib

import pytest

from repro.obs.critical import critical_path
from repro.sim.trace import Span


def span(lane, name, start, end, category="compute", meta=None):
    return Span(lane, name, category, start, end, meta)


class TestLaneChains:
    def test_empty_input(self):
        report = critical_path([])
        assert report.steps == []
        assert report.total_us == 0.0
        assert report.by_category == {}

    def test_single_span(self):
        report = critical_path([span("gpu0", "a", 0.0, 5.0)])
        assert report.total_us == 5.0
        assert [s.span.name for s in report.steps] == ["a"]
        assert report.by_category == {"compute": 5.0}

    def test_sequential_same_lane_chains(self):
        spans = [
            span("gpu0", "a", 0.0, 2.0),
            span("gpu0", "b", 2.0, 5.0),
            span("gpu0", "c", 5.0, 9.0),
        ]
        report = critical_path(spans)
        assert report.total_us == 9.0
        assert [s.span.name for s in report.steps] == ["a", "b", "c"]

    def test_longest_lane_wins(self):
        spans = [
            span("gpu0", "short", 0.0, 1.0),
            span("gpu1", "long", 0.0, 7.0),
        ]
        report = critical_path(spans)
        assert report.total_us == 7.0
        assert [s.span.name for s in report.steps] == ["long"]

    def test_overlapping_spans_on_one_lane_do_not_chain(self):
        # second span starts before the first ends -> no lane dependency,
        # so the longest chain is one span, not the makespan
        spans = [
            span("gpu0", "a", 0.0, 4.0),
            span("gpu0", "b", 1.0, 5.0),
        ]
        report = critical_path(spans)
        assert report.total_us == 4.0
        assert len(report.steps) == 1


class TestFlowLinks:
    def test_flow_contributes_only_the_tail(self):
        # producer on gpu0 finishes at t=4; the wait on gpu1 spans [0, 6):
        # only the tail [4, 6) after the producer is attributable to the wait
        spans = [
            span("gpu0", "put", 0.0, 4.0, "comm", {"flow_s": 1}),
            span("gpu1", "wait", 0.0, 6.0, "sync", {"flow_f": 1}),
        ]
        report = critical_path(spans)
        assert report.total_us == 6.0
        assert [s.span.name for s in report.steps] == ["put", "wait"]
        assert report.by_category == {"comm": 4.0, "sync": 2.0}

    def test_cross_lane_chain_beats_local_lane(self):
        spans = [
            span("gpu0", "compute", 0.0, 3.0),
            span("gpu0", "put", 3.0, 5.0, "comm", {"flow_s": 7}),
            span("gpu1", "wait", 0.0, 5.5, "sync", {"flow_f": 7}),
            span("gpu1", "compute2", 5.5, 6.0),
        ]
        report = critical_path(spans)
        assert [s.span.name for s in report.steps] == [
            "compute", "put", "wait", "compute2"
        ]
        assert report.total_us == 6.0
        # wait contributed only its post-producer tail 5.5 - 5.0 = 0.5
        assert report.by_category["sync"] == 0.5

    def test_unmatched_flow_f_falls_back_to_lane_order(self):
        spans = [span("gpu1", "wait", 0.0, 3.0, "sync", {"flow_f": 99})]
        report = critical_path(spans)
        assert report.total_us == 3.0


class TestReportProperties:
    def test_per_iteration_and_fraction(self):
        spans = [
            span("gpu0", "a", 0.0, 6.0, "compute"),
            span("gpu0", "b", 6.0, 8.0, "sync"),
        ]
        report = critical_path(spans, iterations=4)
        assert report.total_us == 8.0
        assert report.per_iteration_us == 2.0
        assert report.fraction("compute") == 0.75
        assert report.fraction("sync") == 0.25
        assert report.fraction("comm") == 0.0

    def test_category_attribution_sums_to_total(self):
        spans = [
            span("gpu0", "a", 0.0, 3.0, "compute"),
            span("gpu0", "p", 3.0, 4.0, "comm", {"flow_s": 1}),
            span("gpu1", "w", 2.0, 4.5, "sync", {"flow_f": 1}),
        ]
        report = critical_path(spans)
        assert sum(report.by_category.values()) == report.total_us

    def test_deterministic_across_input_order(self):
        spans = [
            span("gpu0", "a", 0.0, 2.0),
            span("gpu1", "b", 0.0, 2.0),
            span("gpu0", "c", 2.0, 4.0, "comm", {"flow_s": 3}),
            span("gpu1", "d", 2.0, 4.5, "sync", {"flow_f": 3}),
        ]
        forward = critical_path(spans)
        backward = critical_path(list(reversed(spans)))
        assert [s.span.name for s in forward.steps] == \
               [s.span.name for s in backward.steps]
        assert forward.total_us == backward.total_us


class TestRealTraces:
    """Reports on simulated runs, pinned exactly: the path through the
    shared span DAG (:mod:`repro.obs.dag`) must not move a single step."""

    # (variant, shape, gpus) -> (steps, sha256 of the steps, total_us,
    # by_category), all at 4 iterations
    PINNED = {
        ("cpufree", (130, 258), 4): (
            3, "9f5b6923fadaed52", 22.202374088548563,
            {"api": 6.2, "sync": 16.002374088548564}),
        ("cpufree_perks", (1026, 2050), 4): (
            3, "7dd160184d4c6588", 38.832948958719605,
            {"api": 6.2, "sync": 32.6329489587196}),
        ("baseline_overlap", (1026, 2050), 4): (
            32, "3eb5cd03b5395642", 309.5032312507726,
            {"api": 62.39999999999993, "sync": 247.1032312507727}),
        ("baseline_nvshmem", (130, 258), 8): (
            12, "676e06fa34e7f9c0", 37.6, {"api": 37.6}),
        ("baseline_copy", (66, 130), 2): (
            16, "2e06577c1692828c", 111.2,
            {"api": 31.200000000000003, "sync": 80.0}),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_report_is_unchanged(self, key):
        from repro.stencil import StencilConfig, run_variant

        variant, shape, gpus = key
        config = StencilConfig(global_shape=shape, num_gpus=gpus,
                               iterations=4, with_data=False)
        report = critical_path(run_variant(variant, config).tracer.spans, 4)
        digest = hashlib.sha256("\n".join(
            repr((s.span.lane, s.span.name, s.span.start, s.span.end,
                  s.contributed_us)) for s in report.steps).encode()).hexdigest()
        assert (len(report.steps), digest[:16], report.total_us,
                report.by_category) == self.PINNED[key]
