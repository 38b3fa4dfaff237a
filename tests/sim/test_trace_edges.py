"""Edge cases of the tracer left unpinned by the mainline trace tests:
zero-duration-only timelines, span validation, counter samples interleaved with flow links in the Chrome export, and the lane
naming helpers the per-PE accounting is built on."""

import pytest

from repro.sim.trace import Tracer, pe_of_lane, wire_route


class TestLaneHelpers:
    def test_gpu_lane_maps_to_device(self):
        assert pe_of_lane("gpu0.compute") == 0
        assert pe_of_lane("gpu13.stream2") == 13

    def test_host_lane_maps_to_rank(self):
        assert pe_of_lane("host0") == 0
        assert pe_of_lane("host7") == 7

    def test_wire_lane_charges_the_source_pe(self):
        assert pe_of_lane("wire.pe2->pe3") == 2

    def test_non_pe_lanes_are_none(self):
        for lane in ("engine", "gpu.compute", "hostx", "host1.extra",
                     "wire.pe1->gpu2", ""):
            assert pe_of_lane(lane) is None

    def test_wire_route_extracts_both_endpoints(self):
        assert wire_route("wire.pe0->pe5") == (0, 5)

    def test_wire_route_rejects_non_wire_lanes(self):
        assert wire_route("gpu0.compute") is None
        assert wire_route("host0") is None
        assert wire_route("wire.pe1->pe") is None


class TestZeroDurationRendering:
    def test_all_zero_duration_spans_render_as_markers(self):
        # extent is 0 -> the renderer must not divide by zero, and every
        # span collapses to the '*' glyph rather than a stretched bar
        tracer = Tracer()
        tracer.record("gpu0.compute", "mark_a", "compute", 5.0, 5.0)
        tracer.record("gpu1.compute", "mark_b", "comm", 5.0, 5.0)
        text = tracer.render_ascii(width=40)
        lanes = [line for line in text.splitlines() if "gpu" in line]
        assert len(lanes) == 2
        for line in lanes:
            assert line.count("*") == 1
            assert "#" not in line and "~" not in line

    def test_zero_duration_marker_lands_at_its_timestamp(self):
        tracer = Tracer()
        tracer.record("gpu0.compute", "work", "compute", 0.0, 10.0)
        tracer.record("gpu0.compute", "mark", "compute", 10.0, 10.0)
        text = tracer.render_ascii(width=40)
        [row] = [line for line in text.splitlines() if "gpu0" in line]
        bar = row.split("|")[1]
        assert bar.rstrip().endswith("*")  # marker sits at t1, after the bar

    def test_empty_timeline(self):
        assert Tracer().render_ascii() == "(empty timeline)"


class TestRecordValidation:
    def test_negative_duration_record_raises(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            Tracer().record("gpu0.s", "bad", "compute", 5.0, 4.0)


class TestCountersInterleavedWithFlows:
    """Counter ("C") events and flow ("s"/"f") events share the export
    path; neither may perturb the other."""

    def _tracer(self):
        tracer = Tracer()
        tracer.record("gpu0.c", "produce", "compute", 0.0, 4.0,
                      meta={"flow_s": 71})
        tracer.add_counter("inflight", 2.0, 1.0)
        tracer.record("gpu1.c", "wait", "sync", 0.0, 4.0,
                      meta={"flow_f": 71})
        tracer.add_counter("inflight", 4.0, 0.0)
        tracer.add_instant("fault", 3.0, "fault", {"pe": 1})
        return tracer

    def test_all_phases_coexist(self):
        events = self._tracer().to_chrome_trace()
        phases = {e["ph"] for e in events}
        assert {"M", "X", "s", "f", "C", "i"} <= phases

    def test_counters_keep_their_samples(self):
        events = self._tracer().to_chrome_trace()
        counters = [e for e in events if e["ph"] == "C"]
        assert [(e["ts"], e["args"]["value"]) for e in counters] == \
            [(2.0, 1.0), (4.0, 0.0)]
        assert all(e["name"] == "inflight" for e in counters)

    def test_flow_pair_survives_and_is_renumbered(self):
        events = self._tracer().to_chrome_trace()
        start = [e for e in events if e["ph"] == "s"]
        finish = [e for e in events if e["ph"] == "f"]
        assert len(start) == 1 and len(finish) == 1
        # raw id 71 is canonicalized to first-appearance numbering
        assert start[0]["id"] == finish[0]["id"] == 1
        assert finish[0]["bp"] == "e"

    def test_orphan_flow_finish_is_dropped(self):
        tracer = Tracer()
        tracer.record("gpu0.c", "wait", "sync", 0.0, 1.0,
                      meta={"flow_f": 99})
        tracer.add_counter("inflight", 0.5, 1.0)
        events = tracer.to_chrome_trace()
        assert not [e for e in events if e["ph"] == "f"]
        assert len([e for e in events if e["ph"] == "C"]) == 1

    def test_export_is_deterministic(self):
        assert self._tracer().to_chrome_trace() == \
            self._tracer().to_chrome_trace()
