"""Property-based tests for the tracer's overlap/union analysis, and
for its laziness: rows become spans only on read, category totals are
cached merged lists, and demuxed batch members split on demand.  Any
order of reads and records must give what an eager Span list gives."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.trace import Span, Tracer, interval_union_length, merge_intervals
from repro.stencil import StencilConfig, run_variant
from repro.stencil.batch import run_batched_stencil

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


@st.composite
def intervals(draw, max_size=12):
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        a = draw(finite)
        b = draw(finite)
        out.append((min(a, b), max(a, b)))
    return out


@st.composite
def tracers(draw):
    tracer = Tracer()
    lanes = ("gpu0", "gpu1")
    for lo, hi in draw(intervals()):
        tracer.record(draw(st.sampled_from(lanes)), "c", "compute", lo, hi)
    for lo, hi in draw(intervals()):
        tracer.record(draw(st.sampled_from(lanes)), "x", "comm", lo, hi)
    return tracer


class TestOverlapRatio:
    @settings(max_examples=40, deadline=None)
    @given(tracers())
    def test_bounded_between_zero_and_one(self, tracer):
        ratio = tracer.overlap_ratio()
        assert 0.0 <= ratio <= 1.0 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(intervals())
    def test_zero_without_communication(self, compute):
        tracer = Tracer()
        for lo, hi in compute:
            tracer.record("gpu0", "c", "compute", lo, hi)
        assert tracer.overlap_ratio() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(intervals(max_size=8))
    def test_one_when_comm_inside_compute(self, comm):
        tracer = Tracer()
        for lo, hi in comm:
            tracer.record("gpu0", "x", "comm", lo, hi)
            tracer.record("gpu1", "c", "compute", lo, hi)
        ratio = tracer.overlap_ratio()
        if tracer.total("comm") > 0.0:
            assert ratio == 1.0 or abs(ratio - 1.0) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(tracers())
    def test_invariant_under_span_recording_order(self, tracer):
        reordered = Tracer()
        for span in reversed(tracer.spans):
            reordered.record(span.lane, span.name, span.category,
                             span.start, span.end)
        assert reordered.overlap_ratio() == tracer.overlap_ratio()


class TestUnion:
    @settings(max_examples=40, deadline=None)
    @given(intervals())
    def test_merge_produces_disjoint_sorted_intervals(self, ivs):
        merged = merge_intervals(ivs)
        for (lo1, hi1), (lo2, hi2) in zip(merged, merged[1:]):
            assert hi1 < lo2

    @settings(max_examples=40, deadline=None)
    @given(intervals(), intervals())
    def test_union_is_subadditive(self, a, b):
        joint = interval_union_length(a + b)
        assert joint <= interval_union_length(a) + interval_union_length(b) + 1e-6
        assert joint >= max(interval_union_length(a), interval_union_length(b)) - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(intervals())
    def test_union_invariant_under_duplication(self, ivs):
        assert interval_union_length(ivs + ivs) == interval_union_length(ivs)


def _eager_total(spans, category):
    merged = merge_intervals([(s.start, s.end) for s in spans
                              if s.category == category])
    return sum(hi - lo for lo, hi in merged)


def _eager_overlap(spans):
    """Figure 2.2b's ratio from a Span list: union of comm, then one
    sweep over the merged comm and compute lists."""
    comm = merge_intervals([(s.start, s.end) for s in spans if s.category == "comm"])
    comp = merge_intervals([(s.start, s.end) for s in spans
                            if s.category == "compute"])
    comm_len = sum(hi - lo for lo, hi in comm)
    if comm_len == 0.0:
        return 0.0
    i = j = 0
    both = 0.0
    while i < len(comm) and j < len(comp):
        lo = max(comm[i][0], comp[j][0])
        hi = min(comm[i][1], comp[j][1])
        if hi > lo:
            both += hi - lo
        if comm[i][1] < comp[j][1]:
            i += 1
        else:
            j += 1
    return both / comm_len


def _fields(span):
    return (span.start, span.end, span.lane, span.name, span.category)


def _eager_chrome(spans):
    fresh = Tracer()
    for s in spans:
        fresh.record(s.lane, s.name, s.category, s.start, s.end, s.meta)
    return fresh.to_chrome_trace()


CATEGORIES = ("compute", "comm", "sync")
record_ops = st.tuples(st.just("record"), st.sampled_from(("gpu0.s", "gpu1.s")),
                       st.sampled_from(CATEGORIES), finite, finite)
read_ops = st.sampled_from([("spans",), ("overlap",), ("chrome",)]
                           + [("total", c) for c in CATEGORIES])


class TestLazyMatchesEager:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(record_ops, read_ops), max_size=30))
    def test_interleaved_reads_and_records(self, ops):
        tracer = Tracer()
        eager: list[Span] = []
        for op in ops:
            if op[0] == "record":
                _, lane, category, a, b = op
                lo, hi = min(a, b), max(a, b)
                tracer.record(lane, "k", category, lo, hi)
                eager.append(Span(lane, "k", category, lo, hi))
            elif op[0] == "spans":
                assert tracer.spans == eager
            elif op[0] == "total":
                assert tracer.total(op[1]) == _eager_total(eager, op[1])
            elif op[0] == "overlap":
                assert tracer.overlap_ratio() == _eager_overlap(eager)
            else:
                assert tracer.to_chrome_trace() == _eager_chrome(eager)
        assert tracer.spans == eager
        for category in CATEGORIES:
            assert tracer.total(category) == _eager_total(eager, category)

    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(st.sampled_from([6, 12, 64, 256]), min_size=2, max_size=3,
                 unique=True),
        st.sampled_from([9, 2050]),
        st.integers(min_value=2, max_value=3),
        st.sampled_from(["cpufree", "baseline_nvshmem", "baseline_copy",
                         "baseline_overlap"]),
        st.lists(st.sampled_from(("totals", "spans", "record")),
                 min_size=3, max_size=3),
    )
    # a small member next to a large one: the host waits on the large
    # member's stream only, so the WAIT_SPAN rule drops spans per member
    @example([6, 256], 2050, 2, "baseline_nvshmem", ["totals", "spans", "record"])
    @example([6, 256], 2050, 2, "baseline_overlap", ["spans", "totals", "totals"])
    def test_demuxed_members(self, rows_list, cols, gpus, variant, orders):
        configs = [StencilConfig(global_shape=(rows * gpus, cols), num_gpus=gpus,
                                 iterations=2, with_data=False)
                   for rows in rows_list]
        results = run_batched_stencil(variant, configs)
        extra = Span("gpu0.extra", "late", "comm", 0.0, 1.0)
        for res, config, order in zip(results, configs, orders):
            tracer = res.tracer
            if order == "record":
                tracer.record(extra.lane, extra.name, extra.category,
                              extra.start, extra.end)
            if order == "spans":
                first = list(tracer.spans)
            totals = ([tracer.total(c) for c in ("comm", "sync", "api")]
                      + [tracer.overlap_ratio()])
            spans = tracer.spans
            if order == "spans":
                assert spans == first
            # the eager reference: totals straight from the Span list
            assert totals == ([_eager_total(spans, c) for c in ("comm", "sync", "api")]
                              + [_eager_overlap(spans)])
            # ... whose spans are the per-point run's (batched runs may
            # record same-instant spans in another order)
            want = run_variant(variant, config).tracer
            if order == "record":
                assert spans[-1] == extra
                spans = spans[:-1]
            else:
                assert totals == ([want.total(c) for c in ("comm", "sync", "api")]
                                  + [want.overlap_ratio()])
                assert tracer.to_chrome_trace() == want.to_chrome_trace()
            assert sorted(map(_fields, spans)) == sorted(map(_fields, want.spans))
