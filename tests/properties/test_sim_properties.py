"""Property-based tests for the DES engine and interval math."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Delay,
    Simulator,
    WaitFlag,
    interval_union_length,
    merge_intervals,
    overlap_length,
)

finite_times = st.floats(min_value=0.0, max_value=1e6,
                         allow_nan=False, allow_infinity=False)
intervals = st.lists(
    st.tuples(finite_times, finite_times).map(lambda p: (min(p), max(p))),
    max_size=30,
)


class TestIntervalProperties:
    @given(intervals)
    def test_merge_produces_sorted_disjoint(self, ivs):
        merged = merge_intervals(ivs)
        for (a0, a1), (b0, b1) in zip(merged, merged[1:]):
            assert a1 < b0
        assert merged == sorted(merged)

    @given(intervals)
    def test_merge_idempotent(self, ivs):
        once = merge_intervals(ivs)
        assert merge_intervals(once) == once

    @given(intervals)
    def test_union_length_bounded_by_sum(self, ivs):
        union = interval_union_length(ivs)
        total = sum(hi - lo for lo, hi in ivs)
        assert 0.0 <= union <= total + 1e-9

    @given(intervals, intervals)
    def test_overlap_bounded_by_each_union(self, a, b):
        ov = overlap_length(a, b)
        assert ov <= interval_union_length(a) + 1e-9
        assert ov <= interval_union_length(b) + 1e-9
        assert ov >= 0.0

    @given(intervals, intervals)
    def test_overlap_symmetric(self, a, b):
        assert abs(overlap_length(a, b) - overlap_length(b, a)) < 1e-9

    @given(intervals)
    def test_self_overlap_is_union(self, ivs):
        assert abs(overlap_length(ivs, ivs) - interval_union_length(ivs)) < 1e-9


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=20))
    def test_total_time_is_max_of_parallel_delays(self, delays):
        sim = Simulator()

        def worker(dt):
            yield Delay(dt)

        for dt in delays:
            sim.spawn(worker(dt))
        assert abs(sim.run() - max(delays)) < 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=20))
    def test_total_time_is_sum_of_serial_delays(self, delays):
        sim = Simulator()

        def worker():
            for dt in delays:
                yield Delay(dt)

        sim.spawn(worker())
        assert abs(sim.run() - sum(delays)) < 1e-6

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_flag_waiters_wake_in_threshold_order(self, thresholds):
        sim = Simulator()
        flag = sim.flag(0)
        woke: list[int] = []

        def waiter(threshold):
            yield WaitFlag(flag, lambda v, t=threshold: v >= t)
            woke.append(threshold)

        for t in thresholds:
            sim.spawn(waiter(t))

        def incrementer():
            for _ in range(51):
                yield Delay(1.0)
                flag.add(1)

        sim.spawn(incrementer())
        sim.run()
        assert sorted(woke) == sorted(thresholds)
        # a waiter with a lower threshold never wakes after a higher one
        # finishing earlier wall-clock-wise; verify monotone wake times
        for a, b in zip(woke, woke[1:]):
            assert a <= b or thresholds.count(b) > 0  # ties allowed
