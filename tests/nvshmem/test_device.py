"""Tests for device-side NVSHMEM operations, including the
delivery-ordering guarantees and the missing-quiet race."""

import numpy as np
import pytest

from repro.faults import DeliveryError, DeliveryFault, FaultPlan
from repro.hw import HGX_A100_8GPU
from repro.nvshmem import NVSHMEMRuntime, SignalOp, WaitCond
from repro.nvshmem.device import Scope
from repro.runtime import MultiGPUContext
from repro.sanitize import attach_sanitizer, detect_races
from repro.sim import Delay, Tracer


@pytest.fixture
def rt():
    return NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer()))


class TestPutmem:
    def test_blocking_put_delivers_before_return(self, rt):
        arr = rt.malloc("a", (4,), fill=0.0)
        checked = []

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem(arr, slice(None), np.full(4, 7.0), dest_pe=1)
            # Blocking: destination memory is updated once we return.
            checked.append(np.all(arr.local(1) == 7.0))

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert checked == [True]

    def test_nbi_put_returns_before_delivery(self, rt):
        arr = rt.malloc("a", (1024,), fill=0.0)
        observed = []

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem_nbi(arr, slice(None), np.full(1024, 3.0), dest_pe=1)
            observed.append(bool(np.all(arr.local(1) == 3.0)))  # not yet delivered
            yield from dev.quiet()
            observed.append(bool(np.all(arr.local(1) == 3.0)))  # delivered after quiet

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert observed == [False, True]

    def test_nbi_snapshot_at_issue(self, rt):
        arr = rt.malloc("a", (4,), fill=0.0)
        src = np.full(4, 1.0)

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem_nbi(arr, slice(None), src, dest_pe=1)
            src[:] = 99.0  # mutate after issue
            yield from dev.quiet()

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert np.all(arr.local(1) == 1.0)

    def test_block_scope_faster_than_thread_scope(self, rt):
        nbytes = 4 * 1024 * 1024

        def timed(scope):
            local = NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(2)))

            def pe0():
                dev = local.device(0)
                yield from dev.putmem(None, None, 0.0, dest_pe=1, nbytes=nbytes, scope=scope)

            local.ctx.sim.spawn(pe0(), name="pe0")
            return local.ctx.run()

        assert timed(Scope.THREAD) > timed(Scope.WARP) > timed(Scope.BLOCK)

    def test_timing_only_put(self, rt):
        def pe0():
            dev = rt.device(0)
            yield from dev.putmem(None, None, 0.0, dest_pe=1, nbytes=300_000)

        rt.ctx.sim.spawn(pe0(), name="pe0")
        total = rt.ctx.run()
        assert total > 1.0  # wire time for 300 KB at 300 GB/s


class TestPutmemSignal:
    def test_signal_delivered_after_data(self, rt):
        """The semaphore protocol of §4.1.1: when the destination PE
        observes the signal, the halo data must already be there."""
        arr = rt.malloc("halo", (256,), fill=0.0)
        sig = rt.malloc_signals("flags", 1)
        result = []

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem_signal_nbi(
                arr, slice(None), np.full(256, 4.0), sig, 0, 1, dest_pe=1
            )
            # keep running: no quiet needed for the *destination's* view

        def pe1():
            dev = rt.device(1)
            yield from dev.signal_wait_until(sig, 0, WaitCond.GE, 1)
            result.append(bool(np.all(arr.local(1) == 4.0)))

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.sim.spawn(pe1(), name="pe1")
        rt.ctx.run()
        assert result == [True]

    def test_blocking_putmem_signal(self, rt):
        arr = rt.malloc("x", (8,), fill=0.0)
        sig = rt.malloc_signals("f", 1)

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem_signal(arr, slice(None), np.ones(8), sig, 0, 5, dest_pe=1)

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert sig.value(1, 0) == 5
        assert np.all(arr.local(1) == 1.0)

    def test_signal_add_accumulates(self, rt):
        sig = rt.malloc_signals("f", 1)
        arr = rt.malloc("x", (1,), fill=0.0)

        def pe0():
            dev = rt.device(0)
            for _ in range(3):
                yield from dev.putmem_signal(
                    arr, 0, 1.0, sig, 0, 1, dest_pe=1, sig_op=SignalOp.ADD
                )

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert sig.value(1, 0) == 3

    def test_iteration_parity_semaphore(self, rt):
        """Flags carry the iteration number: waiting compares to the
        current iteration, signaling writes iteration+1 (§4.1.1)."""
        sig = rt.malloc_signals("iter_flags", 2)
        arr = rt.malloc("halo", (4,), fill=0.0)
        iterations = 5
        seen = []

        def pe(me, other):
            dev = rt.device(me)
            for it in range(1, iterations + 1):
                yield from dev.putmem_signal_nbi(
                    arr, slice(None), np.full(4, float(it)), sig, me, it, dest_pe=other
                )
                yield from dev.signal_wait_until(sig, other, WaitCond.GE, it)
                seen.append((me, it, int(sig.value(me if False else me, other))))

        rt.ctx.sim.spawn(pe(0, 1), name="pe0")
        rt.ctx.sim.spawn(pe(1, 0), name="pe1")
        rt.ctx.run()
        assert len(seen) == 2 * iterations


def _blocking_signal_put(plan=None, n=8):
    """One blocking ``putmem_signal`` of ``n`` doubles, PE 0 -> PE 1."""
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer(),
                          faults=plan.injector() if plan is not None else None)
    rt = NVSHMEMRuntime(ctx)
    arr = rt.malloc("x", (n,), fill=0.0)
    sig = rt.malloc_signals("f", 1)

    def pe0():
        yield from rt.device(0).putmem_signal(
            arr, slice(None), np.ones(n), sig, 0, 5, dest_pe=1)

    ctx.sim.spawn(pe0(), name="pe0")
    return ctx.run(), ctx, arr, sig


def _drops(max_drops, *, silent=False):
    return FaultPlan(deliveries=(
        DeliveryFault(drop_prob=1.0, silent=silent, max_drops=max_drops),))


class TestBlockingDelivery:
    """A blocking put starts one delivery leg and waits for it."""

    def test_fault_free_time_is_latency_plus_wire_then_signal(self):
        total, ctx, arr, sig = _blocking_signal_put()
        link = ctx.topology.link(0, 1)
        wire = link.latency_us + 64 / (link.bandwidth_gbps * 1.0 * 1000.0)
        assert total == (ctx.cost.nvshmem_put_latency_us + wire) + ctx.cost.nvshmem_signal_us
        assert sig.value(1, 0) == 5
        assert np.all(arr.local(1) == 1.0)

    @pytest.mark.parametrize("max_drops, silent, expected_us", [
        (1, False, 6.600426666666667),   # one backoff of 2 us and one resent wire
        (2, False, 11.900640000000001),  # backoffs of 2 + 4 us and two resent wires
        (1, True, 6.600426666666667),    # a silent loss is retried like a drop
    ])
    def test_dropped_attempts_retry_the_wire(self, max_drops, silent, expected_us):
        total, ctx, arr, sig = _blocking_signal_put(_drops(max_drops, silent=silent))
        assert total == expected_us
        assert ctx.faults.total_retries == max_drops
        assert sig.value(1, 0) == 5
        assert np.all(arr.local(1) == 1.0)

    def test_unlimited_drops_exhaust_the_retry_limit(self):
        with pytest.raises(DeliveryError, match=(
                r"putmem_signal: pe0->pe1 delivery dropped 9 time\(s\); "
                r"retry limit 8 exhausted")):
            _blocking_signal_put(_drops(None))

    def test_signal_publishes_the_store_made_by_the_leg(self):
        """The leg writes the data; the caller takes the leg's clock back
        through ``done``, so its signal orders the store before a reader."""
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2))
        sanitizer = attach_sanitizer(ctx)
        rt = NVSHMEMRuntime(ctx)
        arr = rt.malloc("a", (8,), fill=0.0)
        sig = rt.malloc_signals("s", 1)

        def pe0():
            yield from rt.device(0).putmem_signal(
                arr, slice(None), np.ones(8), sig, 0, 1, dest_pe=1)

        def pe1():
            yield from rt.device(1).signal_wait_until(sig, 0, WaitCond.GE, 1)
            sanitizer.record_symmetric(arr, 1, slice(None), "read", site="pe1.read", by_pe=1)

        ctx.sim.spawn(pe0(), name="gpu0.k")
        ctx.sim.spawn(pe1(), name="gpu1.k")
        ctx.run()
        assert len(sanitizer.accesses) == 2
        assert detect_races(sanitizer) == []

    def test_waits_for_earlier_nbi_puts_on_the_route_under_faults(self):
        """Under a fault plan a route is FIFO: the blocking put lands
        after the dropped and resent ``nbi`` put issued before it."""
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2),
                              faults=_drops(1).injector())
        rt = NVSHMEMRuntime(ctx)
        arr = rt.malloc("x", (1 << 12,), fill=0.0)

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem_nbi(arr, slice(None), np.full(1 << 12, 1.0), dest_pe=1)
            yield from dev.putmem(arr, slice(0, 1), np.full(1, 2.0), dest_pe=1)

        ctx.sim.spawn(pe0(), name="pe0")
        total = ctx.run()
        assert arr.local(1)[0] == 2.0
        assert ctx.faults.total_retries == 1
        assert total == 5.918453333333334  # the nbi put's resent landing


class TestStridedAndScalar:
    def test_iput_then_quiet_then_signal_is_safe(self, rt):
        """The generated-code pattern of §5.3.1: iput + quiet +
        signal_op keeps the destination's view consistent."""
        arr = rt.malloc("col", (64,), fill=0.0)
        sig = rt.malloc_signals("f", 1)
        ok = []

        def pe0():
            dev = rt.device(0)
            yield from dev.iput(arr, slice(None), np.full(64, 2.0), dest_pe=1)
            yield from dev.quiet()
            yield from dev.signal_op(sig, 0, 1, dest_pe=1)

        def pe1():
            dev = rt.device(1)
            yield from dev.signal_wait_until(sig, 0, WaitCond.GE, 1)
            ok.append(bool(np.all(arr.local(1) == 2.0)))

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.sim.spawn(pe1(), name="pe1")
        rt.ctx.run()
        assert ok == [True]

    def test_iput_without_quiet_races_signal(self, rt):
        """FAILURE INJECTION: dropping the quiet lets the signal
        overtake the strided data — the destination reads stale halos."""
        arr = rt.malloc("col", (4096,), fill=0.0)
        sig = rt.malloc_signals("f", 1)
        ok = []

        def pe0():
            dev = rt.device(0)
            yield from dev.iput(arr, slice(None), np.full(4096, 2.0), dest_pe=1)
            # BUG: no quiet here
            yield from dev.signal_op(sig, 0, 1, dest_pe=1)

        def pe1():
            dev = rt.device(1)
            yield from dev.signal_wait_until(sig, 0, WaitCond.GE, 1)
            ok.append(bool(np.all(arr.local(1) == 2.0)))

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.sim.spawn(pe1(), name="pe1")
        rt.ctx.run()
        assert ok == [False]  # stale read observed

    def test_iput_cost_scales_with_elements(self, rt):
        def timed(n):
            local = NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(2)))

            def pe0():
                dev = local.device(0)
                yield from dev.iput(None, None, np.zeros(n), dest_pe=1)
                yield from dev.quiet()

            local.ctx.sim.spawn(pe0(), name="pe0")
            return local.ctx.run()

        assert timed(10_000) > timed(100)

    def test_p_single_element(self, rt):
        arr = rt.malloc("x", (8,), fill=0.0)

        def pe0():
            dev = rt.device(0)
            yield from dev.p(arr, 3, 42.0, dest_pe=1)
            yield from dev.quiet()

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert arr.local(1)[3] == 42.0


class TestWaitAndOrdering:
    def test_wait_conditions(self):
        assert WaitCond.EQ.check(3, 3)
        assert not WaitCond.EQ.check(2, 3)
        assert WaitCond.NE.check(2, 3)
        assert WaitCond.GT.check(4, 3)
        assert WaitCond.GE.check(3, 3)
        assert WaitCond.LT.check(2, 3)
        assert WaitCond.LE.check(3, 3)

    def test_quiet_with_nothing_pending_is_cheap(self, rt):
        def pe0():
            dev = rt.device(0)
            yield from dev.quiet()

        rt.ctx.sim.spawn(pe0(), name="pe0")
        assert rt.ctx.run() == pytest.approx(rt.ctx.cost.nvshmem_quiet_us)

    def test_quiet_waits_for_all_pending(self, rt):
        arr = rt.malloc("a", (1024,), fill=0.0)

        def pe0():
            dev = rt.device(0)
            for i in range(4):
                yield from dev.putmem_nbi(arr, slice(None), np.full(1024, float(i)), dest_pe=1)
            yield from dev.quiet()
            assert rt.pending(0).value == 0

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()

    def test_fence_does_not_block(self, rt):
        """fence is weaker than quiet: it returns immediately, before
        in-flight deliveries land (the old model collapsed it to quiet)."""
        arr = rt.malloc("a", (1 << 16,), fill=0.0)
        observed = []

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem_nbi(arr, slice(None), np.ones(1 << 16), dest_pe=1)
            yield from dev.fence()
            observed.append(bool(np.all(arr.local(1) == 1.0)))  # still in flight
            yield from dev.quiet()
            observed.append(bool(np.all(arr.local(1) == 1.0)))

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert observed == [False, True]

    def test_fence_cheaper_than_quiet(self, rt):
        def run(op_name):
            local = NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(2)))
            arr = local.malloc("a", (1 << 18,), fill=0.0)

            def pe0():
                dev = local.device(0)
                yield from dev.putmem_nbi(arr, slice(None), np.ones(1 << 18), dest_pe=1)
                fence_done = None
                if op_name == "fence":
                    yield from dev.fence()
                else:
                    yield from dev.quiet()
                fence_done = local.ctx.sim.now
                times[op_name] = fence_done

            times = {}
            local.ctx.sim.spawn(pe0(), name="pe0")
            local.ctx.run()
            return times[op_name]

        assert run("fence") < run("quiet")

    def test_fence_orders_same_route_deliveries(self, rt):
        """A small post-fence put must not overtake a large pre-fence
        one on the same route; without the fence it does."""
        def last_writer(with_fence: bool) -> float:
            local = NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(2)))
            arr = local.malloc("a", (1 << 16,), fill=0.0)

            def pe0():
                dev = local.device(0)
                # large put: long wire time
                yield from dev.putmem_nbi(arr, slice(None),
                                          np.full(1 << 16, 1.0), dest_pe=1)
                if with_fence:
                    yield from dev.fence()
                # small overlapping put: would land first unordered
                yield from dev.putmem_nbi(arr, slice(0, 8),
                                          np.full(8, 2.0), dest_pe=1)
                yield from dev.quiet()

            local.ctx.sim.spawn(pe0(), name="pe0")
            local.ctx.run()
            return float(arr.local(1)[0])

        # unordered: the large put lands last and overwrites the small one
        assert last_writer(with_fence=False) == 1.0
        # fenced: the small put applies after the large one completes
        assert last_writer(with_fence=True) == 2.0

    def test_fence_with_nothing_in_flight_is_free_of_ordering_state(self, rt):
        def pe0():
            dev = rt.device(0)
            yield from dev.fence()

        rt.ctx.sim.spawn(pe0(), name="pe0")
        total = rt.ctx.run()
        assert total == pytest.approx(rt.ctx.cost.nvshmem_fence_us)
        assert rt._fence_bar == {}
        assert rt._route_done_flag == {}

    def test_device_barrier_all(self, rt):
        times = []

        def pe(me, delay):
            dev = rt.device(me)
            yield Delay(delay)
            yield from dev.barrier_all()
            times.append(rt.ctx.sim.now)

        rt.ctx.sim.spawn(pe(0, 1.0), name="pe0")
        rt.ctx.sim.spawn(pe(1, 6.0), name="pe1")
        rt.ctx.run()
        assert times[0] == times[1]
        assert times[0] >= 6.0

    def test_comm_spans_traced(self, rt):
        arr = rt.malloc("a", (64,), fill=0.0)

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem(arr, slice(None), np.ones(64), dest_pe=1)

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert rt.ctx.tracer.total("comm") > 0.0


class TestSignalAttribution:
    def test_two_producer_wait_attributes_satisfying_delivery(self):
        """Two producers land signals in the same timestep: the wait
        must attribute its flow link to the delivery that drove the
        word to the value it resumed with, not the last one to land
        (the old ``last_signal_flow`` bookkeeping named the latter)."""
        rt = NVSHMEMRuntime(
            MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())
        )
        sig = rt.malloc_signals("f", 1)
        resumed = []

        def producer(value):
            # two concurrent device processes of pe0 (think: two thread
            # blocks), identical issue cost and link latency — their
            # deliveries land in the same timestep, in spawn order
            dev = rt.device(0)
            yield from dev.signal_op(sig, 0, value, dest_pe=1, op=SignalOp.SET)

        def waiter():
            dev = rt.device(1)
            value = yield from dev.signal_wait_until(sig, 0, WaitCond.GE, 1)
            resumed.append(value)

        rt.ctx.sim.spawn(waiter(), name="pe1")
        rt.ctx.sim.spawn(producer(1), name="pe0.block0")
        rt.ctx.sim.spawn(producer(2), name="pe0.block1")
        rt.ctx.run()
        # the word was driven 0 -> 1 -> 2 within one timestep; the wait
        # was satisfied by the first update (though by the time the API
        # returns, the word already reads 2) and must link to its flow
        assert resumed == [2]
        first_flow = rt.signal_flow_at(1, 0, 1)
        later_flow = rt.signal_flow_at(1, 0, 2)
        assert first_flow is not None and later_flow is not None
        assert first_flow[0] != later_flow[0]
        wait_spans = [s for s in rt.ctx.tracer.spans
                      if s.name == "signal_wait_until"]
        assert len(wait_spans) == 1
        assert wait_spans[0].meta == {"flow_f": first_flow[0]}

    def test_same_value_set_does_not_claim_attribution(self):
        """A second delivery re-setting the word to the same value is a
        no-op (wakes nobody) and must not steal the attribution."""
        rt = NVSHMEMRuntime(
            MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())
        )
        sig = rt.malloc_signals("f", 1)
        flows = {}

        def producer(tag):
            dev = rt.device(0)
            flows[tag] = rt._flow_seq + 1  # flow id the op will draw
            yield from dev.signal_op(sig, 0, 1, dest_pe=1, op=SignalOp.SET)

        def first():
            yield from producer("first")

        def second():
            yield from producer("second")

        rt.ctx.sim.spawn(first(), name="pe0.block0")
        rt.ctx.sim.spawn(second(), name="pe0.block1")
        rt.ctx.run()
        # the first delivery applied 0 -> 1; the second's same-value
        # set changed nothing and kept no attribution record
        assert rt.signal_flow_at(1, 0, 1)[0] == flows["first"]
