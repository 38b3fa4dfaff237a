"""Tests for MultiGPUContext and the host-thread API."""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU
from repro.runtime import CooperativeLaunchError, MultiGPUContext
from repro.runtime.kernel import KernelSpec
from repro.sim import Tracer


@pytest.fixture
def ctx():
    return MultiGPUContext(HGX_A100_8GPU.scaled_to(2), tracer=Tracer())


class TestContextBasics:
    def test_stream_get_or_create(self, ctx):
        s1 = ctx.stream(0, "comp")
        s2 = ctx.stream(0, "comp")
        assert s1 is s2
        assert ctx.stream(0, "comm") is not s1

    def test_stream_invalid_device(self, ctx):
        with pytest.raises(ValueError):
            ctx.stream(5)

    def test_alloc_delegates_to_memory(self, ctx):
        buf = ctx.alloc(1, "grid", (4, 4))
        assert buf.device == 1
        assert ctx.memory.used_bytes(1) == buf.nbytes


class TestKernelLaunch:
    def test_launch_charges_host_time_and_runs_body(self, ctx):
        host = ctx.host(0)
        stream = ctx.stream(0)
        ran = []

        def body(dev):
            yield from dev.busy(10.0, "work", "compute")
            ran.append(dev.device)

        def host_proc():
            ev = yield from host.launch(stream, KernelSpec("k", blocks=8), body)
            yield from host.event_sync(ev)

        ctx.sim.spawn(host_proc(), name="host")
        total = ctx.run()
        # launch overhead + kernel body + event sync overhead
        assert total >= ctx.cost.kernel_launch_us + 10.0
        assert ran == [0]

    def test_cooperative_launch_within_budget(self, ctx):
        host = ctx.host(0)
        stream = ctx.stream(0)
        limit = ctx.node.gpu.max_coresident_blocks(1024)

        def body(dev):
            yield from dev.busy(1.0, "w", "compute")

        def host_proc():
            yield from host.launch(
                stream, KernelSpec("coop", blocks=limit, cooperative=True), body
            )

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()

    def test_cooperative_launch_oversubscribed_raises(self, ctx):
        host = ctx.host(0)
        stream = ctx.stream(0)
        limit = ctx.node.gpu.max_coresident_blocks(1024)

        def body(dev):
            yield from dev.busy(1.0, "w", "compute")

        def host_proc():
            yield from host.launch(
                stream, KernelSpec("coop", blocks=limit + 1, cooperative=True), body
            )

        ctx.sim.spawn(host_proc(), name="host")
        with pytest.raises(CooperativeLaunchError):
            ctx.run()

    def test_discrete_launch_may_oversubscribe(self, ctx):
        host = ctx.host(0)
        stream = ctx.stream(0)

        def body(dev):
            yield from dev.busy(1.0, "w", "compute")

        def host_proc():
            yield from host.launch(stream, KernelSpec("big", blocks=10**6), body)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()  # no exception

    def test_kernel_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("k", blocks=0)
        with pytest.raises(ValueError):
            KernelSpec("k", blocks=1, threads_per_block=0)


class TestMemcpy:
    def test_memcpy_moves_data(self, ctx):
        src = ctx.alloc(0, "src", (8,), fill=7.0)
        dst = ctx.alloc(1, "dst", (8,), fill=0.0)
        host = ctx.host(0)
        stream = ctx.stream(0)

        def host_proc():
            yield from host.memcpy_async(stream, dst, slice(None), src, slice(None))
            yield from host.stream_sync(stream)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        assert np.all(dst.data == 7.0)

    def test_memcpy_snapshot_at_execution_time(self, ctx):
        """In-order streams: a copy sees writes from earlier items."""
        src = ctx.alloc(0, "src", (4,), fill=1.0)
        dst = ctx.alloc(1, "dst", (4,), fill=0.0)
        host = ctx.host(0)
        stream = ctx.stream(0)

        def mutate(dev):
            yield from dev.busy(5.0, "mutate", "compute")
            src.data[:] = 2.0

        def host_proc():
            yield from host.launch(stream, KernelSpec("mutate", blocks=1), mutate)
            yield from host.memcpy_async(stream, dst, slice(None), src, slice(None))
            yield from host.stream_sync(stream)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        assert np.all(dst.data == 2.0)

    def test_modeled_memcpy_charges_time_only(self, ctx):
        host = ctx.host(0)
        stream = ctx.stream(0)

        def host_proc():
            yield from host.memcpy_async_modeled(stream, 0, 1, nbytes=300_000)
            yield from host.stream_sync(stream)

        ctx.sim.spawn(host_proc(), name="host")
        total = ctx.run()
        # transfer alone: 1.3 us latency + 1.0 us wire time
        assert total > 2.3


class TestSynchronization:
    def test_stream_sync_blocks_until_drain(self, ctx):
        host = ctx.host(0)
        stream = ctx.stream(0)
        stream.enqueue_delay(50.0)
        t = []

        def host_proc():
            yield from host.stream_sync(stream)
            t.append(ctx.sim.now)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        assert t[0] >= 50.0

    def test_device_sync_drains_all_streams(self, ctx):
        host = ctx.host(0)
        ctx.stream(0, "a").enqueue_delay(10.0)
        ctx.stream(0, "b").enqueue_delay(20.0)
        ctx.stream(1, "other").enqueue_delay(100.0)
        t = []

        def host_proc():
            yield from host.device_sync(0)
            t.append(ctx.sim.now)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        assert 20.0 <= t[0] < 100.0

    def test_tracing_records_api_spans(self, ctx):
        host = ctx.host(0)
        stream = ctx.stream(0)

        def body(dev):
            yield from dev.busy(5.0, "w", "compute")

        def host_proc():
            yield from host.launch(stream, KernelSpec("k", blocks=1), body)
            yield from host.stream_sync(stream)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        api_spans = ctx.tracer.spans_in("api", lane_prefix="host0")
        assert any("launch:k" == s.name for s in api_spans)
        compute_spans = ctx.tracer.spans_in("compute")
        assert len(compute_spans) == 1


class TestPeerOps:
    def test_peer_store_moves_values(self, ctx):
        ctx.memory.enable_all_peer_access()
        dst = ctx.alloc(1, "halo", (4,), fill=0.0)
        host = ctx.host(0)
        stream = ctx.stream(0)

        def body(dev):
            yield from dev.peer_store(dst, slice(None), np.full(4, 9.0))

        def host_proc():
            ev = yield from host.launch(stream, KernelSpec("p2p", blocks=1), body)
            yield from host.event_sync(ev)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        assert np.all(dst.data == 9.0)

    def test_peer_store_without_access_raises(self, ctx):
        dst = ctx.alloc(1, "halo", (4,))
        host = ctx.host(0)
        stream = ctx.stream(0)

        def body(dev):
            yield from dev.peer_store(dst, slice(None), np.zeros(4))

        def host_proc():
            yield from host.launch(stream, KernelSpec("p2p", blocks=1), body)

        ctx.sim.spawn(host_proc(), name="host")
        from repro.hw.memory import PeerAccessError

        with pytest.raises(PeerAccessError):
            ctx.run()

    def test_peer_load_returns_copy(self, ctx):
        ctx.memory.enable_all_peer_access()
        src = ctx.alloc(1, "data", (4,), fill=3.0)
        host = ctx.host(0)
        stream = ctx.stream(0)
        got = []

        def body(dev):
            values = yield from dev.peer_load(src, slice(None))
            got.append(values)

        def host_proc():
            ev = yield from host.launch(stream, KernelSpec("load", blocks=1), body)
            yield from host.event_sync(ev)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        assert np.all(got[0] == 3.0)
        src.data[:] = 0.0
        assert np.all(got[0] == 3.0)  # a copy, not a view


class TestCrossStreamEvents:
    def test_event_record_then_stream_wait_event_orders_a_copy(self, ctx):
        """Producer kernel, cudaEventRecord, cudaStreamWaitEvent on a
        consumer stream that is still busy, then a copy on it: the copy
        starts exactly when the producer kernel ends."""
        host = ctx.host(0)
        producer = ctx.stream(0, "prod")
        consumer = ctx.stream(0, "cons")
        src = ctx.alloc(0, "src", 1000, fill=1.0)
        dst = ctx.alloc(1, "dst", 1000)
        waited = []

        def body(dev):
            yield from dev.busy(20.0, "produce", "compute")
            src.data[:] = 7.0

        def host_proc():
            consumer.enqueue_delay(5.0, name="busy")
            yield from host.launch(producer, KernelSpec("producer", blocks=1), body)
            ev = yield from host.event_record(producer, "produced")
            assert not ev.complete
            yield from host.stream_wait_event(consumer, ev)
            assert not consumer.idle  # queued behind "busy"
            yield from host.memcpy_async(consumer, dst, slice(None), src, slice(None),
                                         name="copy")
            yield from host.stream_sync(consumer)
            waited.append(ctx.sim.now)

        ctx.sim.spawn(host_proc(), name="host")
        ctx.run()
        (copy,) = [s for s in ctx.tracer.spans if s.name == "copy"]
        (kernel,) = [s for s in ctx.tracer.spans if s.name == "produce"]
        # launch 3.2 us + 20 us body; the copy's 8000 B then take 1.3267 us
        assert kernel.end == pytest.approx(23.2, abs=1e-9)
        assert copy.lane == "gpu0.cons"
        assert copy.start == kernel.end
        assert copy.end == pytest.approx(24.526666666666667, abs=1e-9)
        assert np.all(dst.data == 7.0)  # read when the copy started
        api = [s.name for s in ctx.tracer.spans_in("api", lane_prefix="host0")]
        assert api[:4] == ["launch:producer", "eventRecord:produced",
                           "streamWaitEvent:produced", "memcpyAsync:copy"]
        assert waited[0] >= copy.end
