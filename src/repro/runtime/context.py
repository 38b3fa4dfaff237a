"""The multi-GPU runtime context and host-thread API.

:class:`MultiGPUContext` bundles everything one simulated node needs:
the event loop, topology, memory manager, cost model, and tracer.

:class:`HostThread` is the simulated analogue of one CPU thread driving
one GPU (the OpenMP-style "one thread per device" pattern of NVIDIA's
multi-GPU samples).  Every method charges the calibrated host-side API
overhead to the calling process and traces it on the host's lane —
making the CPU-controlled baselines pay exactly the latencies the
paper attributes to them.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

import numpy as np

from repro.hw import (
    DEFAULT_COST_MODEL,
    CostModel,
    DeviceBuffer,
    MemoryManager,
    NodeSpec,
    Storage,
    build_topology,
)
from repro.obs.metrics import MetricsRegistry, active_metrics
from repro.runtime.kernel import (
    DeviceKernelContext,
    KernelSpec,
    validate_cooperative_launch,
)
from repro.runtime.stream import Event, Stream
from repro.sim import Delay, Simulator, Tracer
from repro.sim.stacked import WAIT_SPAN, any_member_gt

__all__ = ["HostThread", "MultiGPUContext"]


class MultiGPUContext:
    """One simulated multi-GPU node plus its runtime state."""

    def __init__(
        self,
        node: NodeSpec,
        cost: CostModel = DEFAULT_COST_MODEL,
        tracer: Tracer | None = None,
        metrics: "MetricsRegistry | None" = None,
        faults: Any = None,
    ) -> None:
        self.node = node
        self.cost = cost
        self.sim = Simulator()
        #: flat complete-graph topology within one NVSwitch domain,
        #: hierarchical (domains + rails) above it
        self.topology = build_topology(node)
        #: rail occupancy is priced against the sim clock
        self.topology.sim = self.sim
        self.memory = MemoryManager(node.num_gpus)
        self.tracer = tracer
        #: observability registry — explicit, or the ambient one
        #: installed via ``repro.obs.use_metrics`` (None = disabled)
        self.metrics = metrics if metrics is not None else active_metrics()
        self.topology.metrics = self.metrics
        self._published_engine: dict[str, Any] = {}
        #: memo for :meth:`DeviceKernelContext.compute` cost lookups —
        #: kernels recharge the same pure (elements, split) cost every
        #: iteration, which is cheap with floats but dominates batched
        #: runs where each recomputation is stacked arithmetic
        self._compute_memo: dict[Any, Any] = {}
        self._metric_flushers: list[Callable[[], None]] = []
        self._streams: dict[tuple[int, str], Stream] = {}
        #: optional FaultInjector (None = fault plane fully inert)
        self.faults = faults
        if faults is not None:
            faults.bind(self)
        #: optional communication sanitizer recorder, installed via
        #: ``repro.sanitize.attach_sanitizer`` (None = no recording)
        self.sanitizer: Any = None

    @property
    def num_gpus(self) -> int:
        return self.node.num_gpus

    # -- resources -------------------------------------------------------------

    def stream(self, device: int, name: str = "default") -> Stream:
        """Get-or-create the named stream on ``device``."""
        key = (device, name)
        if key not in self._streams:
            if not 0 <= device < self.num_gpus:
                raise ValueError(f"device {device} out of range")
            self._streams[key] = Stream(self.sim, device, name, self.faults)
        return self._streams[key]

    def alloc(
        self,
        device: int,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        storage: Storage = Storage.GLOBAL,
        fill: float | None = 0.0,
    ) -> DeviceBuffer:
        """Allocate device memory (see :class:`~repro.hw.memory.MemoryManager`)."""
        return self.memory.alloc(device, name, shape, dtype, storage, fill)

    def host(self, rank: int) -> "HostThread":
        """The host thread driving GPU ``rank``."""
        return HostThread(self, rank)

    def add_metric_flusher(self, flush: Callable[[], None]) -> None:
        """Register a component hook that folds privately accumulated
        metrics into the registry; invoked after each :meth:`run`."""
        self._metric_flushers.append(flush)

    def link_down(self, src: int, dst: int) -> bool:
        """True when an active fault plan marks the direct ``src -> dst``
        link permanently down (variants use this to pick their
        degraded host-staged path)."""
        return self.faults is not None and self.faults.link_down(src, dst)

    # -- tracing ----------------------------------------------------------------

    def trace(self, lane: str, name: str, category: str, start: float, end: float,
              meta: Any = None) -> None:
        if self.tracer is not None:
            self.tracer.record(lane, name, category, start, end, meta)

    def trace_wait(self, lane: str, name: str, start: float, end: float) -> None:
        """Record a sync span only if the caller actually waited.

        Scalar runs: a plain ``end > start`` guard.  Batched runs: the
        span is recorded whenever *any* member waited and tagged with
        the :data:`~repro.sim.stacked.WAIT_SPAN` sentinel; the
        demultiplexer drops the zero-duration members, reproducing the
        per-point guard member-by-member.
        """
        if end.__class__ is float and start.__class__ is float:
            if end > start:
                self.trace(lane, name, "sync", start, end)
        elif any_member_gt(end, start):
            self.trace(lane, name, "sync", start, end, meta=WAIT_SPAN)

    # -- orchestration ------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run the simulation to completion; returns final time (µs)."""
        total = self.sim.run(until)
        self._publish_engine_metrics()
        return total

    def _publish_engine_metrics(self) -> None:
        """Fold the engine's plain-int counters into the registry.

        Delta-tracked so repeated ``run()`` calls (e.g. ``until=``
        stepping) never double count.
        """
        m = self.metrics
        if m is None:
            return
        self.topology.flush_metrics()
        for flush in self._metric_flushers:
            flush()
        sim = self.sim
        scalars = {
            "sim.events_dispatched": sim.n_events,
            "sim.heap_pops": sim.n_heap_pops,
            "sim.ready_pops": sim.n_ready_pops,
            "sim.processes_spawned": sim.n_spawned,
        }
        for name, value in scalars.items():
            delta = value - self._published_engine.get(name, 0)
            if delta:
                m.counter(name).inc(delta)
                self._published_engine[name] = value
        for flag, count in sorted(sim.flag_wakeups.items()):
            key = f"flag:{flag}"
            delta = count - self._published_engine.get(key, 0)
            if delta:
                m.counter("sim.flag.wakeups", flag=flag).inc(delta)
                self._published_engine[key] = count


class HostThread:
    """Host-side CUDA API surface for one rank.  All methods are
    generator helpers to be ``yield from``-ed inside a host process.

    Each charges its host API overhead inline (a ``Delay`` and an
    ``api`` span on the host's lane) rather than through a shared
    helper generator: the baselines issue these calls every iteration.
    """

    def __init__(self, ctx: MultiGPUContext, rank: int) -> None:
        self.ctx = ctx
        self.rank = rank
        self.lane = f"host{rank}"

    # -- kernel launch -------------------------------------------------------------

    def launch(
        self,
        stream: Stream,
        spec: KernelSpec,
        body: Callable[[DeviceKernelContext], Generator[Any, Any, Any]],
    ) -> Generator[Any, Any, Event]:
        """``cudaLaunchKernel`` / ``cudaLaunchCooperativeKernel``.

        Charges host launch latency, validates co-residency for
        cooperative kernels, and enqueues the body on ``stream``.
        Returns the kernel's completion :class:`Event`.
        """
        ctx = self.ctx
        cost = ctx.cost.kernel_launch_us
        if spec.cooperative:
            validate_cooperative_launch(ctx, spec)
            cost += ctx.cost.cooperative_launch_extra_us
        sim = ctx.sim
        start = sim.now
        yield Delay(cost)
        if ctx.tracer is not None:
            ctx.tracer.record(self.lane, f"launch:{spec.name}", "api", start, sim.now)
        dev = DeviceKernelContext(ctx, stream.device, spec, stream.lane)
        return stream.enqueue(lambda: body(dev), name=spec.name)

    # -- memory movement --------------------------------------------------------------

    def memcpy_async(
        self,
        stream: Stream,
        dst: DeviceBuffer,
        dst_index: Any,
        src: DeviceBuffer,
        src_index: Any,
        *,
        name: str = "memcpy",
    ) -> Generator[Any, Any, Event]:
        """``cudaMemcpyAsync``: host enqueues, the copy runs in-stream.

        Data actually moves (NumPy assignment) when the stream reaches
        the copy, preserving in-order semantics: the source is read and
        the copy priced when it starts, the destination written when it
        ends.
        """
        ctx = self.ctx
        sim = ctx.sim
        tracer = ctx.tracer
        start = sim.now
        yield Delay(ctx.cost.memcpy_enqueue_us)
        if tracer is not None:
            tracer.record(self.lane, f"memcpyAsync:{name}", "api", start, sim.now)
        values = None

        def begin() -> Any:
            nonlocal values
            values = np.array(src.data[src_index])
            return ctx.topology.transfer_us(src.device, dst.device, values.nbytes)

        def end(begun: Any) -> None:
            dst.data[dst_index] = values
            if tracer is not None:
                tracer.record(stream.lane, name, "comm", begun, sim.now)

        return stream.enqueue_op(begin, end, name=name)

    def memcpy_async_modeled(
        self,
        stream: Stream,
        src_device: int,
        dst_device: int,
        nbytes: float,
        *,
        name: str = "memcpy",
    ) -> Generator[Any, Any, Event]:
        """Timing-only copy (no backing data) for no-compute experiments."""
        ctx = self.ctx
        sim = ctx.sim
        tracer = ctx.tracer
        start = sim.now
        yield Delay(ctx.cost.memcpy_enqueue_us)
        if tracer is not None:
            tracer.record(self.lane, f"memcpyAsync:{name}", "api", start, sim.now)

        def begin() -> Any:
            return ctx.topology.transfer_us(src_device, dst_device, nbytes)

        def end(begun: Any) -> None:
            if tracer is not None:
                tracer.record(stream.lane, name, "comm", begun, sim.now)

        return stream.enqueue_op(begin, end, name=name)

    # -- synchronization ---------------------------------------------------------------

    def stream_sync(self, stream: Stream) -> Generator[Any, Any, None]:
        """``cudaStreamSynchronize``: block the host until drain."""
        ctx = self.ctx
        sim = ctx.sim
        start = sim.now
        yield Delay(ctx.cost.stream_sync_us)
        if ctx.tracer is not None:
            ctx.tracer.record(self.lane, f"streamSync:{stream.name}", "api", start, sim.now)
        start = sim.now
        yield from stream.drained()
        ctx.trace_wait(self.lane, f"wait:{stream.name}", start, sim.now)

    def device_sync(self, device: int) -> Generator[Any, Any, None]:
        """``cudaDeviceSynchronize``: drain every stream of ``device``."""
        ctx = self.ctx
        sim = ctx.sim
        start = sim.now
        yield Delay(ctx.cost.stream_sync_us)
        if ctx.tracer is not None:
            ctx.tracer.record(self.lane, "deviceSync", "api", start, sim.now)
        for (dev, _), stream in sorted(ctx._streams.items()):
            if dev == device:
                yield from stream.drained()

    def event_record(self, stream: Stream, name: str = "event") -> Generator[Any, Any, Event]:
        """``cudaEventRecord`` on ``stream``."""
        ctx = self.ctx
        sim = ctx.sim
        start = sim.now
        yield Delay(ctx.cost.event_record_us)
        if ctx.tracer is not None:
            ctx.tracer.record(self.lane, f"eventRecord:{name}", "api", start, sim.now)
        return stream.record_event(name)

    def event_sync(self, event: Event) -> Generator[Any, Any, None]:
        """``cudaEventSynchronize``."""
        ctx = self.ctx
        sim = ctx.sim
        start = sim.now
        yield Delay(ctx.cost.event_sync_us)
        if ctx.tracer is not None:
            ctx.tracer.record(self.lane, f"eventSync:{event.name}", "api", start, sim.now)
        start = sim.now
        yield from event.wait()
        ctx.trace_wait(self.lane, f"wait:{event.name}", start, sim.now)

    def stream_wait_event(self, stream: Stream, event: Event) -> Generator[Any, Any, None]:
        """``cudaStreamWaitEvent``: device-side dependency, cheap for host."""
        ctx = self.ctx
        sim = ctx.sim
        start = sim.now
        yield Delay(ctx.cost.api_enqueue_us)
        if ctx.tracer is not None:
            ctx.tracer.record(self.lane, f"streamWaitEvent:{event.name}", "api",
                              start, sim.now)
        stream.wait_event(event)
