"""Device-side NVSHMEM operations (issued from inside kernels).

Each op is a generator helper to be ``yield from``-ed inside a device
process (a thread-block group of a persistent kernel, or a discrete
kernel body).  Cost semantics:

========================  ===================================================
``putmem`` (blocking)      caller pays initiation + full wire time: it
                           starts the delivery leg and waits for it
``putmem_nbi``             caller pays initiation only; delivery completes
                           asynchronously (tracked for ``quiet``)
``putmem_signal[_nbi]``    as above; the signal is updated *after* the data
                           lands (NVSHMEM delivery-ordering guarantee)
``iput``                   strided: per-element issue cost, poor bandwidth
``p``                      single element, one thread
``signal_op``              separate tiny message: races with in-flight
                           ``nbi`` data unless ``quiet`` is called first
``signal_wait_until``      blocks on the local signal word (DES flag)
``quiet``                  blocks until all this PE's pending deliveries
                           complete
========================  ===================================================

Bandwidth depends on the *scope* of the issuing group: a single thread
cannot saturate NVLink, a warp does better, a full block (the
``nvshmemx_…_block`` extended API) reaches full link bandwidth.  This
is exactly why the paper's hand-written kernels use the block variants
while the DaCe-generated single-thread-scheduled code leaves bandwidth
on the table (§5.3.2).
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.faults.inject import DeliveryError, SignalWaitTimeout
from repro.sim import TIMEOUT, Delay, Flag, WaitFlag
from repro.sim.stacked import as_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nvshmem.api import NVSHMEMRuntime
    from repro.nvshmem.heap import SignalArray, SymmetricArray

__all__ = ["NVSHMEMDevice", "Scope", "SignalOp", "WaitCond"]


class SignalOp(enum.Enum):
    """Atomic op applied to the destination signal word."""

    SET = "set"
    ADD = "add"


class WaitCond(enum.Enum):
    """Comparison for ``signal_wait_until`` (NVSHMEM_CMP_*)."""

    EQ = "eq"
    NE = "ne"
    GT = "gt"
    GE = "ge"
    LT = "lt"
    LE = "le"

    def check(self, value: int, target: int) -> bool:
        return _WAIT_COND_OPS[self](value, target)


_WAIT_COND_OPS = {
    WaitCond.EQ: operator.eq,
    WaitCond.NE: operator.ne,
    WaitCond.GT: operator.gt,
    WaitCond.GE: operator.ge,
    WaitCond.LT: operator.lt,
    WaitCond.LE: operator.le,
}


def _wait_command(flag: Flag, cond: WaitCond, target: int,
                  timeout: float | None = None) -> WaitFlag:
    """Build the cheapest WaitFlag for an NVSHMEM_CMP_* wait: GE/EQ map
    to the flag's indexed conditions directly, GT on integer targets
    rewrites to ``ge=target+1``, everything else scans a predicate."""
    if cond is WaitCond.GE:
        return WaitFlag(flag, timeout=timeout, ge=target)
    if cond is WaitCond.EQ:
        return WaitFlag(flag, timeout=timeout, eq=target)
    if cond is WaitCond.GT and isinstance(target, int):
        return WaitFlag(flag, timeout=timeout, ge=target + 1)
    check = _WAIT_COND_OPS[cond]
    return WaitFlag(flag, lambda v: check(v, target), timeout=timeout)


def _apply_signal(runtime: "NVSHMEMRuntime", signal: tuple[Flag, int, SignalOp],
                  dest_pe: int, signal_index: int, flow: int, src_pe: int) -> None:
    """Update a signal word; a changed value records ``flow`` as the
    delivery a ``signal_wait_until`` on it resumes from."""
    flag, value, op = signal
    before = flag.value
    if op is SignalOp.SET:
        flag.set(value)
    else:
        flag.add(value)
    if flag.value != before:
        runtime._note_signal_flow(dest_pe, signal_index, flag.value, flow, src_pe)


class Scope(enum.Enum):
    """Issuing-group scope of an extended (``nvshmemx_``) call."""

    THREAD = "thread"
    WARP = "warp"
    BLOCK = "block"


class NVSHMEMDevice:
    """Device-side API surface for one PE inside one kernel."""

    def __init__(self, runtime: "NVSHMEMRuntime", pe: int, lane: str) -> None:
        self.runtime = runtime
        self.pe = pe
        self.lane = lane
        # accumulation slots, shared runtime-wide — device handles are
        # short-lived, and registry lookups are too slow for the per-op
        # path (the runtime flushes these into the registry post-run);
        # the registry, context and cost model are bound here because
        # they are fixed for the context's lifetime and the attribute
        # hops cost on hot paths
        self._ctx = ctx = runtime.ctx
        self._cost = ctx.cost
        self._metrics = ctx.metrics
        self._op_acc = runtime._op_acc
        self._wait_acc = runtime._wait_acc
        self._wait_hist = runtime._wait_hist
        #: fault injector (None = happy path, zero overhead)
        self._faults = ctx.faults
        #: hierarchical topology, or None on a flat node — cross-domain
        #: puts take the proxy-initiated rail path instead of NVLink
        topology = ctx.topology
        self._cluster = topology if topology.num_domains > 1 else None

    # -- internals -------------------------------------------------------------

    def _bw_fraction(self, scope: Scope) -> float:
        # identity tests: a dict keyed by Scope hashes the enum in Python
        if scope is Scope.THREAD:
            return self._cost.put_thread_bw_fraction
        return self._cost.put_warp_bw_fraction if scope is Scope.WARP else 1.0

    def _wire_time(self, dest_pe: int, nbytes: int, scope: Scope) -> float:
        cluster = self._cluster
        if cluster is not None and cluster.cross_domain(self.pe, dest_pe):
            return self._proxy_wire(dest_pe, nbytes)
        link = self._ctx.topology.link(self.pe, dest_pe)
        return link.latency_us + nbytes / (
            link.bandwidth_gbps * self._bw_fraction(scope) * 1000.0)

    def _proxy_wire(self, dest_pe: int, nbytes: float) -> float:
        """Inter-node put wire time: the SM rings the CPU proxy thread's
        doorbell, the proxy posts the NIC work request, and the NIC DMAs
        the bytes over the source domain's rail ("Demystifying NVSHMEM"
        — remote transports are proxy-initiated).  The proxy forward is
        charged as a span on the source PE's *host* lane so timelines
        and what-if attribute it to host work on the issuing node; the
        issuing scope is irrelevant (the NIC, not the thread group,
        moves the bytes)."""
        ctx = self._ctx
        proxy_us = self._cost.nvshmem_proxy_us
        now = ctx.sim.now
        ctx.trace(f"host{self.pe}", "proxy", "api", now, now + proxy_us)
        if self._metrics is not None:
            self.runtime.note_proxy(self.pe, proxy_us)
        return proxy_us + self._cluster.rail_transfer_us(self.pe, dest_pe, nbytes)

    def _staged_wire(self, dest_pe: int, nbytes: float) -> float | None:
        """Host-staged wire time when the direct link is marked down by
        an active fault plan, else ``None`` (use the direct route).
        The degraded path runs as host-driven DMA: ``pe -> host`` then
        ``host -> dest_pe``, plus the source domain's rail when the
        endpoints sit in different NVSwitch domains (the topology's
        ``staged_route_us`` charges the right legs either way)."""
        faults = self._faults
        if faults is None or not faults.link_down(self.pe, dest_pe):
            return None
        wire = self._ctx.topology.staged_route_us(self.pe, dest_pe, nbytes)
        faults.note_degraded_put(self.pe, dest_pe, nbytes)
        return wire

    def _trace(self, name: str, category: str, start: float, meta: Any = None) -> None:
        self._ctx.trace(self.lane, name, category, start, self._ctx.sim.now, meta)

    def _record_op(self, op: str, dest_pe: int, nbytes: float = 0) -> None:
        """Account one device-side op in the metrics registry (count,
        modeled bytes, and link traffic for data-carrying ops)."""
        if self._metrics is None:
            return
        acc = self._op_acc.get((self.pe, op, dest_pe))
        if acc is None:
            acc = self._op_acc[(self.pe, op, dest_pe)] = [0, 0.0]
        acc[0] += 1
        if nbytes:
            acc[1] += nbytes
            # puts compute their own wire time (scope-dependent), so they
            # bypass topology.transfer_us — account the link traffic here
            self._ctx.topology.record_transfer(self.pe, dest_pe, nbytes)

    def _deliver_async(self, dest_pe: int, wire_us: float, write: Any,
                       signal: tuple[Flag, int, SignalOp] | None, name: str,
                       flow: int | None = None, signal_index: int | None = None,
                       allow_faults: bool = True, blocking: bool = False) -> "_Leg":
        """Start the delivery leg of an operation and return it.

        The leg is a :class:`_Leg`: a chain of engine callbacks, never a
        process.  ``flow`` tags the delivery span as the producer of a
        trace flow event (the span ends exactly when the signal is
        applied, which is what a downstream ``signal_wait_until`` chains
        on).  A ``blocking`` leg has a ``done`` flag its caller waits on.

        Under an active fault plan the delivery may pick up jitter, be
        delayed, or be dropped: non-silent drops retry with exponential
        backoff up to the plan's retry limit (then raise
        :class:`DeliveryError`); *silent* drops vanish — the sender's
        pending counter still drains, but neither data nor signal ever
        arrive, which is the lost-signal hang the watchdog diagnoses.
        ``allow_faults=False`` exempts host-staged (degraded-path)
        deliveries, which don't traverse the faulty NVLink.  Under
        faults, deliveries between the same ``(src, dst)`` pair also
        complete in issue order: jitter and retransmission must not let
        a later halo overtake an earlier one, exactly as real transports
        preserve point-to-point ordering through link-level retry (see
        :meth:`NVSHMEMRuntime.route_issue`).
        """
        runtime = self.runtime
        pending = runtime._pending[self.pe]
        pending.add(1)
        sim = self._ctx.sim
        tracer = self._ctx.tracer
        if tracer is not None:
            tracer.add_counter(f"nvshmem.pending.pe{self.pe}", sim.now, pending.value)
        leg = _Leg(self, dest_pe, wire_us, write, signal, name, flow, signal_index,
                   runtime.route_issue(self.pe, dest_pe), allow_faults, blocking)
        if sim.monitor is not None:
            sim.monitor.spawned(leg, sim.current)
        if leg.fifo:
            sim.call_at(sim.now, leg.send)
        else:
            sim.call_at(sim.now + wire_us, leg.arrived)
        return leg

    def _writer(self, dst: "SymmetricArray", dst_index: Any, values: Any,
                dest_pe: int, name: str = "put"):
        """Deferred store of ``values`` into PE ``dest_pe``'s copy of ``dst``.

        Runs in the delivery leg, so a sanitizer attributes the store to
        the leg whose clock actually orders it — the chained signal then
        publishes exactly this store to waiters.
        """
        if dst is None:
            return None
        sanitizer = self._ctx.sanitizer
        src_pe = self.pe

        def write() -> None:
            dst.on(dest_pe).data[dst_index] = values
            if sanitizer is not None:
                sanitizer.record_symmetric(
                    dst, dest_pe, dst_index, "write",
                    site=f"{name}:pe{src_pe}->pe{dest_pe}", by_pe=src_pe,
                )

        return write

    def _issue(self, op: str, dest_pe: int, nbytes: float, issue_us: float,
               direct: Scope | float, write: Any, name: str,
               signal: tuple[Flag, int, SignalOp] | None = None,
               signal_index: int | None = None,
               signal_us: float = 0.0) -> Generator[Any, Any, None]:
        """Non-blocking issue: the caller pays ``issue_us``, then one
        delivery leg carries the rest.

        ``direct`` prices the direct route: a :class:`Scope` means the
        scoped put wire (:meth:`_wire_time`), a float is added to the
        link latency.  ``signal_us`` is added to either route (the
        signal word update that trails a signaling put's data)."""
        self._record_op(op, dest_pe, nbytes)
        flow = self.runtime.next_flow_id() if signal is not None else None
        start = self._ctx.sim.now
        yield Delay(issue_us)
        self._trace(f"{name}:issue", "comm", start)
        staged = self._staged_wire(dest_pe, nbytes)
        if staged is not None:
            wire = staged
        elif direct.__class__ is Scope:
            wire = self._wire_time(dest_pe, nbytes, direct)
        else:
            wire = self._ctx.topology.link(self.pe, dest_pe).latency_us + direct
        self._deliver_async(dest_pe, wire + signal_us, write, signal, name, flow,
                            signal_index, staged is None)

    def _put_blocking(self, op: str, dest_pe: int, nbytes: float, scope: Scope,
                      write: Any, name: str,
                      signal: tuple[Flag, int, SignalOp] | None = None,
                      signal_index: int | None = None) -> Generator[Any, Any, None]:
        """Blocking put: start one delivery leg, then wait for it.

        Fault-free, the leg starts at call time and carries the put
        latency with the wire.  Under a fault plan the caller pays the
        latency first and the leg carries only the wire, so a retry
        resends the wire, never the issue cost.  The caller applies a
        ``signal`` ``nvshmem_signal_us`` after its data landed; the leg
        carries it only to name it in fault diagnostics."""
        self._record_op(op, dest_pe, nbytes)
        flow = self.runtime.next_flow_id() if signal is not None else None
        start = self._ctx.sim.now
        latency = self._cost.nvshmem_put_latency_us
        if self._faults is None:
            wire = latency + self._wire_time(dest_pe, nbytes, scope)
            leg = self._deliver_async(dest_pe, wire, write, signal, name, blocking=True)
        else:
            yield Delay(latency)
            staged = self._staged_wire(dest_pe, nbytes)
            wire = staged if staged is not None else self._wire_time(dest_pe, nbytes, scope)
            leg = self._deliver_async(dest_pe, wire, write, signal, name,
                                      allow_faults=staged is None, blocking=True)
        yield WaitFlag(leg.done, eq=1)
        if signal is not None:
            yield Delay(self._cost.nvshmem_signal_us)
            _apply_signal(self.runtime, signal, dest_pe, signal_index, flow, self.pe)
        self._trace(name, "comm", start, None if flow is None else {"flow_s": flow})

    # -- contiguous puts ---------------------------------------------------------

    def putmem(
        self,
        dst: "SymmetricArray | None",
        dst_index: Any,
        values: np.ndarray | float,
        dest_pe: int,
        *,
        nbytes: int | None = None,
        scope: Scope = Scope.BLOCK,
        name: str = "putmem",
    ) -> Generator[Any, Any, None]:
        """Blocking contiguous put to ``dest_pe``.

        ``dst=None`` with explicit ``nbytes`` is the timing-only form
        used by no-compute experiments.
        """
        values = np.asarray(values)
        size = as_size(nbytes) if nbytes is not None else values.nbytes
        yield from self._put_blocking(
            "putmem", dest_pe, size, scope,
            self._writer(dst, dst_index, values, dest_pe, name), name)

    def putmem_nbi(
        self,
        dst: "SymmetricArray | None",
        dst_index: Any,
        values: np.ndarray | float,
        dest_pe: int,
        *,
        nbytes: int | None = None,
        scope: Scope = Scope.BLOCK,
        name: str = "putmem_nbi",
    ) -> Generator[Any, Any, None]:
        """Non-blocking put: returns after initiation; complete at ``quiet``."""
        values = np.array(values, copy=True)  # snapshot source at issue
        size = as_size(nbytes) if nbytes is not None else values.nbytes
        yield from self._issue(
            "putmem_nbi", dest_pe, size, self._cost.nvshmem_put_latency_us, scope,
            self._writer(dst, dst_index, values, dest_pe, name), name)

    def putmem_signal(
        self,
        dst: "SymmetricArray | None",
        dst_index: Any,
        values: np.ndarray | float,
        signal: "SignalArray",
        signal_index: int,
        signal_value: int,
        dest_pe: int,
        *,
        nbytes: int | None = None,
        sig_op: SignalOp = SignalOp.SET,
        scope: Scope = Scope.BLOCK,
        name: str = "putmem_signal",
    ) -> Generator[Any, Any, None]:
        """Blocking put + signal: data lands, then the signal updates."""
        values = np.asarray(values)
        size = as_size(nbytes) if nbytes is not None else values.nbytes
        yield from self._put_blocking(
            "putmem_signal", dest_pe, size, scope,
            self._writer(dst, dst_index, values, dest_pe, name), name,
            (signal.flag(dest_pe, signal_index), signal_value, sig_op), signal_index)

    def putmem_signal_nbi(
        self,
        dst: "SymmetricArray | None",
        dst_index: Any,
        values: np.ndarray | float,
        signal: "SignalArray",
        signal_index: int,
        signal_value: int,
        dest_pe: int,
        *,
        nbytes: int | None = None,
        sig_op: SignalOp = SignalOp.SET,
        scope: Scope = Scope.BLOCK,
        name: str = "putmem_signal_nbi",
    ) -> Generator[Any, Any, None]:
        """The paper's workhorse: ``nvshmemx_putmem_signal_nbi_block``.

        Issue cost only; asynchronously the data is delivered and *then*
        the destination signal word is updated (§4.1.1 semaphore flow).
        """
        values = np.array(values, copy=True)
        size = as_size(nbytes) if nbytes is not None else values.nbytes
        cost = self._cost
        yield from self._issue(
            "putmem_signal_nbi", dest_pe, size, cost.nvshmem_put_latency_us, scope,
            self._writer(dst, dst_index, values, dest_pe, name), name,
            (signal.flag(dest_pe, signal_index), signal_value, sig_op), signal_index,
            cost.nvshmem_signal_us)

    # -- strided / single-element --------------------------------------------------

    def iput(
        self,
        dst: "SymmetricArray | None",
        dst_index: Any,
        values: np.ndarray,
        dest_pe: int,
        *,
        elements: int | None = None,
        name: str = "iput",
    ) -> Generator[Any, Any, None]:
        """Strided put (``nvshmem_TYPE_iput``): per-element issue cost.

        Always issued by a single thread in NVSHMEM; no signal variant
        exists (§5.3.1), so generated code must follow with
        ``signal_op`` *after* a ``quiet``.  Non-blocking semantics.
        """
        values = np.array(values, copy=True)
        n = int(elements) if elements is not None else values.size
        cost = self._cost
        yield from self._issue(
            "iput", dest_pe, n * values.itemsize, cost.nvshmem_put_latency_us,
            n * cost.nvshmem_iput_element_us,
            self._writer(dst, dst_index, values, dest_pe, name), name)

    def p(
        self,
        dst: "SymmetricArray | None",
        dst_index: Any,
        value: float,
        dest_pe: int,
        *,
        name: str = "p",
    ) -> Generator[Any, Any, None]:
        """Single-element put (``nvshmem_TYPE_p``), non-blocking."""
        yield from self._issue(
            "p", dest_pe, 8, self._cost.nvshmem_p_us, 0.0,
            self._writer(dst, dst_index, value, dest_pe, name), name)

    def p_mapped(
        self,
        dst: "SymmetricArray | None",
        dst_index: Any,
        values: np.ndarray | float,
        dest_pe: int,
        *,
        elements: int | None = None,
        threads: int = 1024,
        name: str = "p_mapped",
    ) -> Generator[Any, Any, None]:
        """Map-scheduled single-element puts (paper §5.3.2).

        Many GPU threads each issue ``nvshmem_TYPE_p`` for one element
        (grid-stride loop): issue cost is amortized across ``threads``
        and the aggregate delivery runs at warp-scope bandwidth.
        Non-blocking; follow with ``quiet`` + ``signal_op`` like
        ``iput``.
        """
        if threads <= 0:
            raise ValueError("threads must be positive")
        values = np.array(values, copy=True)
        n = int(elements) if elements is not None else values.size
        waves = -(-n // threads)
        yield from self._issue(
            "p_mapped", dest_pe, n * 8, waves * self._cost.nvshmem_p_us, Scope.WARP,
            self._writer(dst, dst_index, values, dest_pe, name), name)

    # -- signaling -------------------------------------------------------------------

    def signal_op(
        self,
        signal: "SignalArray",
        signal_index: int,
        value: int,
        dest_pe: int,
        *,
        op: SignalOp = SignalOp.SET,
        name: str = "signal_op",
    ) -> Generator[Any, Any, None]:
        """Standalone remote signal update (``nvshmemx_signal_op``).

        Travels on its own low-latency path: it does NOT wait for
        previously issued ``nbi`` data.  Call :meth:`quiet` first when
        the signal must publish earlier puts (§5.3.1).
        """
        yield from self._issue(
            "signal_op", dest_pe, 8, self._cost.nvshmem_signal_us, 0.0, None, name,
            (signal.flag(dest_pe, signal_index), value, op), signal_index)

    def signal_wait_until(
        self,
        signal: "SignalArray",
        signal_index: int,
        cond: WaitCond,
        target: int,
        *,
        timeout_us: float | None = None,
        retries: int | None = None,
        name: str = "signal_wait_until",
    ) -> Generator[Any, Any, int]:
        """Block on this PE's local signal word until ``cond`` holds.

        With a ``timeout_us`` (explicit, or inherited from an active
        fault plan's ``wait_timeout_us``) the wait is re-armed up to
        ``retries`` times, each attempt's budget growing by the plan's
        backoff factor; exhaustion raises :class:`SignalWaitTimeout`
        naming the signal and the last delivery attempt seen for it.
        Without a timeout the wait is unbounded, as in real NVSHMEM —
        the :class:`~repro.sim.Watchdog` is then the hang diagnosis.
        """
        flag = signal.flag(self.pe, signal_index)
        self._record_op("signal_wait", self.pe)
        start = self._ctx.sim.now
        yield Delay(self._cost.nvshmem_wait_poll_us)
        faults = self._faults
        if timeout_us is None and faults is not None:
            timeout_us = faults.plan.wait_timeout_us
        if timeout_us is None:
            result = yield _wait_command(flag, cond, target)
        else:
            if retries is None:
                retries = faults.plan.retry_limit if faults is not None else 0
            backoff = faults.plan.retry_backoff_factor if faults is not None else 2.0
            budget = timeout_us
            attempt = 0
            while True:
                result = yield _wait_command(flag, cond, target, timeout=budget)
                if result is not TIMEOUT:
                    break
                attempt += 1
                if faults is not None:
                    faults.note_wait_timeout(flag.name, attempt)
                if attempt > retries:
                    context = faults.watchdog_context(flag) if faults is not None else None
                    suffix = f" ({context})" if context else ""
                    raise SignalWaitTimeout(
                        f"{name}: pe{self.pe} gave up waiting for {flag.name} "
                        f"{cond.name} {target} after {attempt} timeout(s), last "
                        f"budget {budget:.3f}us{suffix}")
                budget *= backoff
                yield Delay(self._cost.nvshmem_wait_poll_us)
        # attribute to the delivery that drove the word to the value
        # this wait actually resumed with — a later delivery landing in
        # the same timestep must not claim the histogram/flow link
        info = self.runtime.signal_flow_at(self.pe, signal_index, int(result))
        meta = None
        src_label = "local"
        if info is not None:
            flow_id, src_pe = info
            meta = {"flow_f": flow_id}
            src_label = str(src_pe)
        m = self._metrics
        if m is not None:
            wait_us = self._ctx.sim.now - start
            acc = self._wait_acc.get((self.pe, src_label))
            if acc is None:
                acc = self._wait_acc[(self.pe, src_label)] = [0, 0.0]
            acc[0] += 1
            acc[1] += wait_us
            # the histogram needs every observation, so it is resolved
            # once per (pe, src) and fed immediately
            hist = self._wait_hist.get((self.pe, src_label))
            if hist is None:
                hist = self._wait_hist[(self.pe, src_label)] = m.histogram(
                    "nvshmem.wait.us.hist", pe=str(self.pe), src=src_label
                )
            hist.observe(wait_us)
        self._trace(name, "sync", start, meta)
        return flag.value

    # -- ordering ---------------------------------------------------------------------

    def quiet(self, *, name: str = "quiet") -> Generator[Any, Any, None]:
        """Block until all of this PE's pending deliveries complete."""
        pending = self.runtime.pending(self.pe)
        self._record_op("quiet", self.pe)
        start = self._ctx.sim.now
        yield Delay(self._cost.nvshmem_quiet_us)
        yield WaitFlag(pending, eq=0)
        self._trace(name, "sync", start)

    def fence(self, *, name: str = "fence") -> Generator[Any, Any, None]:
        """Ordering fence (``nvshmem_fence``).

        Real NVSHMEM ``fence`` is weaker than ``quiet``: it does not
        wait for anything, it only guarantees that deliveries issued
        *after* it become visible no earlier than deliveries issued
        *before* it on the same (src, dst) route.  Modeled exactly
        that way: the fence snapshots each in-flight route's issue
        counter as a bar (see ``NVSHMEMRuntime.set_fence``), and
        post-fence delivery legs hold their effects until the route's
        completion counter reaches the bar.  The caller pays only a
        small constant issue cost and never blocks.
        """
        self._record_op("fence", self.pe)
        start = self._ctx.sim.now
        yield Delay(self._cost.nvshmem_fence_us)
        self.runtime.set_fence(self.pe)
        self._trace(name, "sync", start)

    def barrier_all(self) -> Generator[Any, Any, None]:
        """Device-side barrier across all PEs (includes a quiet).

        On a hierarchical node the flat ``n_pes``-way rendezvous is
        replaced by the team-based domain-aware barrier (domain arrive,
        leaders rendezvous across rails, domain release)."""
        yield from self.quiet(name="barrier.quiet")
        if self.runtime.hierarchical:
            yield from self.runtime.hierarchical_barrier(self.pe)
        else:
            yield from self.runtime.device_barrier().wait()


class _Leg:
    """One asynchronous delivery leg: issue, wire, landing, effects.

    Each step is a bound method scheduled with ``Simulator.call_at``:

    * ``send`` (fault plans only) starts one transmission attempt and
      draws its jitter;
    * ``arrived`` runs when the attempt reaches the destination and
      decides its fault outcome (delay, drop and retry, silent loss);
    * ``landed`` holds the effects until the route's ordering rule
      allows them (:meth:`NVSHMEMRuntime.route_issue`);
    * ``apply`` writes the data, updates the signal, completes the
      route and drains the sender's pending counter.

    A blocking put's leg sets a ``done`` flag its caller waits on, and
    retries a silent loss like a drop; the caller applies its signal.

    The leg is also its own happens-before identity: the sanitizer sees
    it spawned by the issuing process, and ``apply`` runs with
    ``sim.current`` set to it.
    """

    __slots__ = ("runtime", "sim", "src", "dst", "wire_us", "write", "signal",
                 "op", "flow", "signal_index", "wait_for", "fifo", "faults",
                 "faulty", "start", "attempt", "lost", "done", "__weakref__")

    def __init__(self, dev: NVSHMEMDevice, dst: int, wire_us: float, write: Any,
                 signal: tuple[Flag, int, SignalOp] | None, op: str,
                 flow: int | None, signal_index: int | None, wait_for: int,
                 allow_faults: bool, blocking: bool) -> None:
        self.runtime = dev.runtime
        self.sim = sim = dev.runtime.ctx.sim
        self.src = dev.pe
        self.dst = dst
        self.wire_us = wire_us
        self.write = write
        self.signal = signal
        self.op = op
        self.flow = flow
        self.signal_index = signal_index
        #: route completions that must precede this leg's effects
        self.wait_for = wait_for
        #: a fault plan is active: the route is FIFO
        self.fifo = dev._faults is not None
        #: injector whose jitter applies (None: fault-free or host-staged)
        self.faults = faults = dev._faults if allow_faults else None
        self.faulty = faults is not None and faults.delivery_faults_apply(dev.pe, dst)
        self.start = sim.now
        self.attempt = 0
        self.lost = False
        self.done = Flag(sim, 0, name=f"nvshmem.done.pe{dev.pe}->pe{dst}") if blocking else None

    @property
    def name(self) -> str:
        """Access origin reported by the sanitizer."""
        return f"nvshmem.{self.op}.pe{self.src}->pe{self.dst}"

    def send(self) -> None:
        sim = self.sim
        if self.faults is None:
            sim.call_at(sim.now + self.wire_us, self.arrived)
        else:
            jitter = self.faults.transfer_jitter_us(self.src, self.dst)
            sim.call_at(sim.now + (self.wire_us + jitter), self.arrived)

    def arrived(self) -> None:
        if self.faulty:
            faults, sim = self.faults, self.sim
            flag_name = self.signal[0].name if self.signal is not None else None
            outcome, extra_us = faults.delivery_outcome(
                self.src, self.dst, self.op, flag_name, self.attempt)
            if outcome == "delay":
                sim.call_at(sim.now + extra_us, self.landed)
                return
            if outcome == "lost" and self.done is None:
                self.lost = True
            elif outcome != "ok":  # dropped: retransmit after a backoff
                self.attempt += 1
                limit = faults.plan.retry_limit
                if self.attempt > limit:
                    self.sim.current = self
                    self._complete()
                    raise DeliveryError(
                        f"{self.op}: pe{self.src}->pe{self.dst} delivery dropped "
                        f"{self.attempt} time(s); retry limit {limit} exhausted")
                sim.call_at(sim.now + faults.retry_backoff_us(self.attempt), self.send)
                return
        self.landed()

    def landed(self) -> None:
        if self.attempt:
            self.faults.note_retries(self.src, self.dst, self.attempt)
        self.runtime.route_hold(self)

    def apply(self) -> None:
        self.sim.current = self
        lost = self.lost
        if not lost:
            if self.write is not None:
                self.write()
            if self.signal is not None and self.done is None:
                _apply_signal(self.runtime, self.signal, self.dst, self.signal_index,
                              self.flow, self.src)
        self._complete()
        tracer = self.runtime.ctx.tracer
        if tracer is not None:
            meta = {"flow_s": self.flow} if self.flow is not None and not lost else None
            tracer.record(f"wire.pe{self.src}->pe{self.dst}",
                          f"{self.op}:lost" if lost else self.op, "comm",
                          self.start, self.sim.now, meta)

    def _complete(self) -> None:
        """Complete the route and drain the sender's pending counter."""
        runtime = self.runtime
        runtime.route_complete(self.src, self.dst)
        pending = runtime._pending[self.src]
        pending.add(-1)
        tracer = runtime.ctx.tracer
        if tracer is not None:
            tracer.add_counter(f"nvshmem.pending.pe{self.src}", self.sim.now,
                               pending.value)
        if self.done is not None:
            self.done.set(1)
