"""Host-side NVSHMEM runtime: init, symmetric allocation, barriers.

Mirrors the host API surface the paper's code uses: ``nvshmem_init``
(implicit in construction), ``nvshmem_malloc``, host ``barrier_all``,
and handing device kernels their per-PE device context
(:class:`~repro.nvshmem.device.NVSHMEMDevice`).
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from functools import partial
from typing import Any

import numpy as np

from repro.nvshmem.device import NVSHMEMDevice
from repro.nvshmem.heap import SignalArray, SymmetricArray, SymmetricHeap
from repro.nvshmem.teams import Team
from repro.runtime.context import MultiGPUContext
from repro.runtime.mpi import HostBarrier
from repro.sim import Flag

__all__ = ["NVSHMEMRuntime", "Team"]


def _flush_metrics(m: Any, op_acc: dict, wait_acc: dict, proxy_acc: dict) -> None:
    """Fold a runtime's op/wait/proxy accumulators into registry ``m``."""
    if m is None:
        return
    for (pe, op, dest_pe), (n, nbytes) in sorted(op_acc.items()):
        labels = {"op": op, "src": str(pe), "dst": str(dest_pe)}
        m.counter("nvshmem.ops", **labels).inc(n)
        if nbytes:
            m.counter("nvshmem.bytes", **labels).inc(nbytes)
    op_acc.clear()
    for (pe, src), (n, wait_us) in sorted(wait_acc.items()):
        m.counter("nvshmem.wait.count", pe=str(pe), src=src).inc(n)
        m.counter("nvshmem.wait.us", pe=str(pe), src=src).inc(wait_us)
    wait_acc.clear()
    for pe in sorted(proxy_acc):
        n, us = proxy_acc[pe]
        m.counter("nvshmem.proxy.ops", pe=str(pe)).inc(n)
        m.counter("nvshmem.proxy.us", pe=str(pe)).inc(us)
    proxy_acc.clear()


class NVSHMEMRuntime:
    """One NVSHMEM job: ``n_pes`` processing elements on one node."""

    def __init__(self, ctx: MultiGPUContext, n_pes: int | None = None) -> None:
        self.ctx = ctx
        self.n_pes = n_pes if n_pes is not None else ctx.num_gpus
        if self.n_pes > ctx.num_gpus:
            raise ValueError("more PEs than GPUs on the node")
        self.heap = SymmetricHeap(ctx.memory, ctx.sim, self.n_pes)
        #: per-PE count of in-flight non-blocking deliveries (for quiet)
        self._pending = [
            Flag(ctx.sim, 0, name=f"nvshmem.pending.pe{pe}") for pe in range(self.n_pes)
        ]
        self._host_barrier = HostBarrier(
            ctx.sim, self.n_pes, ctx.cost.nvshmem_host_barrier_us, name="nvshmem.host"
        )
        self._device_barrier = HostBarrier(
            ctx.sim, self.n_pes, ctx.cost.grid_sync_us, name="nvshmem.device"
        )
        # Flow-event correlation (observability): a monotonic id is
        # allocated per signal-carrying op at issue time; the delivery
        # leg notes it here when the signal lands, keyed by the value
        # the word took — so the matching ``signal_wait_until`` can
        # look up the delivery whose update it actually observed (the
        # satisfying one), not merely the last to land.
        self._flow_seq = 0
        self._signal_flow: dict[tuple[int, int, int], tuple[int, int]] = {}
        # Per-(src, dst) route ordering: plain-int issue/completion
        # counters (dict writes, zero simulator events).  A delivery leg
        # that must wait for N earlier completions on its route parks
        # on the route's list until the done counter reaches N (see
        # ``route_issue`` for the one rule that sets N).  The completion
        # Flag carries happens-before edges for the sanitizer only; it
        # is created when a leg first parks, or on a route's first
        # issue under a fault plan.
        self._route_issued: dict[tuple[int, int], int] = {}
        self._route_done: dict[tuple[int, int], int] = {}
        self._route_done_flag: dict[tuple[int, int], Flag] = {}
        self._route_parked: dict[tuple[int, int], list] = {}
        self._fence_bar: dict[tuple[int, int], int] = {}
        #: NVSwitch domain of each PE (teams split along it)
        self._dom = [ctx.topology.domain_of(pe) for pe in range(self.n_pes)]
        # Op/wait accounting accumulated as plain slots shared by every
        # NVSHMEMDevice handle (handles are created per kernel body) and
        # folded into the registry by _flush_metrics() — registry lookups
        # are too slow for the per-op path.
        self._op_acc: dict = {}
        self._wait_acc: dict = {}
        self._wait_hist: dict = {}
        # Teams (``nvshmemx_team_split_strided`` surface): the world
        # team plus lazily built per-domain and cross-domain splits.
        self._team_world: Team | None = None
        self._domain_teams: list[Team] | None = None
        self._leader_team: Team | None = None
        #: per-PE proxy-thread accounting (count, us) for inter-node
        #: puts, folded into nvshmem.proxy.* counters at flush
        self._proxy_acc: dict[int, list] = {}
        # not a bound method: a runtime <-> context cycle would hold a
        # finished run's heap until the cycle collector runs
        ctx.add_metric_flusher(partial(
            _flush_metrics, ctx.metrics, self._op_acc, self._wait_acc, self._proxy_acc))

    # -- flow correlation ------------------------------------------------------

    def next_flow_id(self) -> int:
        """Allocate a trace flow id (deterministic: issue order)."""
        self._flow_seq += 1
        return self._flow_seq

    def _note_signal_flow(
        self, pe: int, index: int, value: int, flow_id: int, src_pe: int
    ) -> None:
        """Record that ``flow_id`` from ``src_pe`` drove signal word
        ``index`` on PE ``pe`` to ``value`` (called at
        signal-application time, only when the value actually changed —
        a same-value set wakes nobody and must not claim attribution)."""
        self._signal_flow[(pe, index, value)] = (flow_id, src_pe)

    def signal_flow_at(self, pe: int, index: int, value: int) -> tuple[int, int] | None:
        """``(flow_id, src_pe)`` of the delivery that drove the signal
        word to ``value`` — the one a waiter resumed with ``value``
        actually observed — or ``None`` for locally-set words.

        Keying by value keeps attribution exact even when a second
        delivery lands in the same timestep before the waiter steps
        (the old last-writer bookkeeping named that later delivery).
        If distinct deliveries ever revisit the same value (a set to a
        previously used number), the latest one wins — accepted, since
        the protocol values in this repo are monotonic iteration
        counters.
        """
        return self._signal_flow.get((pe, index, value))

    # -- per-route ordering (fence) ----------------------------------------------

    def route_issue(self, src: int, dst: int) -> int:
        """Count one non-blocking delivery issued on ``src -> dst`` and
        return the number of route completions it must wait for before
        applying its effects.

        Under a fault plan the route is FIFO: every earlier delivery
        (jitter and retransmission must not reorder a route).
        Otherwise the fence bar: deliveries issued before the PE's last
        ``fence`` on this route (0 = none, the common case).  Either
        way the count is below the delivery's own sequence number, so
        no delivery ever waits for itself.
        """
        key = (src, dst)
        seq = self._route_issued[key] = self._route_issued.get(key, 0) + 1
        if self.ctx.faults is not None:
            # created up front so it carries every predecessor's release
            self.route_done_flag(src, dst)
            return seq - 1
        return self._fence_bar.get(key, 0)

    def route_hold(self, leg: Any) -> None:
        """Apply ``leg``'s effects once its route allows them.

        A leg whose predecessors are still in flight parks on the route
        until ``route_complete`` releases it.  Under a fault plan a leg
        always takes one zero-time hop before applying, parked or not.
        """
        key = (leg.src, leg.dst)
        if self._route_done.get(key, 0) < leg.wait_for:
            self.route_done_flag(*key)
            self._route_parked.setdefault(key, []).append(leg)
        elif leg.fifo:
            self._release(leg, self._route_done_flag[key])
        else:
            leg.apply()

    def _release(self, leg: Any, flag: Flag) -> None:
        sim = self.ctx.sim
        if sim.monitor is not None:
            sim.monitor.acquired(leg, flag)
        sim.call_at(sim.now, leg.apply)

    def route_complete(self, src: int, dst: int) -> None:
        """Count one delivery on ``src -> dst`` as complete and release
        the parked legs it satisfies, in park order (called on every
        exit path of a delivery leg, including lost and failed ones,
        else the legs behind it would stall forever)."""
        key = (src, dst)
        done = self._route_done[key] = self._route_done.get(key, 0) + 1
        flag = self._route_done_flag.get(key)
        if flag is not None:
            flag.set(done)
        parked = self._route_parked.get(key)
        if parked:
            held = []
            for leg in parked:
                if leg.wait_for <= done:
                    self._release(leg, flag)
                else:
                    held.append(leg)
            parked[:] = held

    def route_done_flag(self, src: int, dst: int) -> Flag:
        """Completion flag for ``src -> dst``, created on first need
        and seeded with the current done count."""
        key = (src, dst)
        flag = self._route_done_flag.get(key)
        if flag is None:
            flag = self._route_done_flag[key] = Flag(
                self.ctx.sim,
                self._route_done.get(key, 0),
                name=f"nvshmem.route.pe{src}->pe{dst}",
            )
        return flag

    def set_fence(self, src: int) -> None:
        """``nvshmem_fence`` from PE ``src``: snapshot the issue counter
        of every route with in-flight deliveries as its new bar."""
        for (route_src, dst), issued in self._route_issued.items():
            if route_src != src:
                continue
            if issued > self._route_done.get((route_src, dst), 0):
                self._fence_bar[(route_src, dst)] = issued

    # -- allocation ------------------------------------------------------------

    def malloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        fill: float | None = 0.0,
        data: Sequence[np.ndarray | None] | None = None,
    ) -> SymmetricArray:
        """``nvshmem_malloc``: collective symmetric allocation; ``data``
        holds per-PE arrays to adopt as the PE buffers
        (:meth:`SymmetricHeap.malloc`).

        When a sanitizer is attached to the context, the allocation is
        registered for happens-before access tracking.
        """
        arr = self.heap.malloc(name, shape, dtype, fill, data)
        sanitizer = self.ctx.sanitizer
        if sanitizer is not None:
            sanitizer.register_array(arr)
        return arr

    def malloc_signals(self, name: str, n_signals: int) -> SignalArray:
        """Allocate symmetric signal words (flags in the symmetric heap).

        When the context runs under a fault plan with a watchdog, every
        signal word is marked for monitoring: a ``signal_wait_until``
        on it must resume within the watchdog budget or the run ends in
        a :class:`~repro.sim.WatchdogError` diagnostic instead of a
        silent hang.  Host joins and barriers stay unmonitored.
        """
        signals = self.heap.malloc_signals(name, n_signals)
        watchdog = self.ctx.sim.watchdog
        if watchdog is not None:
            for pe in range(self.n_pes):
                for index in range(n_signals):
                    watchdog.watch(signals.flag(pe, index))
        return signals

    # -- device access ------------------------------------------------------------

    def device(self, pe: int, lane: str | None = None) -> NVSHMEMDevice:
        """Device-side API handle for PE ``pe`` (pass into kernel bodies)."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE {pe} out of range (n_pes={self.n_pes})")
        return NVSHMEMDevice(self, pe, lane or f"gpu{pe}.nvshmem")

    def pending(self, pe: int) -> Flag:
        """In-flight delivery counter for PE ``pe`` (used by quiet)."""
        return self._pending[pe]

    def device_barrier(self) -> HostBarrier:
        return self._device_barrier

    def note_proxy(self, pe: int, us: float) -> None:
        """Account one proxy-thread forward issued by PE ``pe``."""
        acc = self._proxy_acc.get(pe)
        if acc is None:
            self._proxy_acc[pe] = [1, us]
        else:
            acc[0] += 1
            acc[1] += us

    # -- teams ------------------------------------------------------------

    @property
    def hierarchical(self) -> bool:
        """True when the PEs span more than one NVSwitch domain."""
        return self.ctx.topology.num_domains > 1

    @property
    def team_world(self) -> Team:
        """``NVSHMEM_TEAM_WORLD``: every PE, in PE order."""
        if self._team_world is None:
            self._team_world = Team(self, "world", tuple(range(self.n_pes)))
        return self._team_world

    def team_split_strided(
        self, parent: Team, start: int, stride: int, size: int, name: str | None = None
    ) -> Team:
        """``nvshmemx_team_split_strided(parent, start, stride, size)``."""
        return parent.split_strided(start, stride, size, name=name)

    def domain_teams(self) -> list[Team]:
        """One team per NVSwitch domain (strided splits of the world
        team — contiguous PE ranges, since domains are contiguous)."""
        if self._domain_teams is None:
            groups: dict[int, list[int]] = {}
            for pe in range(self.n_pes):
                groups.setdefault(self._dom[pe], []).append(pe)
            self._domain_teams = [
                Team(self, f"domain{d}", tuple(groups[d])) for d in sorted(groups)
            ]
        return self._domain_teams

    def domain_team(self, pe: int) -> Team:
        """The NVSwitch-domain team containing global PE ``pe``."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE {pe} out of range (n_pes={self.n_pes})")
        return self.domain_teams()[self._dom[pe]]

    def leader_team(self) -> Team:
        """Rank-0 PE of every domain — the PEs that rendezvous across
        NIC rails in a hierarchical barrier.  Its barrier charges a
        rail round trip on top of the device sync cost."""
        if self._leader_team is None:
            leaders = tuple(team.pes[0] for team in self.domain_teams())
            cost = self.ctx.cost.grid_sync_us
            node = self.ctx.node
            if node.is_hierarchical:
                cost += 2.0 * node.rail_latency_us
            self._leader_team = Team(
                self, "leaders", leaders, barrier_cost_us=cost
            )
        return self._leader_team

    def hierarchical_barrier(self, pe: int) -> Generator[Any, Any, None]:
        """Domain-aware ``barrier_all``: arrive at the local domain team,
        have each domain's leader rendezvous across the rails, then
        release the domain.  Replaces one flat ``n_pes``-way rendezvous
        (which would price every arrival as if it crossed a rail) with
        two NVLink-priced domain syncs plus one small leader sync."""
        dteam = self.domain_team(pe)
        yield from dteam.sync()
        if dteam.my_pe(pe) == 0:
            yield from self.leader_team().sync()
        yield from dteam.sync()

    # -- host collectives ------------------------------------------------------------

    def host_barrier_all(self, rank: int) -> Generator[Any, Any, None]:
        """``nvshmem_barrier_all`` issued from the host."""
        start = self.ctx.sim.now
        yield from self._host_barrier.wait()
        self.ctx.trace(f"host{rank}", "nvshmem_barrier_all", "sync", start, self.ctx.sim.now)
