"""Inter-GPU link topology and transfer-time computation.

On the paper's HGX testbed every GPU pair communicates at full NVLink
bandwidth through NVSwitch ("connected all-to-all through NVLink",
§6).  We model that as a complete graph of :class:`Link` objects plus a
host link per device (PCIe) for staged copies.

Above one NVSwitch domain the all-to-all assumption breaks:
:class:`ClusterTopology` models equal domains joined by per-domain
NIC/InfiniBand *rails*.  Intra-domain pairs keep the NVLink link;
cross-domain transfers ride the **source** domain's egress rail, which
is a stateful :class:`RailLink` so concurrent transfers contend for
bandwidth without every caller having to remember ``sharers``.

Transfers are *modeled*, not byte-simulated: the time for ``n`` bytes
over a link is ``latency + n / bandwidth``.  Contention is modeled by
an optional per-link concurrency divisor used when several transfers
share a link in the same iteration window (and automatically, by
in-flight occupancy, on rails).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.spec import NodeSpec

__all__ = ["ClusterTopology", "Link", "NodeTopology", "RailLink", "build_topology"]


@dataclass(frozen=True)
class Link:
    """A unidirectional channel: ``bandwidth_gbps`` GB/s, ``latency_us`` µs."""

    bandwidth_gbps: float
    latency_us: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_us < 0:
            raise ValueError("latency must be non-negative")

    def transfer_us(self, nbytes: float, *, sharers: int = 1) -> float:
        """Time to move ``nbytes``; ``sharers`` concurrent transfers
        split the bandwidth evenly (NVSwitch is non-blocking across
        distinct pairs, so sharers>1 only applies to the same pair)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if sharers < 1:
            raise ValueError("sharers must be >= 1")
        if nbytes == 0:
            return 0.0
        effective = self.bandwidth_gbps / sharers
        return self.latency_us + nbytes / (effective * 1000.0)


HOST = -1  #: pseudo device id for the host in topology queries


class RailLink:
    """A stateful inter-node rail that tracks in-flight occupancy.

    The frozen :class:`Link` splits bandwidth only when the caller
    passes ``sharers`` — forget it and two concurrent transfers are
    each modeled at full bandwidth.  Rails carry many unrelated flows
    (every cross-domain route of a domain funnels through one NIC), so
    relying on a caller contract would be a standing footgun.  Instead
    the rail remembers when each accepted transfer finishes and charges
    every new transfer ``1 + in-flight`` effective sharers at issue
    time.  Occupancy depends only on issue order, which the simulator
    makes deterministic.
    """

    __slots__ = ("bandwidth_gbps", "latency_us", "_clock", "_busy_until")

    def __init__(self, bandwidth_gbps: float, latency_us: float, clock=None) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_us < 0:
            raise ValueError("latency must be non-negative")
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_us = latency_us
        #: callable returning the current sim time; None = occupancy off
        self._clock = clock
        self._busy_until: list[float] = []  # end times of in-flight transfers

    def inflight(self) -> int:
        """Transfers currently occupying the rail (after pruning)."""
        clock = self._clock
        if clock is None or not self._busy_until:
            return 0
        now = clock()
        if not isinstance(now, float):
            now = float(now.v[0])  # batched vector clock: pilot member
        self._busy_until = [t for t in self._busy_until if t > now]
        return len(self._busy_until)

    def transfer_us(self, nbytes: float, *, sharers: int = 1) -> float:
        """Pure estimate — prices the transfer against current occupancy
        without occupying the rail (what-if queries, staged-cost math)."""
        return self._price(nbytes, sharers, self.inflight())

    def occupy(self, nbytes: float, *, sharers: int = 1) -> float:
        """Price ``nbytes`` against current occupancy *and* hold the
        rail for the transfer's duration.  This is the accounting entry
        point for real transfers."""
        inflight = self.inflight()
        cost = self._price(nbytes, sharers, inflight)
        clock = self._clock
        if clock is not None and nbytes > 0:
            now = clock()
            if not isinstance(now, float):
                now = float(now.v[0])
            self._busy_until.append(now + cost)
        return cost

    def _price(self, nbytes: float, sharers: int, inflight: int) -> float:
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if sharers < 1:
            raise ValueError("sharers must be >= 1")
        if nbytes == 0:
            return 0.0
        effective = self.bandwidth_gbps / (sharers + inflight)
        return self.latency_us + nbytes / (effective * 1000.0)


class NodeTopology:
    """Complete-graph GPU topology with a host link per device."""

    def __init__(self, node: NodeSpec) -> None:
        self.node = node
        self.num_gpus = node.num_gpus
        self._peer = Link(node.nvlink_bandwidth_gbps, node.nvlink_latency_us)
        self._host = Link(node.host_link_bandwidth_gbps, node.host_link_latency_us)
        #: loopback: same-device copies run at HBM bandwidth, negligible latency
        self._local = Link(node.gpu.hbm_bandwidth_gbps, 0.2)
        #: optional MetricsRegistry for per-link traffic accounting
        #: (installed by the owning context; never affects timing)
        self.metrics = None
        #: optional FaultInjector (installed by the owning context);
        #: None = the fault plane is fully inert
        self.faults = None
        #: per-link traffic accumulated as plain slots and folded into
        #: the registry by :meth:`flush_metrics` — registry lookups are
        #: too slow for the per-transfer path
        self._pending_traffic: dict = {}
        #: simulator reference (installed by the owning context); only
        #: hierarchical topologies need it, for rail-occupancy clocks
        self.sim = None
        self.num_domains = 1

    def domain_of(self, device: int) -> int:
        """NVSwitch domain of ``device`` (always 0 on a flat node)."""
        self._check(device)
        return 0

    def cross_domain(self, src: int, dst: int) -> bool:
        """True iff a ``src -> dst`` transfer leaves its NVSwitch domain."""
        return False

    def link(self, src: int, dst: int) -> Link:
        """The link used for a ``src -> dst`` transfer.

        ``HOST`` (-1) designates the host on either end.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return self._local
        if src == HOST or dst == HOST:
            base = self._host
        else:
            base = self._peer
        if self.faults is not None:
            return self.faults.effective_link(src, dst, base)
        return base

    def peers(self, device: int) -> list[int]:
        """All GPUs reachable from ``device`` (everyone, on HGX)."""
        self._check(device)
        if device == HOST:
            return list(range(self.num_gpus))
        return [d for d in range(self.num_gpus) if d != device]

    def transfer_us(self, src: int, dst: int, nbytes: float, *, sharers: int = 1) -> float:
        """Modeled duration of a ``src -> dst`` copy of ``nbytes``.

        Under an active fault plan the route may pick up latency jitter,
        and a link marked permanently down reroutes through the host
        (``src -> host -> dst`` staged copy) instead of hanging.
        """
        if self.metrics is not None:
            self.record_transfer(src, dst, nbytes, sharers=sharers)
        faults = self.faults
        if faults is not None:
            if faults.link_down(src, dst):
                return faults.staged_transfer_us(self, src, dst, nbytes, sharers=sharers)
            return (self.link(src, dst).transfer_us(nbytes, sharers=sharers)
                    + faults.transfer_jitter_us(src, dst))
        return self.link(src, dst).transfer_us(nbytes, sharers=sharers)

    def staged_route_us(self, src: int, dst: int, nbytes: float, *,
                        sharers: int = 1) -> float:
        """Cost of the host-staged reroute used when the direct link is
        down: bounce through host memory over the endpoints' host
        links.  Hierarchical topologies override this — an inter-node
        reroute must also cross (and charge) the source domain's rail,
        not pretend one shared host link spans the machine."""
        return (self.link(src, HOST).transfer_us(nbytes, sharers=sharers)
                + self.link(HOST, dst).transfer_us(nbytes, sharers=sharers))

    def record_transfer(self, src: int, dst: int, nbytes: float, *,
                        sharers: int = 1) -> None:
        """Account one transfer on the ``src -> dst`` link (bytes,
        transfer count, contention sharers).  Called by every modeled
        copy and by NVSHMEM puts that compute their own wire time."""
        if self.metrics is None:
            return
        acc = self._pending_traffic.get((src, dst))
        if acc is None:
            acc = self._pending_traffic[(src, dst)] = [0.0, 0, 0]
        acc[0] += nbytes
        acc[1] += 1
        acc[2] += sharers

    def flush_metrics(self) -> None:
        """Fold accumulated link traffic into the registry (called by
        the owning context after each simulation run)."""
        m = self.metrics
        if m is None or not self._pending_traffic:
            return
        for (src, dst), (nbytes, n, sharers) in sorted(self._pending_traffic.items()):
            src_l = "host" if src == HOST else str(src)
            dst_l = "host" if dst == HOST else str(dst)
            m.counter("hw.link.bytes", src=src_l, dst=dst_l).inc(nbytes)
            m.counter("hw.link.transfers", src=src_l, dst=dst_l).inc(n)
            m.counter("hw.link.sharers_total", src=src_l, dst=dst_l).inc(sharers)
        self._pending_traffic.clear()

    def _check(self, device: int) -> None:
        if device != HOST and not 0 <= device < self.num_gpus:
            raise ValueError(f"device {device} out of range (num_gpus={self.num_gpus})")


def _idle_clock() -> float:
    """Rail clock of a topology no simulator drives yet."""
    return 0.0


class ClusterTopology(NodeTopology):
    """Hierarchical topology: NVSwitch domains joined by NIC rails.

    Within a domain every pair keeps the all-to-all NVLink link of the
    flat node.  A cross-domain transfer is proxy-initiated: it hops to
    the source domain's NIC, crosses that domain's egress
    :class:`RailLink` (stateful — concurrent flows contend), and lands
    through the destination domain's switch.  ``link()`` for a
    cross-domain pair returns a frozen composite (rail bandwidth,
    NVLink-hop + rail latency) for pure queries; real transfers go
    through :meth:`transfer_us` / :meth:`rail_transfer_us` so occupancy
    is charged.
    """

    def __init__(self, node: NodeSpec) -> None:
        #: one egress rail per domain, clocked by the topology's
        #: simulator; built first, because the base constructor's
        #: ``sim = None`` installs their clock
        self._rails = [RailLink(node.rail_bandwidth_gbps, node.rail_latency_us)
                       for _ in range(node.num_domains)]
        super().__init__(node)
        self.domain_gpus = node.domain_gpus
        self.num_domains = node.num_domains
        #: effective direct link for cross-domain pure queries
        self._inter = Link(node.rail_bandwidth_gbps,
                           node.nvlink_latency_us + node.rail_latency_us)
        #: (src_domain, dst_domain) -> [bytes, transfers]
        self._pending_rail: dict = {}

    @property
    def sim(self):
        return self._sim

    @sim.setter
    def sim(self, sim) -> None:
        # The rails' clock closes over the simulator alone.  A bound
        # method of the topology would close the cycle topology -> rail
        # -> clock -> topology, and keep the simulator alive with it.
        self._sim = sim
        clock = _idle_clock if sim is None else lambda: sim.now
        for rail in self._rails:
            rail._clock = clock

    def rail(self, domain: int) -> RailLink:
        """Domain ``domain``'s egress rail."""
        if not 0 <= domain < self.num_domains:
            raise ValueError(f"domain {domain} out of range "
                             f"(num_domains={self.num_domains})")
        return self._rails[domain]

    def domain_of(self, device: int) -> int:
        self._check(device)
        return device // self.domain_gpus

    def cross_domain(self, src: int, dst: int) -> bool:
        if src == dst or src == HOST or dst == HOST:
            return False
        dg = self.domain_gpus
        return src // dg != dst // dg

    def link(self, src: int, dst: int) -> Link:
        if self.cross_domain(src, dst):
            self._check(src)
            self._check(dst)
            if self.faults is not None:
                return self.faults.effective_link(src, dst, self._inter)
            return self._inter
        return super().link(src, dst)

    def rail_transfer_us(self, src: int, dst: int, nbytes: float, *,
                         sharers: int = 1, occupy: bool = True) -> float:
        """Wire time of the rail leg of a ``src -> dst`` cross-domain
        transfer: an NVLink hop to the source NIC (latency only — the
        NVSwitch side never bottlenecks a 25 GB/s rail) plus the
        **source** domain's egress rail, priced against its in-flight
        occupancy.  ``occupy=False`` gives a pure estimate."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        sd = self.domain_of(src)
        dd = self.domain_of(dst)
        if sd == dd:
            raise ValueError(f"devices {src} and {dst} share domain {sd}")
        if self.metrics is not None and occupy:
            acc = self._pending_rail.get((sd, dd))
            if acc is None:
                acc = self._pending_rail[(sd, dd)] = [0.0, 0]
            acc[0] += nbytes
            acc[1] += 1
        if nbytes == 0:
            return 0.0
        rail = self._rails[sd]
        cost = (rail.occupy(nbytes, sharers=sharers) if occupy
                else rail.transfer_us(nbytes, sharers=sharers))
        return self.node.nvlink_latency_us + cost

    def transfer_us(self, src: int, dst: int, nbytes: float, *, sharers: int = 1) -> float:
        if not self.cross_domain(src, dst):
            return super().transfer_us(src, dst, nbytes, sharers=sharers)
        if self.metrics is not None:
            self.record_transfer(src, dst, nbytes, sharers=sharers)
        faults = self.faults
        if faults is not None:
            if faults.link_down(src, dst):
                return faults.staged_transfer_us(self, src, dst, nbytes,
                                                 sharers=sharers)
            return (self.rail_transfer_us(src, dst, nbytes, sharers=sharers)
                    + faults.transfer_jitter_us(src, dst))
        return self.rail_transfer_us(src, dst, nbytes, sharers=sharers)

    def staged_route_us(self, src: int, dst: int, nbytes: float, *,
                        sharers: int = 1) -> float:
        """Host-staged reroute.  Cross-domain, the staged copy still has
        to leave the node: PCIe up on the source node, the source
        domain's rail, PCIe down on the destination node."""
        if not self.cross_domain(src, dst):
            return super().staged_route_us(src, dst, nbytes, sharers=sharers)
        return (self.link(src, HOST).transfer_us(nbytes, sharers=sharers)
                + self.rail_transfer_us(src, dst, nbytes, sharers=sharers)
                + self.link(HOST, dst).transfer_us(nbytes, sharers=sharers))

    def flush_metrics(self) -> None:
        super().flush_metrics()
        m = self.metrics
        if m is None or not self._pending_rail:
            return
        for (sd, dd), (nbytes, n) in sorted(self._pending_rail.items()):
            m.counter("hw.rail.bytes", src_node=str(sd), dst_node=str(dd)).inc(nbytes)
            m.counter("hw.rail.transfers", src_node=str(sd), dst_node=str(dd)).inc(n)
        self._pending_rail.clear()


def build_topology(node: NodeSpec) -> NodeTopology:
    """Topology matching ``node``: flat complete-graph within one
    NVSwitch domain, :class:`ClusterTopology` above it."""
    return ClusterTopology(node) if node.is_hierarchical else NodeTopology(node)
