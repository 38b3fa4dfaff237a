"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` is bound to one
:class:`~repro.runtime.context.MultiGPUContext` (one simulated run).
Instrumented components hold the injector behind the same ``None``-safe
pattern as the tracer and metrics registry, so a run without faults
executes the exact pre-existing code path — byte-identical timelines,
traces, and metric dumps.

Determinism contract: every random draw comes from a per-site
``random.Random`` seeded with ``sha256(plan.seed + site)``.  Draw order
within a site follows simulated-event order, which the engine already
guarantees is reproducible; no global PRNG state is read or written.
Every injected fault is appended to :attr:`FaultInjector.events`, the
replayable sequence the property tests compare across runs and across
``--jobs`` settings.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from repro.faults.plan import DeliveryFault, FaultPlan, LinkFault
from repro.hw.interconnect import Link
from repro.sim.engine import Flag, Watchdog

__all__ = [
    "DeliveryError",
    "FaultEvent",
    "FaultInjector",
    "RETRY_EDGES",
    "SignalWaitTimeout",
    "use_crash_context",
]

#: ambient (base_us, consumed-PE set) installed by the recovery runner:
#: a restarted segment starts its local clock at 0 but represents global
#: time ``base_us`` onward, and PEs that already crashed must not be
#: re-armed.  Plain module state (not thread-local): simulations are
#: single-threaded per process, and worker processes each get their own
#: module copy.
_CRASH_CONTEXT: tuple[float, frozenset[int]] = (0.0, frozenset())


@contextmanager
def use_crash_context(base_us: float, consumed: frozenset[int] = frozenset()):
    """Shift crash arming for a recovery segment: global crash times are
    translated by ``base_us`` into segment-local time, and crashes of
    PEs in ``consumed`` are not re-armed (they already fired)."""
    global _CRASH_CONTEXT
    prev = _CRASH_CONTEXT
    _CRASH_CONTEXT = (float(base_us), frozenset(consumed))
    try:
        yield
    finally:
        _CRASH_CONTEXT = prev

#: fixed bucket edges for retry-count histograms (attempts per op)
RETRY_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0)


class DeliveryError(RuntimeError):
    """A put/signal delivery was dropped more times than the plan's
    retry budget allows — the simulated transport gave up."""


class SignalWaitTimeout(RuntimeError):
    """A ``signal_wait_until`` exhausted its timeout and retry budget
    without the signal arriving."""


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, in injection order.

    ``t`` is simulated time; ``site`` identifies where the fault landed
    (a link or delivery route); ``value`` carries the magnitude (jitter
    µs, delay µs, ...) or 0.0 for pure drops.
    """

    t: float
    kind: str
    site: str
    value: float = 0.0

    def key(self) -> str:
        """Canonical line used for sequence digests (repr-exact floats)."""
        return f"{self.t!r}|{self.kind}|{self.site}|{self.value!r}"


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan` for one simulation."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: injected faults, in order — the replay-determinism witness
        self.events: list[FaultEvent] = []
        #: per signal-flag name: (t, src_pe, outcome, attempt) of the
        #: most recent delivery attempt targeting it (watchdog context)
        self.last_attempt: dict[str, tuple[float, int, str, int]] = {}
        self.total_retries = 0
        self.total_degraded_puts = 0
        self._rngs: dict[str, random.Random] = {}
        self._sim = None
        self._metrics = None
        self._tracer = None
        self._link_rules: dict[tuple[int, int], tuple[LinkFault, ...]] = {}
        self._links: dict[tuple[int, int], Link] = {}
        self._down: dict[tuple[int, int], bool] = {}
        self._delivery_rules: dict[tuple[int, int], tuple[tuple[int, DeliveryFault], ...]] = {}
        self._drops_by_rule: dict[int, int] = {}
        #: hot-path accumulator flushed into the registry after run()
        self._jitter_acc = [0.0, 0]  # [total µs, draw count]
        #: pe -> segment-local crash time, filled as crashes fire
        self.crashed: dict[int, float] = {}
        #: global-time offset of this run's local clock (recovery segments)
        self.crash_base_us = 0.0
        self._crash_handlers: list = []
        self._crash_times: dict[int, float] = {}

    # -- wiring ---------------------------------------------------------------

    def bind(self, ctx) -> "FaultInjector":
        """Attach to a context: hook the topology, record the profile in
        the metrics dump, and install the watchdog if the plan asks for
        one.  Called by ``MultiGPUContext.__init__``."""
        self._sim = ctx.sim
        self._tracer = ctx.tracer
        self._metrics = ctx.metrics
        ctx.topology.faults = self
        if self._metrics is not None:
            self._metrics.gauge("faults.profile", profile=self.plan.name).set(1)
            self._metrics.gauge("faults.seed").set(self.plan.seed)
            for s in self.plan.stragglers:
                self._metrics.gauge("faults.straggler_scale", pe=str(s.pe)).set(s.compute_scale)
            ctx.add_metric_flusher(self.flush_metrics)
        if self.plan.watchdog_budget_us is not None:
            # The simulator owns its watchdog, so the providers read the
            # injector's records, never the injector (which holds the
            # simulator).
            watchdog = Watchdog(self.plan.watchdog_budget_us, name=self.plan.name)
            watchdog.add_context(partial(_attempt_context, self.last_attempt))
            if self.plan.crashes:
                watchdog.add_context(partial(_crash_context, self.crashed))
            ctx.sim.attach_watchdog(watchdog)
        if self.plan.crashes:
            base_us, consumed = _CRASH_CONTEXT
            self.crash_base_us = base_us
            for crash in self.plan.crashes:
                if crash.pe in consumed:
                    continue
                local_t = self.crash_time(crash.pe) - base_us
                if local_t <= 0:
                    continue
                # Weak event: a crash scheduled past the run's natural
                # end must not fire or stretch the measured timeline.
                ctx.sim.call_at(local_t, self._make_crash_cb(crash.pe), weak=True)
        return self

    def _make_crash_cb(self, pe: int):
        return lambda: self._fire_crash(pe)

    def flush_metrics(self) -> None:
        total, draws = self._jitter_acc
        if draws and self._metrics is not None:
            self._metrics.counter("faults.jitter_us").inc(total)
            self._metrics.counter("faults.jitter_draws").inc(draws)
            self._jitter_acc[0] = 0.0
            self._jitter_acc[1] = 0

    # -- internals ------------------------------------------------------------

    def _now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            digest = hashlib.sha256(f"{self.plan.seed}:{site}".encode()).digest()
            rng = self._rngs[site] = random.Random(int.from_bytes(digest[:8], "big"))
        return rng

    def _record(self, kind: str, site: str, value: float = 0.0, *,
                instant: bool = False, args: dict | None = None) -> FaultEvent:
        event = FaultEvent(self._now(), kind, site, value)
        self.events.append(event)
        if self._metrics is not None:
            self._metrics.counter("faults.injected", kind=kind).inc()
        if instant and self._tracer is not None:
            self._tracer.add_instant(f"fault:{kind}", event.t, category="fault", args=args)
        return event

    # -- link faults ----------------------------------------------------------

    def _rules_for(self, src: int, dst: int) -> tuple[LinkFault, ...]:
        key = (src, dst)
        rules = self._link_rules.get(key)
        if rules is None:
            rules = self._link_rules[key] = tuple(
                r for r in self.plan.links if r.matches(src, dst))
        return rules

    def link_down(self, src: int, dst: int) -> bool:
        """True when the direct ``src -> dst`` link is permanently dead
        and transfers must stage through the host."""
        key = (src, dst)
        down = self._down.get(key)
        if down is None:
            down = self._down[key] = any(r.down for r in self._rules_for(src, dst))
        return down

    def effective_link(self, src: int, dst: int, base: Link) -> Link:
        """Apply bandwidth/latency degradation rules to ``base``."""
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            bandwidth = base.bandwidth_gbps
            latency = base.latency_us
            for rule in self._rules_for(src, dst):
                bandwidth *= rule.bandwidth_scale
                latency += rule.extra_latency_us
            if bandwidth != base.bandwidth_gbps or latency != base.latency_us:
                link = Link(bandwidth, latency)
                self._record("link_degraded", f"link:{src}->{dst}",
                             base.bandwidth_gbps - bandwidth)
            else:
                link = base
            self._links[key] = link
        return link

    def transfer_jitter_us(self, src: int, dst: int) -> float:
        """Per-transfer random extra latency on the ``src -> dst`` route."""
        total = 0.0
        for rule in self._rules_for(src, dst):
            if rule.jitter_us > 0.0:
                total += self._rng(f"jitter:{src}->{dst}").uniform(0.0, rule.jitter_us)
        if total:
            self._record("jitter", f"link:{src}->{dst}", total)
            self._jitter_acc[0] += total
            self._jitter_acc[1] += 1
        return total

    def staged_transfer_us(self, topology, src: int, dst: int, nbytes: float, *,
                           sharers: int = 1) -> float:
        """Degraded-mode routing: ``src -> host -> dst`` when the direct
        link is down.  The route (and its price) is the topology's call:
        on a flat node it is the two (possibly degraded) host links; on
        a hierarchical one an inter-node reroute also crosses — and
        charges — the source domain's rail, not a fictional machine-wide
        host link."""
        cost = topology.staged_route_us(src, dst, nbytes, sharers=sharers)
        self._record("staged_copy", f"link:{src}->{dst}", nbytes, instant=True,
                     args={"src": src, "dst": dst, "nbytes": nbytes})
        if self._metrics is not None:
            self._metrics.counter("hw.link.staged_transfers",
                                  src=str(src), dst=str(dst)).inc()
        return cost

    # -- stragglers -----------------------------------------------------------

    def compute_scale(self, device: int) -> float:
        """Multiplier on modeled compute time for ``device``."""
        scale = 1.0
        for rule in self.plan.stragglers:
            if rule.pe == device:
                scale *= rule.compute_scale
        return scale

    # -- delivery faults ------------------------------------------------------

    def _delivery_rules_for(self, src: int, dst: int) -> tuple[tuple[int, DeliveryFault], ...]:
        key = (src, dst)
        rules = self._delivery_rules.get(key)
        if rules is None:
            rules = self._delivery_rules[key] = tuple(
                (i, r) for i, r in enumerate(self.plan.deliveries) if r.matches(src, dst))
        return rules

    def delivery_faults_apply(self, src: int, dst: int) -> bool:
        """True when some delivery rule can hit the ``src -> dst`` route
        (senders only pay the retry-loop plumbing on faulty routes)."""
        return bool(self._delivery_rules_for(src, dst))

    def delivery_outcome(self, src: int, dst: int, op: str, flag_name: str | None,
                         attempt: int) -> tuple[str, float]:
        """Decide the fate of one delivery attempt.

        Returns ``(outcome, extra_us)`` where outcome is ``"ok"``,
        ``"drop"`` (sender notices, retries), ``"lost"`` (silent drop —
        the sender believes it succeeded), or ``"delay"`` (delivered
        ``extra_us`` late).
        """
        site = f"deliv:{src}->{dst}"
        rng = self._rng(site)
        outcome, extra = "ok", 0.0
        for index, rule in self._delivery_rules_for(src, dst):
            if rule.drop_prob and rng.random() < rule.drop_prob:
                dropped = self._drops_by_rule.get(index, 0)
                if rule.max_drops is None or dropped < rule.max_drops:
                    self._drops_by_rule[index] = dropped + 1
                    outcome = "lost" if rule.silent else "drop"
                    break
            if rule.delay_prob and rng.random() < rule.delay_prob:
                outcome, extra = "delay", rule.delay_us
                break
        if flag_name is not None:
            self.last_attempt[flag_name] = (self._now(), src, outcome, attempt)
        if outcome != "ok":
            self._record(outcome, site, extra, instant=True,
                         args={"op": op, "src": src, "dst": dst, "attempt": attempt})
            if self._metrics is not None:
                self._metrics.counter(f"nvshmem.delivery.{outcome}",
                                      src=str(src), dst=str(dst)).inc()
        return outcome, extra

    def retry_backoff_us(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), growing
        exponentially in simulated time."""
        return self.plan.retry_backoff_us * self.plan.retry_backoff_factor ** (attempt - 1)

    def note_retries(self, src: int, dst: int, attempts: int) -> None:
        """Account a delivery that needed ``attempts`` retries."""
        self.total_retries += attempts
        if self._metrics is not None:
            self._metrics.counter("nvshmem.retry.count", src=str(src), dst=str(dst)).inc(attempts)
            self._metrics.histogram("nvshmem.retry.per_op", RETRY_EDGES,
                                    src=str(src), dst=str(dst)).observe(attempts)

    def note_degraded_put(self, src: int, dst: int, nbytes: float) -> None:
        """Account an NVSHMEM put that took the host-staged route."""
        self.total_degraded_puts += 1
        self._record("staged_put", f"deliv:{src}->{dst}", nbytes, instant=True,
                     args={"src": src, "dst": dst, "nbytes": nbytes})
        if self._metrics is not None:
            self._metrics.counter("nvshmem.degraded.puts", src=str(src), dst=str(dst)).inc()
            self._metrics.counter("nvshmem.degraded.bytes",
                                  src=str(src), dst=str(dst)).inc(nbytes)

    def note_wait_timeout(self, flag_name: str, attempt: int) -> None:
        """Account a signal_wait timeout expiry (attempt is 1-based)."""
        self._record("wait_timeout", f"wait:{flag_name}", attempt, instant=True,
                     args={"flag": flag_name, "attempt": attempt})
        if self._metrics is not None:
            self._metrics.counter("nvshmem.wait.timeouts", flag=flag_name).inc()

    # -- fail-stop crashes ----------------------------------------------------

    def crash_time(self, pe: int) -> float:
        """Global simulated time at which ``pe`` crashes: the pinned
        ``at_us`` if set, else a seed-deterministic draw from the
        crash window (cached — one draw per PE per injector)."""
        t = self._crash_times.get(pe)
        if t is None:
            for crash in self.plan.crashes:
                if crash.pe == pe:
                    if crash.at_us is not None:
                        t = crash.at_us
                    else:
                        t = self._rng(f"crash:pe{pe}").uniform(*crash.window_us)
                    break
            else:
                raise KeyError(f"no PECrashFault for pe {pe}")
            self._crash_times[pe] = t
        return t

    def on_crash(self, handler) -> None:
        """Register ``handler(pe, local_t)`` called when a PE dies —
        the recovery runner uses this to start detection."""
        self._crash_handlers.append(handler)

    def _fire_crash(self, pe: int) -> None:
        """Kill every process the PE owns, fail-stop.

        Ownership is by spawn-name convention: ``gpu{pe}.*`` (streams,
        persistent kernel groups, device-side proxies) and ``*.host{pe}``
        (host control threads).  In-flight transfers (``nvshmem.*`` and
        ``mpi_xfer_*`` deliveries) are deliberately spared — they are
        already on the wire.
        """
        if pe in self.crashed:
            return
        t = self._now()
        self.crashed[pe] = t
        gpu_prefix = f"gpu{pe}."
        host_suffix = f".host{pe}"
        killed = self._sim.kill_matching(
            lambda p: p.name.startswith(gpu_prefix) or p.name.endswith(host_suffix))
        self._record("pe_crash", f"pe:{pe}", float(len(killed)), instant=True,
                     args={"pe": pe, "killed": len(killed),
                           "global_t": t + self.crash_base_us})
        if self._metrics is not None:
            self._metrics.counter("faults.pe_crash", pe=str(pe)).inc()
        for handler in list(self._crash_handlers):
            handler(pe, t)

    # -- diagnostics ----------------------------------------------------------

    def watchdog_context(self, flag: Flag) -> str:
        """The last delivery attempt that targeted ``flag``."""
        return _attempt_context(self.last_attempt, flag)

    def summary(self) -> dict:
        """Deterministic JSON-ready digest of everything injected."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        digest = hashlib.sha256(
            "\n".join(event.key() for event in self.events).encode()).hexdigest()
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "expect": self.plan.expect,
            "injected_events": len(self.events),
            "event_counts": dict(sorted(counts.items())),
            "events_sha256": digest,
            "total_retries": self.total_retries,
            "degraded_puts": self.total_degraded_puts,
            "crashed_pes": {str(pe): t for pe, t in sorted(self.crashed.items())},
        }


def _attempt_context(last_attempt: dict, flag: Flag) -> str:
    """Watchdog context provider: last delivery attempt that targeted
    the stuck signal."""
    record = last_attempt.get(flag.name)
    if record is None:
        return f"no delivery attempt recorded for {flag.name}"
    t, src, outcome, attempt = record
    return (f"last delivery attempt for {flag.name}: from pe{src} at "
            f"t={t:.3f}us — {outcome} (attempt {attempt + 1})")


def _crash_context(crashed: dict, flag: Flag) -> str | None:
    """Watchdog context provider: name PEs that died fail-stop, so a
    post-crash hang diagnoses as a crash, not a mystery."""
    if not crashed:
        return None
    dead = ", ".join(f"pe{pe} crashed fail-stop at t={t:.3f}us"
                     for pe, t in sorted(crashed.items()))
    return f"dead PEs: {dead}"
