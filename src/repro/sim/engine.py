"""Core event loop, processes, and waitable flags.

The engine is intentionally small and dependency-free.  A *process* is a
Python generator.  It communicates with the simulator by yielding
command objects:

``Delay(dt)``
    Suspend for ``dt`` units of simulated time (microseconds by
    convention throughout this project).

``WaitFlag(flag, predicate, timeout=None, *, ge=None, eq=None)``
    Suspend until the flag satisfies a condition.  The check happens
    immediately (zero-time resume if already satisfied) and again on
    every mutation of the flag.  The condition is either an arbitrary
    ``predicate(value)`` or — preferred on hot paths — one of the
    structured forms ``ge=t`` (wait for ``value >= t``) or ``eq=t``
    (wait for ``value == t``), which the flag indexes so a mutation
    wakes exactly the satisfied waiters without scanning.  With a
    ``timeout`` (simulated time), the process instead resumes with the
    :data:`TIMEOUT` sentinel if the condition still fails when the
    budget expires — the primitive under retrying NVSHMEM waits.

``WaitProcess(process)``
    Suspend until another process terminates; resumes with its return
    value.

``Process`` objects returned by :meth:`Simulator.spawn` can also be
yielded directly as shorthand for ``WaitProcess``.

Determinism: events are ordered by ``(time, sequence)`` where the
sequence number increases monotonically with scheduling order, so runs
are fully reproducible.

Scheduling is a two-level calendar queue rather than one global heap:

* a ``dict`` maps each distinct future timestamp to a FIFO *bucket*
  (``deque``) of events — same-timestamp scheduling is O(1) because the
  monotonic sequence number means plain ``append`` keeps every bucket
  sorted by ``(time, seq)`` for free;
* a small heap orders only the *distinct* timestamps, so advancing time
  leaps directly to the next populated instant (idle-time leaping —
  there is no tick-by-tick draining, and the heap shrinks from
  one-entry-per-event to one-entry-per-timestamp);
* a bucket and its timestamp are retired together when the bucket
  drains, so the timestamp heap never holds dead entries;
* zero-delay resumes — the dominant event class in signaling-heavy
  protocols — bypass both levels through a FIFO ready queue holding
  events at the current instant.

The main loop merges the ready queue and the calendar by ``(time,
seq)``.  Because events only enter the ready queue while ``sim.now``
equals their timestamp, every event in the current instant's *bucket*
predates (in seq order) every event in the ready queue, so the merge
reduces to a single timestamp comparison.

The calendar also carries *callback events* (:meth:`Simulator.call_at`):
bare functions run at a timestamp with no generator and no Process
object.  The engine counts each one it dispatches like a process step
(one event, one calendar or ready-queue pop).  Every NVSHMEM delivery
leg and every stream copy or delay item is a short chain of such
callbacks; while one applies its effects :attr:`Simulator.current` is
the leg or item object, so the sanitizer attributes its stores and
releases to it.

``WaitFlag`` predicates must be pure functions of the flag *value*:
:meth:`Flag.set` skips waiter wakeup when the stored value does not
change, so a predicate that consults ambient state (e.g. ``sim.now``)
is not re-evaluated on no-op writes.

Hang diagnosis: a :class:`Watchdog` attached via
:meth:`Simulator.attach_watchdog` monitors waits on flags marked with a
``watch_budget_us`` and converts a wait that outlives its budget — or a
drained calendar with watched waiters still blocked — into a
:class:`WatchdogError` naming the stuck process, the signal it waits
on, and any registered context (e.g. the last delivery attempt).

Synchronization observation: an object installed as
:attr:`Simulator.monitor` receives every synchronization edge the
engine creates — process forks (``spawned``), flag mutations
(``released``), waiter resumptions (``acquired``), and process
completion/joins (``finished``/``joined``).  The happens-before race
detector in :mod:`repro.sanitize` is built entirely on these five
callbacks; every higher-level primitive in this codebase (NVSHMEM
signals and pending counters, grid/host barriers, stream item
completion, MPI requests, local spin flags) synchronizes through
:class:`Flag`, so the hooks cover them all uniformly.  Callback-driven
work (NVSHMEM delivery legs, stream copy/delay items) passes its own
object as the identity: it calls ``spawned`` when issued, ``acquired``
for the flag it starts behind, and sets :attr:`Simulator.current` to
itself while its callbacks apply effects.  Two deliberate subtleties: a
no-op ``Flag.set`` (same value) releases nothing, matching the
engine's wakeup semantics, and a :data:`TIMEOUT` resume acquires
nothing — a timed-out waiter observed no release.
"""

from __future__ import annotations

import gc
import sys
from collections import deque
from collections.abc import Callable, Generator
from heapq import heappop, heappush
from os.path import basename
from typing import Any

from repro.sim.stacked import Stacked, emax as _emax

__all__ = [
    "DeadlockError",
    "Delay",
    "Flag",
    "Process",
    "ProcessFailed",
    "ProcessKilled",
    "SimulationError",
    "Simulator",
    "TIMEOUT",
    "WaitFlag",
    "WaitProcess",
    "Watchdog",
    "WatchdogError",
]


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class DeadlockError(SimulationError):
    """Raised when no events remain but processes are still blocked.

    The message carries the simulated timestamp and, for every blocked
    process, what it is waiting for, since when, and where it was
    spawned; join chains are chased so the root blocker is named first.
    This is the primary debugging aid for signaling protocol mistakes
    (e.g. a halo-exchange flag that is never set).
    """


class WatchdogError(DeadlockError):
    """Raised by a :class:`Watchdog`: a monitored wait exceeded its
    simulated-time budget (or the event calendar drained while watched
    waiters were still blocked).  Subclasses :class:`DeadlockError` so
    existing hang handling keeps working, but the message additionally
    names the stuck signal and the last delivery attempt reported by
    registered context providers."""


class ProcessFailed(SimulationError):
    """Raised when joining a process that terminated with an exception."""


class ProcessKilled(SimulationError):
    """Recorded as a process's ``error`` when :meth:`Simulator.kill`
    terminates it mid-run (fail-stop fault model).  A later join of the
    killed process raises :class:`ProcessFailed` from this, so the
    joiner observes the death instead of a phantom result."""


class _TimeoutSentinel:
    """Singleton resume value delivered when a ``WaitFlag`` times out."""

    _instance: "_TimeoutSentinel | None" = None

    def __new__(cls) -> "_TimeoutSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMEOUT"


#: resume value a timed ``WaitFlag`` yields back when the budget expires
TIMEOUT = _TimeoutSentinel()


class Delay:
    """Command: suspend the yielding process for ``dt`` simulated time."""

    __slots__ = ("dt",)

    def __init__(self, dt: float) -> None:
        # `not (dt >= 0)` also catches NaN, which would otherwise poison
        # the (time, seq) calendar ordering far from the offending yield.
        if not (dt >= 0):
            raise ValueError(
                f"Delay dt must be a non-negative number, got {dt!r} "
                f"(negative and NaN delays would corrupt event ordering)"
            )
        self.dt = dt

    def __repr__(self) -> str:
        return f"Delay(dt={self.dt!r})"

    def __eq__(self, other: Any) -> bool:
        return other.__class__ is Delay and other.dt == self.dt

    def __hash__(self) -> int:
        return hash((Delay, self.dt))


class WaitFlag:
    """Command: suspend until the flag satisfies the wait condition.

    Exactly one of ``predicate``, ``ge``, or ``eq`` names the
    condition:

    ``predicate``
        Arbitrary callable on the flag value.  The flag re-evaluates it
        on every (value-changing) mutation — a linear scan.

    ``ge=t``
        Wait for ``value >= t``.  Indexed: the flag keeps threshold
        waiters in a heap and a mutation wakes exactly the satisfied
        ones.  Use this for monotonic counters (signals, arrivals).

    ``eq=t``
        Wait for ``value == t``.  Indexed by target value.  Note the
        wait only resumes if the flag *lands exactly* on ``t`` — a
        mutation that jumps over ``t`` wakes nobody, matching the
        equivalent predicate.

    ``timeout`` (simulated time, ``None`` = wait forever) bounds the
    wait: if the condition still fails after ``timeout``, the process
    resumes with the :data:`TIMEOUT` sentinel instead of the flag
    value.  Callers must compare ``result is TIMEOUT``.
    """

    __slots__ = ("flag", "predicate", "timeout", "ge", "eq")

    def __init__(
        self,
        flag: "Flag",
        predicate: Callable[[Any], bool] | None = None,
        timeout: float | None = None,
        *,
        ge: Any | None = None,
        eq: Any | None = None,
    ) -> None:
        if predicate is not None:
            if ge is not None or eq is not None:
                raise ValueError(
                    "WaitFlag takes either a predicate or a structured "
                    "condition (ge=/eq=), not both"
                )
        elif (ge is None) == (eq is None):
            raise ValueError(
                "WaitFlag needs exactly one condition: a predicate, ge=, or eq="
            )
        if timeout is not None and not (timeout > 0):
            raise ValueError(
                f"WaitFlag timeout must be a positive number, got {timeout!r}"
            )
        self.flag = flag
        self.predicate = predicate
        self.timeout = timeout
        self.ge = ge
        self.eq = eq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.ge is not None:
            cond = f"ge={self.ge!r}"
        elif self.eq is not None:
            cond = f"eq={self.eq!r}"
        else:
            cond = f"predicate={self.predicate!r}"
        return f"WaitFlag({self.flag!r}, {cond}, timeout={self.timeout!r})"


class WaitProcess:
    """Command: suspend until ``process`` finishes; resumes with its result."""

    __slots__ = ("process",)

    def __init__(self, process: "Process") -> None:
        self.process = process

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WaitProcess({self.process!r})"


class _TimeoutEntry:
    """Calendar token arming a ``WaitFlag`` timeout.

    Cancellation is lazy: resuming the waiter flips ``cancelled`` and the
    main loop discards the token when it surfaces — crucially *before*
    advancing ``sim.now``, so a resolved wait never inflates the final
    simulated time.
    """

    __slots__ = ("flag", "cancelled")

    def __init__(self, flag: "Flag") -> None:
        self.flag = flag
        self.cancelled = False


class _WeakCallback:
    """Calendar wrapper for ``call_at(..., weak=True)`` callbacks.

    A *weak* callback must not keep the simulation alive: when one
    surfaces and only weak events (or dead tokens) remain pending, the
    run ends at the current time instead of advancing to the callback's
    timestamp.  The fault layer arms crash timers this way — a crash
    scheduled past the natural end of the run neither fires nor
    stretches the measured timeline.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn


class Process:
    """A running coroutine inside the simulator.

    Created via :meth:`Simulator.spawn`.  The wrapped generator's
    ``return`` value becomes :attr:`result` and is delivered to any
    process that joins it.
    """

    __slots__ = (
        "gen", "name", "alive", "result", "error", "_joiners",
        "_waiting_on", "_waiting_flag", "_waiting_join", "_blocked_since",
        "_timeout", "_spawn_site", "_wait_epoch", "_finish_time",
        "__weakref__",
    )

    def __init__(self, gen: Generator[Any, Any, Any], name: str,
                 site: tuple[str, int] | None = None) -> None:
        self.gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None
        self.error: BaseException | None = None
        self._joiners: list[Process] = []
        #: what the process is blocked on, stored cheaply (the command
        #: object / a (flag, value) tuple / the join target) and only
        #: formatted into text when a diagnostic report needs it; cleared
        #: when the process ends, since a flag points at its simulator
        self._waiting_on: Any = "<not started>"
        #: the Flag / Process currently blocked on (None when runnable)
        self._waiting_flag: Flag | None = None
        self._waiting_join: Process | None = None
        #: sim.now when the current blocking wait began (None when runnable)
        self._blocked_since: float | None = None
        #: pending WaitFlag timeout token, if any
        self._timeout: _TimeoutEntry | None = None
        #: (filename, lineno) of the spawn() call site
        self._spawn_site = site
        #: bumped on every flag block; indexed waiter entries snapshot it
        #: so entries from an earlier (timed-out) wait are dead on arrival
        self._wait_epoch = 0
        #: sim.now at termination (batched runs join it into late joins)
        self._finish_time: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


def _format_site(site: tuple[str, int] | None) -> str:
    return f"{basename(site[0])}:{site[1]}" if site is not None else "?"


def _describe_wait(waiting_on: Any) -> str:
    """Format a lazily-stored wait description (deadlock reports only —
    the hot path never builds these strings)."""
    cls = waiting_on.__class__
    if cls is str:
        return waiting_on
    if cls is tuple:  # (flag, value-at-block-time)
        return f"Flag({waiting_on[0].name}={waiting_on[1]})"
    if cls is Delay:
        return f"Delay({waiting_on.dt})"
    if cls is Process:
        return f"join({waiting_on.name})"
    return str(waiting_on)  # pragma: no cover - future command types


class Flag:
    """An integer-valued cell processes can wait on.

    This is the simulated analogue of a word in GPU memory used as a
    synchronization flag: NVSHMEM ``signal_wait_until`` and device-side
    spin loops are modeled as :class:`WaitFlag` commands on a ``Flag``.
    Mutations are instantaneous in simulated time; the *cost* of the
    signaling operation is charged separately by the caller.

    Waiters are indexed by condition so a mutation wakes exactly the
    satisfied ones: ``ge`` waits sit in a threshold heap, ``eq`` waits
    in a dict keyed by target value, and only opaque ``predicate``
    waits pay a linear re-evaluation scan.  Wakeup *order* is
    registration order regardless of index (each wait gets a per-flag
    registration number and satisfied waiters resume sorted by it),
    preserving the exact semantics — and determinism — of the previous
    single-list scan.  Index entries are invalidated lazily: a timed-out
    or resumed waiter leaves its heap/dict entry behind, and the entry
    is discarded when it surfaces (the waiter's ``_wait_epoch`` no
    longer matches).

    ``watch_budget_us`` opts the flag into watchdog monitoring: every
    wait on a marked flag must resume within that many simulated
    microseconds or the attached :class:`Watchdog` raises.  Left
    ``None`` (the default) the flag is never monitored — legitimate
    whole-run waits (host joins, grid barriers) stay exempt.
    """

    __slots__ = ("sim", "name", "_value", "_ge", "_eq", "_scan", "_wseq",
                 "watch_budget_us", "_last_change", "__weakref__")

    def __init__(self, sim: "Simulator", value: int = 0, name: str = "flag") -> None:
        self.sim = sim
        self.name = name
        self._value = value
        #: sim.now of the last effective mutation (None = initial value,
        #: which carries no time dependence).  Batched runs join this
        #: into the wake time of a woken or already-satisfied wait: the
        #: member that arrived before its own release waited there.  It
        #: is the flag's only batch state: batched runs record no metrics.
        self._last_change: Any = None
        #: threshold waiters: heap of (threshold, wseq, proc, epoch)
        self._ge: list[tuple[Any, int, Process, int]] = []
        #: exact-value waiters: target value -> [(wseq, proc, epoch), ...]
        self._eq: dict[Any, list[tuple[int, Process, int]]] = {}
        #: opaque-predicate waiters: [(wseq, proc, predicate), ...]
        self._scan: list[tuple[int, Process, Callable[[Any], bool]]] = []
        #: per-flag registration counter — defines wakeup order
        self._wseq = 0
        self.watch_budget_us: float | None = None

    @property
    def value(self) -> int:
        return self._value

    def set(self, value: int) -> None:
        """Store ``value`` and wake any waiter whose condition now holds.

        A no-op write (same value) skips wakeup: wait conditions depend
        only on the value, and a waiter whose condition already held
        would have resumed when it was enqueued.  The attached monitor
        (if any) sees no release either — a write nobody can observe
        creates no synchronization edge.
        """
        if value == self._value:
            return
        self._value = value
        self._stamp_change()
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.released(self, self.sim.current)
        if self._ge or self._eq or self._scan:
            self._wake()

    def add(self, delta: int = 1) -> int:
        """Atomically add ``delta``; returns the new value."""
        self._value += delta
        self._stamp_change()
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.released(self, self.sim.current)
        if self._ge or self._eq or self._scan:
            self._wake()
        return self._value

    def _stamp_change(self) -> None:
        """Record the release time of this mutation.

        Scalar runs: plainly ``sim.now`` (time is globally monotone, so
        the last mutation is also the latest).  Batched runs: the
        element-wise max over the mutation history — for a threshold
        crossed by the current mutation count (signals, barriers), each
        member's crossing is the max of *its* mutation times, which need
        not belong to the pilot's latest mutation.  Only wake *times*
        need this; batched runs record no metrics, so no per-member
        wakeup tally is kept.
        """
        now = self.sim.now
        last = self._last_change
        if last is None or (now.__class__ is float and last.__class__ is float):
            self._last_change = now
        else:
            self._last_change = _emax(now, last)

    def _wake(self) -> None:
        value = self._value
        woken: list[tuple[int, Process]] | None = None
        ge = self._ge
        while ge and ge[0][0] <= value:
            entry = heappop(ge)
            proc = entry[2]
            # Lazy invalidation: the entry is live only if the process
            # is still blocked on *this* flag by the *same* wait.
            if proc._waiting_flag is self and proc._wait_epoch == entry[3]:
                if woken is None:
                    woken = [(entry[1], proc)]
                else:
                    woken.append((entry[1], proc))
        if self._eq:
            entries = self._eq.pop(value, None)
            if entries is not None:
                for wseq, proc, epoch in entries:
                    if proc._waiting_flag is self and proc._wait_epoch == epoch:
                        if woken is None:
                            woken = [(wseq, proc)]
                        else:
                            woken.append((wseq, proc))
        if self._scan:
            still: list[tuple[int, Process, Callable[[Any], bool]]] = []
            for item in self._scan:
                if item[2](value):
                    if woken is None:
                        woken = [(item[0], item[1])]
                    else:
                        woken.append((item[0], item[1]))
                else:
                    still.append(item)
            self._scan = still
        if woken is None:
            return
        sim = self.sim
        monitor = sim.monitor
        if len(woken) == 1:
            proc = woken[0][1]
            if monitor is not None:
                monitor.acquired(proc, self)
            sim._resume(proc, value, self._last_change)
        else:
            # Registration order, exactly as the old single-list scan
            # woke them (wseq is unique per flag, so the sort is total).
            woken.sort()
            for _, proc in woken:
                if monitor is not None:
                    monitor.acquired(proc, self)
                sim._resume(proc, value, self._last_change)
        wakeups = sim.flag_wakeups
        wakeups[self.name] = wakeups.get(self.name, 0) + len(woken)

    def _waiter_count(self) -> int:
        """Number of (possibly stale) registered waiters — debug aid."""
        return (len(self._ge) + len(self._scan)
                + sum(len(v) for v in self._eq.values()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flag {self.name}={self._value} waiters={self._waiter_count()}>"


class Watchdog:
    """Quiescence-without-progress detector for signal protocols.

    Unlike an OS watchdog this is *not* a spawned process (a periodic
    poller would keep the event calendar alive and stretch the measured
    timeline).  It hooks the simulator's time advance: whenever a wait
    starts on a flag marked via :meth:`watch` (or a flag whose
    ``watch_budget_us`` was set directly), a deadline is recorded, and
    the main loop checks overdue deadlines before stepping past them.
    Entries are validated lazily — a waiter that resumed and re-blocked
    leaves a stale entry behind, detected by comparing the recorded
    ``blocked_since`` timestamp.

    ``context providers`` registered with :meth:`add_context` are
    callables ``(flag) -> str | None`` consulted when building the
    diagnostic; the fault-injection layer uses one to report the last
    delivery attempt targeting the stuck signal.
    """

    def __init__(self, budget_us: float, name: str = "watchdog") -> None:
        if not (budget_us > 0):
            raise ValueError(f"watchdog budget must be positive, got {budget_us!r}")
        self.budget_us = budget_us
        self.name = name
        #: set once the watchdog has raised (inspection aid for tests)
        self.fired = False
        self._heap: list[tuple[float, int, Process, Flag, float]] = []
        self._seq = 0
        self._next_deadline = float("inf")
        self._context: list[Callable[[Flag], str | None]] = []

    def watch(self, flag: Flag, budget_us: float | None = None) -> Flag:
        """Mark ``flag`` for monitoring; waits must resume within
        ``budget_us`` (default: this watchdog's budget)."""
        flag.watch_budget_us = self.budget_us if budget_us is None else budget_us
        return flag

    def add_context(self, provider: Callable[[Flag], str | None]) -> None:
        """Register a diagnostic context provider consulted on firing."""
        self._context.append(provider)

    # -- internals (driven by the Simulator) ---------------------------------

    def _arm(self, deadline: float, proc: Process, flag: Flag, since: float) -> None:
        self._seq += 1
        heappush(self._heap, (deadline, self._seq, proc, flag, since))
        if deadline < self._next_deadline:
            self._next_deadline = deadline

    def _check(self, sim: "Simulator", event_time: float) -> None:
        """Fire any overdue, still-valid deadline strictly before
        ``event_time`` (same-time events get to deliver their wakeups
        first, so a signal landing exactly at the deadline wins)."""
        heap = self._heap
        while heap and heap[0][0] < event_time:
            deadline, _, proc, flag, since = heappop(heap)
            if proc.alive and proc._waiting_flag is flag and proc._blocked_since == since:
                if deadline > sim.now:
                    sim.now = deadline
                self.fired = True
                raise WatchdogError(self._describe(sim, proc, flag, since, deadline))
        self._next_deadline = heap[0][0] if heap else float("inf")

    def _context_lines(self, flag: Flag) -> list[str]:
        lines = []
        for provider in self._context:
            text = provider(flag)
            if text:
                lines.append(text)
        return lines

    def _describe(self, sim: "Simulator", proc: Process, flag: Flag,
                  since: float, deadline: float) -> str:
        lines = [
            f"watchdog[{self.name}]: {proc.name} stuck waiting on signal "
            f"{flag.name} (value={flag.value}) since t={since:.3f}us — no wakeup "
            f"within budget {flag.watch_budget_us:.3f}us (deadline t={deadline:.3f}us); "
            f"spawned at {_format_site(proc._spawn_site)}",
        ]
        for text in self._context_lines(flag):
            lines.append(f"  {text}")
        others = [p for p in sim._processes
                  if p.alive and p._blocked_since is not None and p is not proc]
        if others:
            lines.append(f"  {len(others)} other blocked process(es):")
            lines.append(sim._wait_report(others, indent="    "))
        return "\n".join(lines)

    def _drain_error(self, sim: "Simulator", blocked: list[Process],
                     report: str) -> WatchdogError:
        """Rich diagnostic for a calendar drain with watched waiters blocked."""
        self.fired = True
        lines = [
            f"watchdog[{self.name}]: simulation quiescent at t={sim.now:.3f}us "
            f"with {len(blocked)} blocked process(es) and no pending events:",
            report,
        ]
        for proc in blocked:
            flag = proc._waiting_flag
            if flag is not None and flag.watch_budget_us is not None:
                for text in self._context_lines(flag):
                    lines.append(f"  [{proc.name}] {text}")
        return WatchdogError("\n".join(lines))


class Simulator:
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator()

        def worker():
            yield Delay(5.0)
            return "done"

        p = sim.spawn(worker(), name="worker")
        sim.run()
        assert sim.now == 5.0 and p.result == "done"
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: calendar: distinct future timestamps, heap-ordered
        self._times: list[float] = []
        #: calendar: timestamp -> FIFO bucket of (time, seq, proc, value)
        #: events (seq-sorted for free — seq is assigned at push time)
        self._buckets: dict[float, deque[tuple[float, int, Any, Any]]] = {}
        #: events at the *current* time, FIFO by seq (calendar bypass)
        self._ready: deque[tuple[float, int, Any, Any]] = deque()
        self._seq = 0
        self._processes: list[Process] = []
        self._blocked = 0
        #: hang monitor installed via attach_watchdog (None = unmonitored)
        self.watchdog: Watchdog | None = None
        #: the process whose generator is currently stepping, or the
        #: NVSHMEM delivery leg or stream item applying its effects
        #: (None outside run() and when a callback starts)
        self.current: Any = None
        #: synchronization observer (e.g. the repro.sanitize HB monitor);
        #: must expose spawned/released/acquired/finished/joined.  None
        #: (the default) keeps every hook site on a single None-check.
        self.monitor: Any | None = None
        # Observability counters — plain ints so the hot loop pays one
        # attribute increment, published into a MetricsRegistry by the
        # owning context after run().  Purely diagnostic: they never
        # influence scheduling or simulated time.  A dispatched callback
        # event (call_at) counts like a process step: one event plus
        # one calendar or ready-queue pop.  Nothing outside the engine
        # writes them.
        self.n_events = 0
        self.n_heap_pops = 0
        self.n_ready_pops = 0
        self.n_spawned = 0
        #: callback events executed (a subset of n_events, not published)
        self.n_callbacks = 0
        #: waiter resumptions per flag name
        self.flag_wakeups: dict[str, int] = {}

    # -- process management -------------------------------------------------

    def spawn(self, gen: Generator[Any, Any, Any], name: str = "proc",
              at: Any = None) -> Process:
        """Register ``gen`` as a process and schedule its first step at
        ``at`` (default: now; batched runs pass a member-wise later
        time whose pilot is now)."""
        if not isinstance(gen, Generator):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        frame = sys._getframe(1)
        proc = Process(gen, name, (frame.f_code.co_filename, frame.f_lineno))
        self._processes.append(proc)
        self.n_spawned += 1
        if self.monitor is not None:
            self.monitor.spawned(proc, self.current)
        self._push(self.now if at is None else at, proc, None)
        return proc

    def flag(self, value: int = 0, name: str = "flag") -> Flag:
        """Convenience constructor for a :class:`Flag` bound to this sim."""
        return Flag(self, value, name)

    def attach_watchdog(self, watchdog: Watchdog) -> Watchdog:
        """Install ``watchdog`` as this simulator's hang monitor."""
        self.watchdog = watchdog
        return watchdog

    # -- scheduling internals ------------------------------------------------

    def _push(self, time: float, proc: Any, value: Any) -> None:
        self._seq += 1
        entry = (time, self._seq, proc, value)
        # Calendar keys are the *pilot* timestamp — a plain float even
        # in batched runs, so heap pushes/pops and bucket lookups
        # compare in C instead of through BatchTime dunders.  Pilot
        # order is every member's order (repro.sim.stacked), and the
        # dispatch loop re-reads each entry's exact time vector.
        t = (time if time.__class__ is float
             else time.v[0] if isinstance(time, Stacked) else time)
        now = self.now
        if t == (now if now.__class__ is float
                 else now.v[0] if isinstance(now, Stacked) else now):
            # Zero-delay wakeup: seq is monotonic, so FIFO append keeps
            # the ready queue sorted by (time, seq) for free.
            self._ready.append(entry)
            return
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = deque((entry,))
            heappush(self._times, t)
        else:
            bucket.append(entry)

    def call_at(self, time: float, fn: Callable[[], None], *,
                weak: bool = False) -> None:
        """Schedule a bare callback to run at ``time``.

        Callback events ride the calendar like process resumes but skip
        the generator trampoline; each dispatched callback counts as one
        event.  The callback runs with :attr:`current` reset to ``None``
        (main), so flags it releases are not attributed to whichever
        process stepped last.  Callbacks at the same timestamp run in
        scheduling order relative to every other event, per the
        ``(time, seq)`` contract.

        ``weak=True`` schedules a callback that must not keep the run
        alive: if it surfaces when nothing but weak events remains
        pending, the run ends at the current time, dropping every weak
        callback still pending, without advancing the clock.  Crash timers use this so a fault
        armed past the run's natural end leaves the timeline untouched.
        """
        if time < self.now - 1e-12:
            raise SimulationError("callback scheduled in the past")
        self._push(time, None, _WeakCallback(fn) if weak else fn)

    def _any_strong(self) -> bool:
        """True when any pending event other than weak callbacks and
        dead tokens remains — i.e. the simulation still has work that
        justifies advancing time.  Linear, but only consulted when a
        weak callback surfaces at the head of the calendar."""
        for queue in (self._ready, *self._buckets.values()):
            for entry in queue:
                proc = entry[2]
                value = entry[3]
                if proc is not None:
                    if not proc.alive:
                        continue
                    if value.__class__ is _TimeoutEntry and value.cancelled:
                        continue
                    return True
                if value.__class__ is not _WeakCallback:
                    return True
        return False

    # -- fail-stop kill ------------------------------------------------------

    def kill(self, proc: Process, error: BaseException | None = None) -> bool:
        """Terminate ``proc`` fail-stop at the current simulated time.

        The process stops existing mid-flight: its pending event (a
        Delay resume, a flag wakeup, a timeout token) is discarded when
        it surfaces, waiter registrations are invalidated, and its
        generator is closed.  Joiners are *not* resumed — with fail-stop
        semantics nobody tells them their target died, which is exactly
        the hang the watchdog/deadlock diagnostics then attribute.  A
        *later* join raises :class:`ProcessFailed` from the recorded
        :class:`ProcessKilled` error.  Returns ``False`` if the process
        had already finished.
        """
        if not proc.alive:
            return False
        proc.alive = False
        proc.result = None
        proc.error = error if error is not None else ProcessKilled(
            f"process {proc.name} killed at t={self.now}")
        proc._finish_time = self.now
        if proc._blocked_since is not None:
            self._blocked -= 1
        flag = proc._waiting_flag
        if flag is not None and flag._scan:
            flag._scan = [w for w in flag._scan if w[1] is not proc]
        # indexed ge/eq waiter entries (and any armed watchdog deadline)
        # die lazily: the epoch bump / alive check invalidates them
        proc._wait_epoch += 1
        token = proc._timeout
        if token is not None:
            token.cancelled = True
            proc._timeout = None
        proc._waiting_flag = None
        proc._waiting_join = None
        proc._blocked_since = None
        proc._waiting_on = "<killed>"
        try:
            proc.gen.close()
        except Exception:
            pass  # cleanup errors inside dying code are part of the crash
        if self.monitor is not None:
            self.monitor.finished(proc)
        return True

    def close(self) -> None:
        """End a run that raised: kill every process still alive,
        fail-stop, and drop the pending events and watchdog deadlines.

        A run that drains needs no call — it leaves nothing behind that
        points back at this simulator.  After a raise, the blocked
        survivors' suspended generators and the pending callbacks still
        reach it, so its owner calls this before dropping it.
        """
        self.kill_matching(lambda proc: True)
        self._drop_pending()

    def _drop_pending(self) -> None:
        """Forget every pending event and watchdog deadline."""
        self._times.clear()
        self._buckets.clear()
        self._ready.clear()
        wd = self.watchdog
        if wd is not None:
            wd._heap.clear()
            wd._next_deadline = float("inf")

    def kill_matching(self, predicate: Callable[[Process], bool]) -> list[Process]:
        """Kill every live process whose name/state matches, in spawn
        order (deterministic).  Returns the killed processes."""
        killed = []
        for proc in self._processes:
            if proc.alive and predicate(proc):
                self.kill(proc)
                killed.append(proc)
        return killed

    def _resume(self, proc: Process, value: Any, release: Any = None) -> None:
        """Schedule ``proc`` to continue at the current time.

        Batched runs: the waiter's wake time is the element-wise max of
        the releaser's (vector) clock and the waiter's block time — a
        member that blocked later than the releaser's member resumed
        there, not at the releaser's earlier instant.  Flag wakeups pass
        the flag's accumulated ``release`` time, which per member may
        exceed the waking mutation's own clock (e.g. a barrier whose
        slowest arriver differs between members).
        """
        self._blocked -= 1
        since = proc._blocked_since
        proc._waiting_flag = None
        proc._waiting_join = None
        proc._blocked_since = None
        token = proc._timeout
        if token is not None:
            token.cancelled = True
            proc._timeout = None
        now = self.now if release is None else release
        if now.__class__ is float and since.__class__ is float:
            self._push(now, proc, value)
        else:
            self._push(_emax(now, since), proc, value)

    # -- main loop -----------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until no events remain (or ``until`` is reached).

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if live processes remain blocked with no pending events, and
        re-raises the first exception of any failed process.

        The cycle collector is paused for the run and restored to its
        prior state on every exit.  The loop allocates events, tuples
        and generator frames at a rate that makes collections a large
        share of its wall time, and none of it needs one: nothing a
        simulator owns points back at it (docs/architecture.md,
        "Ownership"), so reference counting frees every finished run.
        """
        times, buckets, ready = self._times, self._buckets, self._ready
        # Counters accumulate in locals (written back in the finally —
        # also on the until/exception exits) so the loop pays no
        # attribute stores for them.  The process step and command
        # dispatch are inlined below for the same reason: one event is
        # one loop iteration, no trampoline calls.
        n_heap = n_ready = n_call = n_events = 0
        # Pilot mirror of self.now: all loop-internal time comparisons
        # run on plain floats even when the clock is a BatchTime vector.
        now_p = self.now
        if now_p.__class__ is not float and isinstance(now_p, Stacked):
            now_p = now_p.v[0]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while times or ready:
                # Merge the ready queue and the calendar by (time, seq).
                # Ready events sit exactly at self.now; a same-timestamp
                # bucket only holds events pushed *before* now advanced
                # here (later pushes at now go to the ready queue), so
                # its seqs all precede the ready queue's and one
                # timestamp comparison decides the merge.
                if times and not (ready and times[0] > now_p):
                    time = times[0]
                    bucket = buckets[time]
                    event = bucket.popleft()
                    if not bucket:
                        # Retire the bucket and its timestamp together:
                        # the timestamp heap never holds dead entries.
                        del buckets[time]
                        heappop(times)
                    # The entry's own timestamp, not the bucket key:
                    # batched runs bucket pilot-equal time *vectors*
                    # together, and each entry carries its exact vector.
                    time = event[0]
                    from_calendar = True
                else:
                    event = ready.popleft()
                    time = event[0]
                    from_calendar = False
                proc = event[2]
                value = event[3]
                t_p = (time if time.__class__ is float
                       else time.v[0] if isinstance(time, Stacked) else time)
                if from_calendar:
                    n_heap += 1
                else:
                    n_ready += 1
                if proc is not None:
                    if not proc.alive:
                        # Dead process (killed fail-stop, or a joined
                        # process that already finished): its leftover
                        # event must not advance time.
                        continue
                    if value.__class__ is _TimeoutEntry and value.cancelled:
                        # Lazily-cancelled timeout token: discard before
                        # the time advance so a resolved wait never
                        # inflates now.
                        continue
                elif value.__class__ is _WeakCallback:
                    # Weak callback: only runs while strong events keep
                    # the simulation alive.  The scan is O(pending) but
                    # rare — it only triggers when a weak event actually
                    # surfaces at the head of the calendar.
                    if not self._any_strong():
                        break
                    value = value.fn
                if until is not None and t_p > until:
                    # Put the event back uncounted: its pop is counted
                    # once, by the run that finally dispatches it.
                    if from_calendar:
                        n_heap -= 1
                    else:
                        n_ready -= 1
                    bucket = buckets.get(t_p)
                    if bucket is None:
                        buckets[t_p] = deque((event,))
                        heappush(times, t_p)
                    else:
                        bucket.appendleft(event)
                    self.now = until
                    return self.now
                if t_p > now_p:
                    # Idle-time leap: jump straight to the next populated
                    # instant (after letting the watchdog veto the jump).
                    wd = self.watchdog
                    if wd is not None and wd._next_deadline < t_p:
                        wd._check(self, time)
                    self.now = time
                    now_p = t_p
                elif t_p < now_p - 1e-12:
                    raise SimulationError("event scheduled in the past")
                else:
                    # Pilot-equal, not necessarily identical: during a
                    # batched step `now` must be the dispatched event's
                    # exact time vector.  Scalar runs re-store an equal
                    # float — a no-op in value.
                    self.now = time
                    now_p = t_p
                if proc is None:
                    n_call += 1
                    self.current = None
                    value()
                    continue
                if value.__class__ is _TimeoutEntry:
                    if proc._timeout is not value:  # stale token
                        continue
                    self._expire_wait(proc, value.flag)
                    value = TIMEOUT
                # -- step the process and dispatch its command ----------
                n_events += 1
                self.current = proc
                try:
                    command = proc.gen.send(value)
                except StopIteration as stop:
                    self._finish(proc, stop.value, None)
                    continue
                except Exception as exc:
                    self._finish(proc, None, exc)
                    raise
                cls = command.__class__
                if cls is Delay:
                    proc._waiting_on = command
                    dt = command.dt
                    if dt.__class__ is float:
                        self._push(self.now + dt, proc, None)
                    elif isinstance(dt, Stacked):  # stacked duration -> time vector
                        self._push(dt.add_to_time(self.now), proc, None)
                    else:  # plain int duration
                        self._push(self.now + dt, proc, None)
                elif cls is WaitFlag:
                    self._wait_flag(proc, command)
                elif cls is WaitProcess:
                    self._join(proc, command.process)
                elif cls is Process:
                    self._join(proc, command)
                else:
                    raise SimulationError(
                        f"process {proc.name} yielded unsupported command {command!r}"
                    )
            # Drained: only weak callbacks and dead tokens can remain,
            # and every armed deadline is stale.  Diagnose blocked
            # survivors, else report the final time.
            self._drop_pending()
            alive_blocked = [p for p in self._processes if p.alive]
            if alive_blocked:
                report = self._wait_report(alive_blocked)
                wd = self.watchdog
                if wd is not None and any(
                    p._waiting_flag is not None
                    and p._waiting_flag.watch_budget_us is not None
                    for p in alive_blocked
                ):
                    raise wd._drain_error(self, alive_blocked, report)
                raise DeadlockError(
                    f"deadlock at t={self.now:.3f}us: "
                    f"{len(alive_blocked)} blocked process(es):\n{report}"
                )
            return self.now
        finally:
            self.n_heap_pops += n_heap
            self.n_ready_pops += n_ready
            self.n_callbacks += n_call
            self.n_events += n_events + n_call
            self.current = None
            if gc_was_enabled:
                gc.enable()

    def _wait_report(self, blocked: list[Process], indent: str = "  ") -> str:
        """One line per blocked process: what it waits on, since when,
        and its spawn site.  Join chains are chased to the root blocker
        — the process everyone is transitively waiting for — which is
        reported first on each chain line."""

        def describe(p: Process) -> str:
            since = "" if p._blocked_since is None else f" since t={p._blocked_since:.3f}us"
            return (f"{p.name} waiting on {_describe_wait(p._waiting_on)}{since} "
                    f"(spawned at {_format_site(p._spawn_site)})")

        roots = [p for p in blocked if p._waiting_join is None]
        joiners = [p for p in blocked if p._waiting_join is not None]
        lines = [f"{indent}{describe(p)}" for p in roots]
        for p in joiners:
            chain = [p]
            seen = {id(p)}
            while chain[-1]._waiting_join is not None and id(chain[-1]._waiting_join) not in seen:
                nxt = chain[-1]._waiting_join
                seen.add(id(nxt))
                chain.append(nxt)
            root = chain[-1]
            path = " -> ".join(q.name for q in chain)
            lines.append(
                f"{indent}root blocker {describe(root)} [join chain: {path}]"
            )
        return "\n".join(lines)

    def _expire_wait(self, proc: Process, flag: Flag) -> None:
        """Unblock ``proc`` from its timed-out wait on ``flag``."""
        # Opaque-predicate entries are removed eagerly (the list is
        # always short); indexed ge/eq entries die lazily — the epoch
        # bump below invalidates them wherever they sit.
        if flag._scan:
            flag._scan = [w for w in flag._scan if w[1] is not proc]
        proc._wait_epoch += 1
        proc._timeout = None
        proc._waiting_flag = None
        proc._blocked_since = None
        self._blocked -= 1

    def _wait_flag(self, proc: Process, command: WaitFlag) -> None:
        flag = command.flag
        value = flag._value
        ge = command.ge
        eq = command.eq
        if ge is not None:
            satisfied = value >= ge
        elif eq is not None:
            satisfied = value == eq
        else:
            satisfied = command.predicate(value)
        if satisfied:
            if self.monitor is not None:
                self.monitor.acquired(proc, flag)
            now = self.now
            last = flag._last_change
            if now.__class__ is float and (last is None or last.__class__ is float):
                self._push(now, proc, value)
            else:
                # Already-satisfied wait in a batched run: a member whose
                # release came after its arrival resumes at the release.
                self._push(_emax(now, last), proc, value)
            return
        proc._waiting_on = (flag, value)
        proc._waiting_flag = flag
        proc._blocked_since = self.now
        proc._wait_epoch += 1
        self._blocked += 1
        flag._wseq += 1
        if ge is not None:
            heappush(flag._ge, (ge, flag._wseq, proc, proc._wait_epoch))
        elif eq is not None:
            flag._eq.setdefault(eq, []).append((flag._wseq, proc, proc._wait_epoch))
        else:
            flag._scan.append((flag._wseq, proc, command.predicate))
        if command.timeout is not None:
            token = _TimeoutEntry(flag)
            proc._timeout = token
            self._push(self.now + command.timeout, proc, token)
        wd = self.watchdog
        if wd is not None:
            budget = flag.watch_budget_us
            if budget is not None:
                wd._arm(self.now + budget, proc, flag, self.now)

    def _join(self, proc: Process, target: Process) -> None:
        if not target.alive:
            if target.error is not None:
                raise ProcessFailed(f"joined process {target.name} failed") from target.error
            if self.monitor is not None:
                self.monitor.joined(proc, target)
            now = self.now
            ft = target._finish_time
            if now.__class__ is float and (ft is None or ft.__class__ is float):
                self._push(now, proc, target.result)
            else:
                # Late join in a batched run: a member that arrived
                # before its target member finished waited for it.
                self._push(_emax(now, ft), proc, target.result)
        else:
            proc._waiting_on = target
            proc._waiting_join = target
            proc._blocked_since = self.now
            self._blocked += 1
            target._joiners.append(proc)

    def _finish(self, proc: Process, result: Any, error: BaseException | None) -> None:
        proc.alive = False
        proc.result = result
        proc.error = error
        proc._finish_time = self.now
        proc._waiting_on = None
        monitor = self.monitor
        if monitor is not None:
            monitor.finished(proc)
        for joiner in proc._joiners:
            if monitor is not None:
                monitor.joined(joiner, proc)
            self._resume(joiner, result)
        proc._joiners.clear()
