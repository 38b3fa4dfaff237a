"""Vector clocks and the engine monitor that maintains them.

The simulator already funnels *every* synchronization primitive through
:class:`repro.sim.Flag` — NVSHMEM signal words, the quiet pending
counters, grid-barrier arrival counts, host barriers, stream completion
flags, MPI request flags and local spin flags are all Flags — so a
monitor observing flag releases/acquires plus process spawn/join sees
the complete happens-before relation of a run.

The model is the classic one:

* each process (DES generator) carries a vector clock; entry ``tid``
  counts that process's release points;
* ``released(flag)``: the flag's clock joins the releaser's, then the
  releaser ticks its own component (so later events are *not* ordered
  before the release);
* ``acquired(flag)``: the acquirer's clock joins the flag's;
* ``spawned(child, parent)``: the child starts from a copy of the
  parent's clock (everything the parent did so far happens-before the
  child) and the parent ticks;
* ``finished`` / ``joined``: the final clock of a finished process
  joins into every joiner.

Two subtleties, mirrored from the engine:

* a ``Flag.set`` to the current value is a no-op (no waiters wake) —
  the engine skips the ``released`` hook for it, so a same-value set
  creates no edge;
* a ``WaitFlag`` that resumes via *timeout* never observed the flag —
  the engine deliberately performs no ``acquired`` for it.

Clock maps hold their ``Process`` / ``Flag`` / item / leg keys weakly.
A strong key would keep the run alive from its own monitor (a flag
points at its simulator, which holds the monitor), so a sanitized run
would wait for the cycle collector.  A key by ``id()`` alone would
merge a dead object's clock into an unrelated new one at the same
address and fabricate happens-before edges; a weak entry goes with its
object, and tids are never reused.
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Flag, Process

__all__ = ["HBMonitor", "VectorClock", "happens_before"]

#: tid used for code running outside any DES process (the host setup
#: code that fills initial conditions, sets flags to 1, etc.).
MAIN_TID = 0


class VectorClock(dict):
    """``{tid: count}`` vector clock; missing entries are zero."""

    __slots__ = ()

    def join(self, other: dict[int, int]) -> None:
        """In-place component-wise max (the HB join)."""
        for tid, count in other.items():
            if self.get(tid, 0) < count:
                self[tid] = count

    def copy(self) -> "VectorClock":
        return VectorClock(self)


def happens_before(
    a_tid: int, a_clock: dict[int, int], b_clock: dict[int, int]
) -> bool:
    """Did the event stamped ``(a_tid, a_clock)`` happen-before an
    event stamped with ``b_clock``?

    True iff ``b``'s view of ``a``'s component is at least ``a``'s own
    count at the time of the event — i.e. some chain of sync edges
    carried ``a``'s progress to ``b``.
    """
    return b_clock.get(a_tid, 0) >= a_clock.get(a_tid, 0)


class HBMonitor:
    """Engine monitor (``Simulator.monitor``) maintaining vector clocks.

    Install with ``sim.monitor = HBMonitor()``; the recorder
    (:class:`repro.sanitize.recorder.Sanitizer`) snapshots
    :meth:`clock_of` at each tracked heap access.
    """

    def __init__(self) -> None:
        self._next_tid = MAIN_TID + 1
        # keyed weakly by Process object; None stands for host/main code
        self._tids: WeakKeyDictionary[object, int] = WeakKeyDictionary()
        self._proc_clocks: WeakKeyDictionary[object, VectorClock] = WeakKeyDictionary()
        self._flag_clocks: WeakKeyDictionary[object, VectorClock] = WeakKeyDictionary()
        self._main_clock = VectorClock({MAIN_TID: 1})

    # -- identity ------------------------------------------------------------

    def tid_of(self, proc: "Process | None") -> int:
        if proc is None:
            return MAIN_TID
        tid = self._tids.get(proc)
        if tid is None:
            tid = self._tids[proc] = self._next_tid
            self._next_tid += 1
        return tid

    def clock_of(self, proc: "Process | None") -> VectorClock:
        if proc is None:
            return self._main_clock
        clock = self._proc_clocks.get(proc)
        if clock is None:
            # process observed before its spawn hook (defensive): it
            # inherits nothing but its own component.
            clock = self._proc_clocks[proc] = VectorClock({self.tid_of(proc): 1})
        return clock

    # -- engine hook protocol ------------------------------------------------

    def spawned(self, child: "Process", parent: "Process | None") -> None:
        parent_clock = self.clock_of(parent)
        child_clock = parent_clock.copy()
        child_clock[self.tid_of(child)] = 1
        self._proc_clocks[child] = child_clock
        # tick the parent: the spawn is a release point for it
        parent_clock[self.tid_of(parent)] = parent_clock.get(self.tid_of(parent), 0) + 1

    def released(self, flag: "Flag", releaser: "Process | None") -> None:
        clock = self.clock_of(releaser)
        flag_clock = self._flag_clocks.get(flag)
        if flag_clock is None:
            flag_clock = self._flag_clocks[flag] = VectorClock()
        flag_clock.join(clock)
        tid = self.tid_of(releaser)
        clock[tid] = clock.get(tid, 0) + 1

    def acquired(self, proc: "Process", flag: "Flag") -> None:
        flag_clock = self._flag_clocks.get(flag)
        if flag_clock:
            self.clock_of(proc).join(flag_clock)

    def finished(self, proc: "Process") -> None:
        # tick so the final clock is a proper release point for joiners
        clock = self.clock_of(proc)
        tid = self.tid_of(proc)
        clock[tid] = clock.get(tid, 0) + 1

    def joined(self, joiner: "Process", target: "Process") -> None:
        self.clock_of(joiner).join(self.clock_of(target))
