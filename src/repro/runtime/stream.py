"""CUDA streams and events.

A :class:`Stream` is an in-order work queue: a FIFO of items that the
stream starts itself.  When the running item completes, the stream
schedules the next queued item (one engine hop later, ahead of any host
waiting on the completion) and only then publishes the completion, so
items execute back-to-back while distinct streams proceed concurrently
— exactly the semantics the baselines exploit for
communication/computation overlap (``comp_stream`` / ``comm_stream`` in
paper Listing 2.1a).

Items come in two kinds:

- a **process item** (:meth:`Stream.enqueue`) runs a generator body as
  its own engine process — kernel launches, whose bodies are device
  generators, and ``wait_event``;
- an **op item** (:meth:`Stream.enqueue_op`) is a pair of engine
  callbacks: ``begin`` runs when the stream reaches the item and
  returns its duration, ``end`` runs when that duration has elapsed.
  Copies and pure delays are op items, so they cost two calendar
  events and no process.

Each item has its own completion flag; the stream's *tail* is the flag
of the most recently enqueued item.  In batched runs (stacked clocks)
an item starts at the member-wise max of its enqueue time and its
predecessor's completion.  Each item is also a happens-before identity
for the sanitizer: it inherits the enqueuing code's clock at enqueue
and acquires its predecessor's completion when it starts.

An :class:`Event` is a snapshot of a stream's tail: host code (or other
streams) can wait on it, mirroring ``cudaEventRecord`` /
``cudaStreamWaitEvent`` / ``cudaEventSynchronize``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from typing import Any

from repro.sim import Flag, Simulator, WaitFlag
from repro.sim.stacked import as_time, emax

__all__ = ["Event", "Stream"]


class Event:
    """Completion marker tied to a point in a stream's work queue."""

    __slots__ = ("flag", "name")

    def __init__(self, flag: Flag, name: str = "event") -> None:
        self.flag = flag
        self.name = name

    @property
    def complete(self) -> bool:
        return self.flag.value >= 1

    def wait(self) -> Generator[Any, Any, None]:
        """Generator helper: suspend until the event completes."""
        yield WaitFlag(self.flag, ge=1)


class _Item:
    """One enqueued stream item.

    Exactly one of ``work`` (a generator factory: a process item) and
    ``begin`` (a callback returning the duration: an op item) is set.
    While an op item's callbacks run, :attr:`Simulator.current` is the
    item itself.  An item does not point at its stream: until it
    starts, the stream's queue holds it; once started, only its engine
    process or pending callback does, so an item that never completes
    goes with its simulator's run.
    """

    __slots__ = ("name", "work", "begin", "end", "done", "prev", "enqueued",
                 "start", "__weakref__")

    def __init__(self, stream: "Stream", name: str,
                 work: Callable[[], Generator[Any, Any, Any]] | None,
                 begin: Callable[[], Any] | None,
                 end: Callable[[Any], None] | None) -> None:
        self.name = name
        self.work = work
        self.begin = begin
        self.end = end
        self.done = Flag(stream.sim, 0, name=f"{stream.lane}.{name}.done")
        #: the predecessor's completion flag (acquired when this starts)
        self.prev = stream._tail
        self.enqueued = stream.sim.now
        self.start: Any = None


class Stream:
    """An in-order device work queue bound to one GPU.

    ``lane`` names the tracer lane device-side spans are recorded on.
    With a fault injector, the stream stops fail-stop once its device
    has crashed: a running op item never completes and nothing behind
    it starts (a running process item is killed with the device's
    processes).
    """

    def __init__(self, sim: Simulator, device: int, name: str,
                 faults: Any = None) -> None:
        self.sim = sim
        self.device = device
        self.name = name
        self.faults = faults
        self.lane = f"gpu{device}.{name}"
        # Tail = completion flag of the most recently enqueued item.
        self._tail = Flag(sim, 1, name=f"{self.lane}.origin")
        #: an item has started and not yet completed
        self._busy = False
        #: the items enqueued behind it, not yet started
        self._queue: deque[_Item] = deque()
        #: sim time the most recent item completed
        self.done_at: Any = 0.0

    @property
    def idle(self) -> bool:
        """True when every enqueued item has completed."""
        return self._tail.value >= 1

    def enqueue(self, work: Callable[[], Generator[Any, Any, Any]], name: str = "work") -> Event:
        """Append a process item running ``work()``; returns an event
        for its completion."""
        return self._submit(_Item(self, name, work, None, None))

    def enqueue_op(self, begin: Callable[[], Any],
                   end: Callable[[Any], None] | None = None,
                   name: str = "op") -> Event:
        """Append an op item; returns an event for its completion.

        ``begin()`` runs when the stream reaches the item and returns
        its duration; ``end(start)`` (optional) runs that much later
        with the item's start time, before the item completes.
        """
        return self._submit(_Item(self, name, None, begin, end))

    def enqueue_delay(self, duration_us: float, name: str = "delay") -> Event:
        """Append a pure time cost (e.g. a modeled device-side copy)."""
        if not (duration_us >= 0):
            raise ValueError(f"stream delay must be a non-negative number, "
                             f"got {duration_us!r}")
        return self.enqueue_op(lambda: duration_us, name=name)

    def record_event(self, name: str = "event") -> Event:
        """``cudaEventRecord``: completes when all prior work completes.

        The host-side cost of recording is charged by the caller (see
        :meth:`repro.runtime.context.HostThread.event_record`).
        """
        return Event(self._tail, name=name)

    def wait_event(self, event: Event) -> None:
        """``cudaStreamWaitEvent``: subsequent items also wait on ``event``."""
        self.enqueue(event.wait, name=f"wait_{event.name}")

    def drained(self) -> Generator[Any, Any, None]:
        """Generator helper: suspend until the queue is fully drained."""
        tail = self._tail
        yield WaitFlag(tail, ge=1)

    # -- internals --------------------------------------------------------

    def _submit(self, item: _Item) -> Event:
        sim = self.sim
        self._tail = item.done
        if sim.monitor is not None:
            sim.monitor.spawned(item, sim.current)
        if self._busy:
            self._queue.append(item)
        else:
            self._start(item)
        return Event(item.done, name=item.name)

    def _start(self, item: _Item) -> None:
        """Schedule ``item``'s first step one engine hop from now."""
        self._busy = True
        # Called at the enqueue (idle stream) or at the predecessor's
        # completion, so in scalar runs this max is now.  Batched runs:
        # a member whose enqueue or predecessor came later starts there.
        at = emax(item.enqueued, self.done_at)
        if item.work is not None:
            self.sim.spawn(self._run(item), name=f"{self.lane}.{item.name}", at=at)
        else:
            self.sim.call_at(at, lambda: self._begin(item))

    def _run(self, item: _Item) -> Generator[Any, Any, None]:
        """Body of a process item's engine process."""
        sim = self.sim
        monitor = sim.monitor
        if monitor is not None:
            monitor.acquired(item, item.prev)
            # the process continues the item's clock
            monitor.joined(sim.current, item)
        yield from item.work()
        self._complete(item)

    def _begin(self, item: _Item) -> None:
        """First callback of an op item: price it, schedule its end."""
        if self.faults is not None and self.device in self.faults.crashed:
            return  # fail-stop: the device died
        sim = self.sim
        sim.current = item
        if sim.monitor is not None:
            sim.monitor.acquired(item, item.prev)
        now = item.start = sim.now
        dt = item.begin()
        sim.call_at(now + dt if dt.__class__ is float else as_time(now, dt),
                    lambda: self._end(item))

    def _end(self, item: _Item) -> None:
        if self.faults is not None and self.device in self.faults.crashed:
            return
        self.sim.current = item
        if item.end is not None:
            item.end(item.start)
        self._complete(item)

    def _complete(self, item: _Item) -> None:
        """Start the next item, then publish ``item``'s completion (the
        next item is scheduled ahead of the completion's waiters)."""
        self.done_at = self.sim.now
        if self._queue:
            self._start(self._queue.popleft())
        else:
            self._busy = False
        item.done.set(1)
