"""Host-speed calibration.

The benchmark runs on shared machines whose speed changes while it
runs: other tenants' load slows execution itself (process CPU time
grows with wall time), in phases from seconds to tens of minutes, by
up to 2x.  Each child therefore times a fixed calibration loop right
before its timed section and after every chunk of it, and the harness
reports host times *at reference speed*::

    chunk time at reference speed = chunk wall time
                                    x REFERENCE_S / mean(loop time before, after)

The loop is a miniature discrete-event simulation, the kind of work
the program's hot paths do: processes as generators, a timestamp heap
with FIFO buckets, a ready queue, flags with waiter lists, and span
tuples.  It uses nothing from the program and does a fixed amount of
work, so no change to the program can change it.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: the loop's time on the reference host (a 2-core x86_64 Linux
#: container, Python 3.11) in its fastest phase
REFERENCE_S = 0.016

_PROCESSES = 64
_HOPS = 240


class _Flag:
    __slots__ = ("value", "waiters")

    def __init__(self) -> None:
        self.value = 0
        self.waiters: list[tuple] = []


def _loop() -> int:
    """Run the miniature simulation; returns the events dispatched."""
    times: list[float] = []
    buckets: dict[float, deque] = {}
    ready: deque = deque()
    # a ring of recent spans: allocation like a tracer's, without
    # growing the process's peak memory
    spans: list[tuple | None] = [None] * 256
    flags = [_Flag() for _ in range(_PROCESSES)]
    clock = [0.0]

    def push(t: float, proc, value) -> None:
        if t == clock[0]:
            ready.append((proc, value))
        elif t in buckets:
            buckets[t].append((proc, value))
        else:
            buckets[t] = deque([(proc, value)])
            heapq.heappush(times, t)

    def process(i: int):
        lane = f"gpu{i % 8}.s{i}"
        own, neighbour = flags[i], flags[(i + 1) % _PROCESSES]
        for hop in range(1, _HOPS):
            start = yield 0.5 + (i % 5) * 0.25
            spans[hop % 256] = (lane, "compute", start, start + 1.0)
            own.value = hop
            for waiter in own.waiters[:]:
                if hop >= waiter[1]:
                    own.waiters.remove(waiter)
                    push(clock[0], waiter[0], clock[0])
            yield (neighbour, hop)

    for i in range(_PROCESSES):
        push(0.0, process(i), None)
    events = 0
    while ready or times:
        if not ready:
            clock[0] = heapq.heappop(times)
            ready.extend(buckets.pop(clock[0]))
        proc, value = ready.popleft()
        events += 1
        try:
            command = proc.send(value)
        except StopIteration:
            continue
        if command.__class__ is float:
            push(clock[0] + command, proc, clock[0] + command)
        elif command[0].value >= command[1]:
            push(clock[0], proc, clock[0])
        else:
            command[0].waiters.append((proc, command[1]))
    return events


def calibrate(repeats: int = 3) -> tuple[float, float]:
    """``(loop time, seconds spent)``: the fastest of ``repeats`` loops
    (the others absorb cold caches), and the whole call's duration."""
    started = time.perf_counter()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best, time.perf_counter() - started
