"""Deterministic discrete-event simulation (DES) engine.

Every acting component of the multi-GPU model — host threads, kernel
launches, thread-block groups inside persistent kernels — is a
:class:`~repro.sim.engine.Process`: a Python generator that yields
*commands* (:class:`~repro.sim.engine.Delay`,
:class:`~repro.sim.engine.WaitFlag`, ...) to the
:class:`~repro.sim.engine.Simulator`.  Fixed-shape work (NVSHMEM
delivery legs, stream copies and delays) runs as chains of engine
callbacks (:meth:`~repro.sim.engine.Simulator.call_at`).  The simulator advances virtual
time deterministically: identical inputs always produce identical
simulated timelines, which is what makes the paper's latency-accounting
experiments reproducible without real hardware.
"""

from repro.sim.engine import (
    TIMEOUT,
    DeadlockError,
    Delay,
    Flag,
    Process,
    ProcessFailed,
    ProcessKilled,
    SimulationError,
    Simulator,
    WaitFlag,
    WaitProcess,
    Watchdog,
    WatchdogError,
)
from repro.sim.trace import (
    Span,
    Tracer,
    interval_union_length,
    merge_intervals,
    overlap_length,
)

__all__ = [
    "DeadlockError",
    "Delay",
    "Flag",
    "Process",
    "ProcessFailed",
    "ProcessKilled",
    "SimulationError",
    "Simulator",
    "Span",
    "TIMEOUT",
    "Tracer",
    "WaitFlag",
    "WaitProcess",
    "Watchdog",
    "WatchdogError",
    "interval_union_length",
    "merge_intervals",
    "overlap_length",
]
