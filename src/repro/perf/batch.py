"""Batched sweep scheduling: group compatible points, run them fused.

The vector-carrying simulation core (:mod:`repro.sim.stacked`,
:mod:`repro.stencil.batch`) executes a *stack* of structurally
identical sweep points in one discrete-event run.  This module is the
scheduling layer that decides which points may share a stack: a worker
function registers a :class:`BatchAdapter` and the
:class:`~repro.perf.sweep.SweepRunner` consults it to partition the
cache-miss points into groups, run each group fused, and fall back to
the ordinary per-point path whenever a group diverges.

The contract is strict: batched execution is an *optimization only*.
Per-point results and cache entries must come out byte-identical to
the per-point path (enforced by ``tests/perf`` and the hypothesis
equivalence suite), cache keys are shared between the two paths, and
any :class:`~repro.sim.stacked.BatchDivergence` — or any adapter
failure at all — silently reverts the group to per-point execution.
Batched runs record no metrics, so a sweep under an active metrics
registry never consults an adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

__all__ = ["BatchAdapter", "adapter_for", "register_batchable"]


@dataclass(frozen=True)
class BatchAdapter:
    """How to batch one worker function's sweep points.

    ``group_key(args)``
        Hashable key of the batch group ``args`` belongs to, or ``None``
        when the point must run per-point (e.g. faulted or data-carrying
        configurations).  Points map to the same group only when they
        are identical up to the batched axis; the group runner
        re-validates this and raises
        :class:`~repro.sim.stacked.BatchDivergence` on violations.
    ``run(argtuples)``
        Execute one group fused.  Returns one result per argtuple, in
        order — exactly what the worker returns for each point, so
        cache entries are interchangeable.
    """

    group_key: Callable[[tuple], Hashable | None]
    run: Callable[[Sequence[tuple]], list[Any]]


#: worker function -> adapter; populated at import time by the modules
#: that own the workers (a pool worker re-populates it by importing the
#: worker's module when the function is unpickled)
_ADAPTERS: dict[Callable, BatchAdapter] = {}


def register_batchable(
    fn: Callable,
    *,
    group_key: Callable[[tuple], Hashable | None],
    run: Callable[[Sequence[tuple]], list[Any]],
) -> None:
    """Register ``fn`` as batchable (idempotent per function)."""
    _ADAPTERS[fn] = BatchAdapter(group_key=group_key, run=run)


def adapter_for(fn: Callable) -> BatchAdapter | None:
    """The registered adapter for ``fn``, or ``None``."""
    return _ADAPTERS.get(fn)
