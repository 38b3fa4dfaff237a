"""Batched stencil execution: one simulation for a stack of sweep points.

A *batch group* is a set of timing-only stencil points that differ only
in ``global_shape`` (same variant, GPU count, iterations, cost model,
...).  Such points run the same event structure — the same processes
taking the same steps in the same order — with different numeric
latencies.  :func:`run_batched_stencil` executes the whole group in a
single discrete-event simulation whose clock carries one component per
member (:mod:`repro.sim.stacked`), then demultiplexes the vector-valued
timeline and totals back into per-point
:class:`~repro.stencil.base.StencilResult` objects that are
byte-identical to what the per-point path produces.  A batched run
records no metrics: the sweep runner runs metered sweeps per point.

Any control-flow decision that would differ across members raises
:class:`~repro.sim.stacked.BatchDivergence`; the sweep scheduler
(:mod:`repro.perf.batch`) catches it and falls back to per-point runs,
so batching is strictly an optimization, never a semantic change.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.obs.metrics import use_metrics
from repro.sim.stacked import (
    WAIT_SPAN,
    BatchDivergence,
    emax,
    members,
    stacked_val,
)
from repro.sim.trace import Tracer, merge_intervals
from repro.stencil.base import VARIANTS, StencilConfig, StencilResult

__all__ = ["batch_stencil_config", "demux_tracer", "joint_total", "run_batched_stencil"]


def batch_stencil_config(configs: Sequence[StencilConfig]) -> StencilConfig:
    """One config whose ``global_shape`` axes stack the group's shapes.

    Axes on which every member agrees stay plain ints (scalar arithmetic
    is cheaper and cannot diverge); differing axes become
    :class:`~repro.sim.stacked.BatchVal` stacks.
    """
    base = configs[0]
    axes = []
    for axis in range(len(base.global_shape)):
        values = [c.global_shape[axis] for c in configs]
        if all(v == values[0] for v in values[1:]):
            axes.append(values[0])
        else:
            axes.append(stacked_val(values))
    return dataclasses.replace(base, global_shape=tuple(axes))


class _JointTrace:
    """The vector-timed trace of a batched run, split per member on
    demand: per-category merged intervals for all members at once, a
    member's rows, counters and instants when that member is read."""

    def __init__(self, tracer: Tracer, B: int) -> None:
        self.tracer = tracer
        self.B = B
        self._intervals: dict[str, list[list[tuple[float, float]]]] = {}

    def intervals(self, category: str) -> list[list[tuple[float, float]]]:
        """Each member's merged intervals of ``category``."""
        merged = self._intervals.get(category)
        if merged is None:
            B = self.B
            pairs = [(members(start, B), members(end, B), meta is WAIT_SPAN)
                     for _, _, cat, start, end, meta in self.tracer._rows
                     if cat == category]
            merged = self._intervals[category] = [
                merge_intervals([(lo[m], hi[m]) for lo, hi, wait in pairs
                                 if not wait or hi[m] > lo[m]])
                for m in range(B)
            ]
        return merged

    def member(self, m: int) -> tuple[list, list, list]:
        """Member ``m``'s ``(rows, counter samples, instant events)``."""
        B = self.B
        rows = []
        for lane, name, category, start, end, meta in self.tracer._rows:
            lo, hi = members(start, B)[m], members(end, B)[m]
            if meta is WAIT_SPAN:
                if hi > lo:
                    rows.append((lane, name, category, lo, hi, None))
            else:
                rows.append((lane, name, category, lo, hi, meta))
        counters = [(name, members(ts, B)[m], members(value, B)[m])
                    for name, ts, value in self.tracer._counters]
        instants = [(members(ts, B)[m], name, category, args)
                    for ts, name, category, args in self.tracer._instants]
        return rows, counters, instants


def demux_tracer(tracer: Tracer, B: int) -> list[Tracer]:
    """Split a vector-timed tracer into B per-member tracers.

    Spans tagged with the :data:`~repro.sim.stacked.WAIT_SPAN` sentinel
    were recorded because *some* member waited; each member keeps the
    span only if its own wait had nonzero duration, reproducing the
    per-point path's ``end > start`` guard member by member.

    The members are views of the joint run: the figure suite reads only
    category totals and the overlap ratio from them, so their own rows
    and :class:`~repro.sim.trace.Span` objects are built only when
    something reads the spans themselves.  The joint run already
    validated every endpoint pair, so the split skips
    :meth:`Tracer.record`.
    """
    joint = _JointTrace(tracer, B)
    outs = [Tracer() for _ in range(B)]
    for m, out in enumerate(outs):
        out._source = (joint, m)
    return outs


def joint_total(ctx, total):
    """Bound a batched run's final clock ``total`` by every member's
    latest event.

    The joint clock ends on the *pilot's* last event; another member's
    latest event may sit elsewhere, so fold every process's finish time
    and every stream's last completion (stream copies and delays are
    callbacks, not processes).  Scalar runs: a no-op, the final clock
    already bounds them.
    """
    for proc in ctx.sim._processes:
        if proc._finish_time is not None:
            total = emax(total, proc._finish_time)
    for stream in ctx._streams.values():
        total = emax(total, stream.done_at)
    return total


def run_batched_stencil(
    variant_name: str,
    configs: Sequence[StencilConfig],
) -> list[StencilResult]:
    """Run a batch group in one simulation; demux per-point results.

    Returns the results in member order.  The run records no metrics,
    even under an ambient registry: a batched run cannot reproduce the
    per-point dumps, so metered sweeps run per point instead.

    Raises :class:`BatchDivergence` when the group violates a batching
    precondition or member control flow diverges mid-run — callers fall
    back to per-point execution.
    """
    B = len(configs)
    base = configs[0]
    if base.with_data:
        raise BatchDivergence("with_data points are not batchable")
    if base.fault_profile is not None:
        raise BatchDivergence("faulted points are not batchable")
    for other in configs[1:]:
        if dataclasses.replace(other, global_shape=base.global_shape) != base:
            raise BatchDivergence("group members differ beyond global_shape")
    cfg = batch_stencil_config(configs)
    if cfg.fault_profile is not None:
        # replace() re-resolved an ambient fault profile into the copy
        raise BatchDivergence("ambient fault profile active")

    with use_metrics(None):
        variant = VARIANTS[variant_name](cfg)
        sim = variant.ctx.sim
        # Mirror StencilVariant.run() step for step; the one difference
        # is that totals and trace come out vector-valued and are
        # demultiplexed below instead of consumed directly.
        variant.setup()
        for rank in range(cfg.num_gpus):
            sim.spawn(variant.host_program(rank),
                      name=f"{variant.name}.host{rank}")
        total = joint_total(variant.ctx, variant.ctx.run())

    tracers = demux_tracer(variant.tracer, B)
    totals = members(total, B)
    return [
        StencilResult(variant=variant_name, config=configs[i],
                      total_time_us=totals[i], tracer=tracers[i])
        for i in range(B)
    ]
