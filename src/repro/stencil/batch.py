"""Batched stencil execution: one simulation for a stack of sweep points.

A *batch group* is a set of timing-only stencil points that differ only
in ``global_shape`` (same variant, GPU count, iterations, cost model,
...).  Such points run the same event structure — the same processes
taking the same steps in the same order — with different numeric
latencies.  :func:`run_batched_stencil` executes the whole group in a
single discrete-event simulation whose clock carries one component per
member (:mod:`repro.sim.stacked`), then demultiplexes the vector-valued
timeline, metrics, and totals back into per-point
:class:`~repro.stencil.base.StencilResult` objects that are
byte-identical to what the per-point path produces.

Any control-flow decision that would differ across members raises
:class:`~repro.sim.stacked.BatchDivergence`; the sweep scheduler
(:mod:`repro.perf.batch`) catches it and falls back to per-point runs,
so batching is strictly an optimization, never a semantic change.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Sequence

from repro.obs.batch import BatchMetrics
from repro.obs.metrics import use_metrics
from repro.sim.stacked import (
    WAIT_SPAN,
    BatchDivergence,
    emax,
    members,
    stacked_val,
)
from repro.sim.trace import Span, Tracer
from repro.stencil.base import VARIANTS, StencilConfig, StencilResult

__all__ = ["batch_stencil_config", "demux_tracer", "run_batched_stencil"]


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


def demux_tracer(tracer: Tracer, B: int) -> list[Tracer]:
    """Split a vector-timed tracer into B per-member tracers.

    Spans tagged with the :data:`~repro.sim.stacked.WAIT_SPAN` sentinel
    were recorded because *some* member waited; each member keeps the
    span only if its own wait had nonzero duration, reproducing the
    per-point path's ``end > start`` guard member by member.
    """
    outs = [Tracer() for _ in range(B)]
    # Spans are constructed directly (not via Tracer.record): the joint
    # run already validated every endpoint pair, and the per-member
    # views inherit that validity, so the demux loop skips the check.
    span_lists = [out.spans for out in outs]
    for span in tracer.spans:
        starts = members(span.start, B)
        ends = members(span.end, B)
        lane = span.lane
        name = span.name
        category = span.category
        if span.meta is WAIT_SPAN:
            for m in range(B):
                if ends[m] > starts[m]:
                    span_lists[m].append(
                        Span(lane, name, category, starts[m], ends[m]))
        else:
            meta = span.meta
            for m in range(B):
                span_lists[m].append(
                    Span(lane, name, category, starts[m], ends[m], meta))
    for name, ts, value in tracer.counter_samples:
        times = members(ts, B)
        values = members(value, B)
        for m, out in enumerate(outs):
            out.add_counter(name, times[m], values[m])
    for ts, name, category, args in tracer.instant_events:
        times = members(ts, B)
        for m, out in enumerate(outs):
            out.instant_events.append((times[m], name, category, args))
    return outs


def run_batched_stencil(
    variant_name: str,
    configs: Sequence[StencilConfig],
    with_metrics: bool = True,
) -> tuple[list[StencilResult], list[dict | None]]:
    """Run a batch group in one simulation; demux per-point results.

    Returns ``(results, dumps)`` in member order, where each dump is the
    metrics registry ``to_dict()`` the per-point path would have
    produced (``None`` entries when ``with_metrics`` is false).

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

    # The fused run allocates stacked tuples at a rate that makes gen-0
    # collections a measurable fraction of its wall time; nothing in a
    # timing-only run creates reference cycles, so pause collection for
    # the (short) run and restore the collector's prior state after.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _run_batched_locked(variant_name, configs, cfg, B, with_metrics)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_batched_locked(
    variant_name: str,
    configs: Sequence[StencilConfig],
    cfg: StencilConfig,
    B: int,
    with_metrics: bool,
) -> tuple[list[StencilResult], list[dict | None]]:
    registry = BatchMetrics(B) if with_metrics else None
    with use_metrics(registry):
        variant = VARIANTS[variant_name](cfg)
        sim = variant.ctx.sim
        sim.batch_members = B
        # Mirror StencilVariant.run() step for step; the one difference
        # is that totals/metrics/trace come out vector-valued and are
        # demultiplexed below instead of consumed directly.
        variant.setup()
        for rank in range(cfg.num_gpus):
            sim.spawn(variant.host_program(rank),
                      name=f"{variant.name}.host{rank}")
        total = variant.ctx.run()
        # The joint clock ends on the *pilot's* last event; another
        # member's latest event may sit elsewhere, so fold every
        # process's finish time (scalar runs: a no-op, the final clock
        # already bounds them).
        for proc in sim._processes:
            if proc._finish_time is not None:
                total = emax(total, proc._finish_time)
        m = variant.ctx.metrics
        if m is not None:
            m.counter("stencil.runs", variant=variant_name).inc()
            m.counter("stencil.iterations", variant=variant_name).inc(
                cfg.iterations
            )
            m.counter("stencil.sim_time_us", variant=variant_name).inc(total)

    tracers = demux_tracer(variant.tracer, B)
    totals = members(total, B)
    results = []
    for i in range(B):
        tr = tracers[i]
        results.append(StencilResult(
            variant=variant_name,
            config=configs[i],
            total_time_us=totals[i],
            comm_time_us=tr.total("comm"),
            sync_time_us=tr.total("sync"),
            api_time_us=tr.total("api"),
            overlap_ratio=tr.overlap_ratio(),
            tracer=tr,
            result=None,
        ))
    dumps: list[dict | None]
    if registry is not None:
        dumps = registry.dumps()
    else:
        dumps = [None] * B
    return results, dumps
