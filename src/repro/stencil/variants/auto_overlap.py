"""Auto-overlapped stencil — the compiler-derived schedule (§5 + Syncopate).

``cpufree.py`` hand-codes the boundary/interior split; this variant is
what the :mod:`repro.sdfg.transforms.overlap` pass produces when pointed
at the same program: the inner domain is tiled into ``K`` chunks so
each chunk's working set stays under the co-resident kernel's
software-tiling knee (§4.1.4), at the price of ``K-1`` extra
device-loop/block-sync hops per iteration.

The schedule — chunk count, optional TB-split override, optional fused
boundary group — is an :class:`OverlapSchedule`.  When none is given,
:func:`choose_schedule` picks one from the calibrated
:class:`~repro.hw.CostModel` alone (no measurement); :mod:`repro.tune`
refines that guess by sweeping real (simulated) runs.

With ``chunks == 1`` and no overrides the variant *is* ``cpufree``: the
inner body delegates to the parent, so per-iteration times tie exactly.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.core import GridBarrier, SpecializationPlan, TBGroup, launch_persistent, plan_blocks
from repro.stencil.base import StencilConfig, register_variant
from repro.stencil.grid import SlabDecomposition
from repro.stencil.variants.cpufree import CPUFree

__all__ = ["AutoOverlap", "OverlapSchedule", "choose_schedule", "CHUNK_CANDIDATES"]

#: chunk counts the cost model (and the autotuner's default grid) considers
CHUNK_CANDIDATES = (1, 2, 3, 4, 6, 8)


@dataclass(frozen=True)
class OverlapSchedule:
    """One point in the auto-overlap schedule space."""

    #: number of inner-domain chunks per iteration (1 == cpufree's schedule)
    chunks: int
    #: override for the §4.1.2 proportional TB split (None == keep it)
    boundary_tb_per_side: int | None = None
    #: run both boundary sides in one fused TB group (halves the group
    #: count; the sides then execute sequentially)
    fuse_boundary: bool = False

    def __post_init__(self) -> None:
        if self.chunks < 1:
            raise ValueError("chunks must be >= 1")
        if self.boundary_tb_per_side is not None and self.boundary_tb_per_side < 1:
            raise ValueError("boundary_tb_per_side must be >= 1 when set")

    def describe(self) -> dict:
        """Plain-dict form for the byte-stable schedule JSON."""
        return {
            "chunks": self.chunks,
            "boundary_tb_per_side": self.boundary_tb_per_side,
            "fuse_boundary": self.fuse_boundary,
        }


def _chunk_rows(inner_rows: int, chunks: int) -> list[int]:
    """Row count of each chunk — the same balanced integer split the
    overlap transform emits (``(j*n)//K`` boundaries)."""
    return [
        ((j + 1) * inner_rows) // chunks - (j * inner_rows) // chunks
        for j in range(chunks)
    ]


def model_inner_time_us(config: StencilConfig, chunks: int) -> float:
    """Cost-model estimate of one iteration's inner-domain time at a
    given chunk count, for the busiest rank (rank 0 holds the ceil of
    the slab split).

    Mirrors :meth:`StencilVariant.specialization` /
    :meth:`compute_layers`: the proportional TB plan gives the inner
    fraction and resident-thread count, each chunk pays its own
    §4.1.4 tiling factor, and every chunk switch pays one device-loop
    iteration plus a block-level sync.
    """
    decomp = SlabDecomposition(config.global_shape, config.num_gpus)
    cost = config.cost
    tb_total = config.node.gpu.max_coresident_blocks(config.threads_per_block)
    plan = plan_blocks(
        tb_total, decomp.inner_elements(0), decomp.row_elements, sides=2,
    )
    resident = plan.inner_tb * config.threads_per_block
    hbm = config.node.gpu.hbm_bandwidth_gbps
    inner_rows = decomp.chunk_rows(0) - 2
    total = 0.0
    for rows in _chunk_rows(inner_rows, chunks):
        elements = rows * decomp.row_elements
        total += cost.compute_time_us(
            elements,
            hbm,
            fraction_of_device=plan.inner_fraction,
            tiling_factor=cost.tiling_factor(elements, resident),
        )
    total += (chunks - 1) * (cost.device_loop_overhead_us + cost.block_sync_us)
    return total


def choose_schedule(
    config: StencilConfig, *, candidates: tuple[int, ...] = CHUNK_CANDIDATES
) -> OverlapSchedule:
    """Pick the chunk count the calibrated cost model predicts fastest.

    Deterministic: candidates are scanned in ascending order and a
    larger chunk count must win by a strict margin, so ties resolve to
    the smallest ``K`` (and a flat landscape resolves to ``K=1``,
    i.e. exactly cpufree's schedule).
    """
    best_k, best_t = None, None
    for k in sorted(candidates):
        t = model_inner_time_us(config, k)
        if best_t is None or t < best_t - 1e-9:
            best_k, best_t = k, t
    return OverlapSchedule(chunks=best_k)


@register_variant
class AutoOverlap(CPUFree):
    """CPU-Free schedule with compiler-chosen chunking (see module doc)."""

    name = "auto_overlap"

    def __init__(self, config: StencilConfig, schedule: OverlapSchedule | None = None):
        super().__init__(config)
        self.schedule = schedule if schedule is not None else choose_schedule(config)

    # -- TB split -------------------------------------------------------------

    def specialization(self, rank: int) -> SpecializationPlan:
        per_side = self.schedule.boundary_tb_per_side
        if per_side is None:
            return super().specialization(rank)
        return SpecializationPlan(
            tb_total=self.coresident_blocks(),
            boundary_tb_per_side=per_side,
            sides=2,
        )

    # -- chunked inner domain -------------------------------------------------

    def _inner_body(self, rank: int, plan):
        chunks = self.schedule.chunks
        if chunks <= 1:
            # schedule degenerates to cpufree's: reuse it verbatim so the
            # two variants' per-iteration times tie bit-for-bit
            return super()._inner_body(rank, plan)

        rows = self.local_rows(rank)
        cost = self.config.cost
        resident = plan.inner_tb * self.config.threads_per_block
        row_elements = self.decomp.row_elements
        switch_us = cost.device_loop_overhead_us + cost.block_sync_us
        bounds = [2]
        for nrows in _chunk_rows(rows - 4, chunks):
            bounds.append(bounds[-1] + nrows)

        def body(dev, grid: GridBarrier) -> Generator[Any, Any, None]:
            for it in range(1, self.config.iterations + 1):
                for j in range(chunks):
                    lo, hi = bounds[j], bounds[j + 1]
                    tiling = (
                        cost.tiling_factor((hi - lo) * row_elements, resident)
                        if self.tiling_limited else 1.0
                    )
                    yield from self.compute_layers(
                        dev, rank, it, lo, hi,
                        fraction_of_device=plan.inner_fraction,
                        tiling_factor=tiling,
                        perks_residency=self.inner_perks_residency,
                        name=f"inner_chunk{j}",
                    )
                    if j + 1 < chunks:
                        # chunk switch: one persistent-loop hop + block sync
                        yield from dev.busy(switch_us, "chunk_switch", "sync")
                yield from grid.wait()

        return body

    def host_program(self, rank: int) -> Generator[Any, Any, None]:
        if not self.schedule.fuse_boundary:
            yield from super().host_program(rank)
            return
        host = self.ctx.host(rank)
        stream = self.ctx.stream(rank, "stream")
        plan = self.specialization(rank)
        # One TB group plays both side roles, sequentially per iteration.
        # Deadlock-free: the wait at iteration ``it`` is satisfied by the
        # neighbor's iteration-``it-1`` put (flags start at 1), so no
        # intra-iteration circular dependency exists.
        groups = [
            TBGroup("comm", plan.boundary_tb_per_side,
                    self._boundary_body(rank, ("top", "bottom"), plan)),
            TBGroup("inner", plan.inner_tb, self._inner_body(rank, plan)),
        ]
        kernel = yield from launch_persistent(
            host, stream, "auto_overlap_jacobi", groups,
            threads_per_block=self.config.threads_per_block,
        )
        yield from host.event_sync(kernel.event)
