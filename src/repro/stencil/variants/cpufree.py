"""CPU-Free stencil — the paper's model (Listing 4.1).

One cooperative persistent kernel per GPU hosts the whole time loop.
Thread blocks are specialized (§4.1.2): one group per boundary side
waits on its neighbor's signal, computes the boundary layer, writes it
into the neighbor's halo with ``putmem_signal_nbi`` (block-cooperative)
and signals availability; the remaining blocks compute the inner
domain.  ``grid.sync()`` closes every iteration.  The host's only role
is the initial launch.

Signal protocol (§4.1.1): flags start at 1 ("iteration-0 halos present"
— the initial scatter fills them).  At iteration ``it`` a boundary
group waits for its flag to reach ``it``, and after writing the halo
sets the neighbor's flag to ``it + 1``.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.core import GridBarrier, TBGroup, launch_persistent
from repro.nvshmem import WaitCond
from repro.runtime.kernel import DeviceKernelContext
from repro.stencil.base import StencilVariant, register_variant
from repro.stencil.variants.nvshmem_discrete import SIGNAL_INDEX

__all__ = ["CPUFree"]


@register_variant
class CPUFree(StencilVariant):
    name = "cpufree"
    uses_nvshmem = True
    #: perks_residency handed to the inner kernel (overridden by the
    #: PERKS variant)
    inner_perks_residency = 0.0
    #: whether the inner kernel suffers the §4.1.4 software-tiling
    #: penalty when oversubscribed (PERKS tiles better: it opts out)
    tiling_limited = True

    def setup(self) -> None:
        assert self.nvshmem is not None
        self.setup_symmetric_buffers()
        # four flags per PE: {top, bottom} halo-arrived semaphores,
        # initialized to 1 = initial halos present
        self.signals = self.nvshmem.malloc_signals("halo_flags", 2)
        for pe in range(self.config.num_gpus):
            for index in SIGNAL_INDEX.values():
                self.signals.flag(pe, index).set(1)

    # -- TB group bodies ------------------------------------------------------

    def _boundary_body(self, rank: int, sides: tuple[str, ...], plan):
        """A boundary TB group: every iteration, each of ``sides`` in turn
        waits for its neighbor's halo, computes its boundary layer and
        puts that layer into the neighbor's halo."""
        neighbors = self.neighbors(rank)
        steps = [(side, neighbors.get(side), self.boundary_layer(rank, side))
                 for side in sides]

        def body(dev: DeviceKernelContext, grid: GridBarrier) -> Generator[Any, Any, None]:
            nv = self.nvshmem.device(rank, lane=dev.lane)
            for it in range(1, self.config.iterations + 1):
                for side, nbr, layer in steps:
                    if nbr is not None:
                        # ① wait for the neighbor's iteration-(it-1) halo
                        yield from nv.signal_wait_until(
                            self.signals, SIGNAL_INDEX[side], WaitCond.GE, it
                        )
                    # ② compute this side's boundary layer
                    yield from self.compute_layers(
                        dev, rank, it, layer, layer + 1,
                        fraction_of_device=plan.boundary_fraction_per_side,
                        name=f"boundary_{side}",
                    )
                    if nbr is not None:
                        # ③+④ write the neighbor's halo and signal it
                        dst = self.sym[self.write_parity(it)] if self.config.with_data else None
                        yield from nv.putmem_signal_nbi(
                            dst,
                            self.halo_layer(nbr, self.opposite(side)),
                            self.boundary_values(rank, it, side),
                            self.signals,
                            SIGNAL_INDEX[self.opposite(side)],
                            it + 1,
                            dest_pe=nbr,
                            nbytes=self.halo_nbytes,
                            name=f"halo_{side}",
                        )
                # ⑤ synchronize all TBs before the next time step
                yield from grid.wait()

        return body

    def _inner_body(self, rank: int, plan):
        rows = self.local_rows(rank)
        tiling = self.inner_tiling_factor(rank, plan) if self.tiling_limited else 1.0

        def body(dev: DeviceKernelContext, grid: GridBarrier) -> Generator[Any, Any, None]:
            for it in range(1, self.config.iterations + 1):
                yield from self.compute_layers(
                    dev, rank, it, 2, rows - 2,
                    fraction_of_device=plan.inner_fraction,
                    tiling_factor=tiling,
                    perks_residency=self.inner_perks_residency,
                    name="inner",
                )
                yield from grid.wait()

        return body

    # -- host program: a single launch -----------------------------------------

    def host_program(self, rank: int) -> Generator[Any, Any, None]:
        host = self.ctx.host(rank)
        stream = self.ctx.stream(rank, "stream")
        plan = self.specialization(rank)
        groups = [
            TBGroup("comm_top", plan.boundary_tb_per_side,
                    self._boundary_body(rank, ("top",), plan)),
            TBGroup("comm_bottom", plan.boundary_tb_per_side,
                    self._boundary_body(rank, ("bottom",), plan)),
            TBGroup("inner", plan.inner_tb, self._inner_body(rank, plan)),
        ]
        kernel = yield from launch_persistent(
            host, stream, "cpufree_jacobi", groups,
            threads_per_block=self.config.threads_per_block,
        )
        yield from host.event_sync(kernel.event)
