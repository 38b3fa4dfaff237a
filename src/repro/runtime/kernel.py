"""Kernel launch mechanics and the device-side execution context.

Kernel *bodies* are generator functions taking a
:class:`DeviceKernelContext`.  The context exposes the operations a
modeled kernel performs — charge compute time (optionally doing the
real NumPy arithmetic alongside), direct peer loads/stores, tracing —
while the launch path enforces the distinction the paper leans on:

- **discrete launch**: any grid size (the runtime serializes waves of
  blocks transparently) but the kernel dies at the end of the body;
- **cooperative launch**: required for device-wide ``grid.sync()``,
  but the grid must be fully co-resident
  (:class:`CooperativeLaunchError` otherwise) — paper §4.1.4.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.sim import Delay
from repro.sim.stacked import Stacked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.memory import DeviceBuffer
    from repro.runtime.context import MultiGPUContext

__all__ = ["CooperativeLaunchError", "DeviceKernelContext", "KernelSpec"]


class CooperativeLaunchError(RuntimeError):
    """Cooperative grid exceeds the device's co-resident block budget."""


class KernelSpec:
    """Launch configuration: grid/block sizes plus scheduling flags."""

    __slots__ = ("name", "blocks", "threads_per_block", "cooperative")

    def __init__(
        self,
        name: str,
        blocks: int,
        threads_per_block: int = 1024,
        cooperative: bool = False,
    ) -> None:
        if blocks <= 0:
            raise ValueError("blocks must be positive")
        if threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        self.name = name
        self.blocks = blocks
        self.threads_per_block = threads_per_block
        self.cooperative = cooperative

    @property
    def threads(self) -> int:
        return self.blocks * self.threads_per_block


class DeviceKernelContext:
    """What a running (modeled) kernel can do.

    One instance per kernel launch.  For persistent CPU-Free kernels the
    body spawns sub-processes per specialized thread-block group; those
    share this context.
    """

    def __init__(
        self,
        ctx: "MultiGPUContext",
        device: int,
        spec: KernelSpec,
        lane: str,
    ) -> None:
        self.ctx = ctx
        self.device = device
        self.spec = spec
        self.lane = lane

    # -- time charging --------------------------------------------------------

    def compute(
        self,
        elements: int,
        *,
        fraction_of_device: float = 1.0,
        tiling_factor: float = 1.0,
        perks_residency: float = 0.0,
        name: str = "compute",
        category: str = "compute",
    ) -> Generator[Any, Any, None]:
        """Charge stencil-compute time for ``elements`` grid points."""
        # compute_time_us is pure in its arguments and the (per-context)
        # cost model, and persistent kernels recharge identical costs
        # every iteration — memoize on the context.  Stacked quantities
        # key by their member tuple (their own hash is divergence-guarded).
        key = (elements.v if isinstance(elements, Stacked) else elements,
               fraction_of_device.v if isinstance(fraction_of_device, Stacked)
               else fraction_of_device,
               tiling_factor.v if isinstance(tiling_factor, Stacked)
               else tiling_factor,
               perks_residency.v if isinstance(perks_residency, Stacked)
               else perks_residency)
        memo = self.ctx._compute_memo
        cost = memo.get(key)
        if cost is None:
            cost = memo[key] = self.ctx.cost.compute_time_us(
                elements,
                self.ctx.node.gpu.hbm_bandwidth_gbps,
                fraction_of_device=fraction_of_device,
                tiling_factor=tiling_factor,
                perks_residency=perks_residency,
            )
        faults = self.ctx.faults
        if faults is not None:
            cost *= faults.compute_scale(self.device)
        yield from self.busy(cost, name=name, category=category)

    def busy(self, duration_us: float, name: str, category: str) -> Generator[Any, Any, None]:
        """Occupy simulated time and trace it on this kernel's lane."""
        ctx = self.ctx
        sim = ctx.sim
        start = sim.now
        yield Delay(duration_us)
        if ctx.tracer is not None:
            ctx.tracer.record(self.lane, name, category, start, sim.now)

    # -- device-initiated data movement (UVA peer load/store) -----------------

    def peer_store(
        self,
        dst: "DeviceBuffer",
        dst_index: Any,
        src_values: np.ndarray,
        *,
        name: str = "p2p_store",
    ) -> Generator[Any, Any, None]:
        """Direct store into a peer device's memory (P2P over NVLink).

        Requires peer access (or symmetric storage) — enforced through
        :meth:`repro.hw.memory.MemoryManager.check_peer_access`.
        """
        self.ctx.memory.check_peer_access(self.device, dst)
        nbytes = np.asarray(src_values).nbytes
        cost = self.ctx.topology.transfer_us(self.device, dst.device, nbytes)
        start = self.ctx.sim.now
        yield Delay(cost)
        dst.data[dst_index] = src_values
        self.ctx.trace(self.lane, name, "comm", start, self.ctx.sim.now)

    def peer_load(
        self,
        src: "DeviceBuffer",
        src_index: Any,
        *,
        name: str = "p2p_load",
    ) -> Generator[Any, Any, np.ndarray]:
        """Direct load from a peer device's memory."""
        self.ctx.memory.check_peer_access(self.device, src)
        view = np.asarray(src.data[src_index])
        cost = self.ctx.topology.transfer_us(src.device, self.device, view.nbytes)
        start = self.ctx.sim.now
        yield Delay(cost)
        self.ctx.trace(self.lane, name, "comm", start, self.ctx.sim.now)
        return np.array(view)


def validate_cooperative_launch(ctx: "MultiGPUContext", spec: KernelSpec) -> None:
    """Reject cooperative grids that cannot be co-resident (§4.1.4)."""
    limit = ctx.node.gpu.max_coresident_blocks(spec.threads_per_block)
    if spec.blocks > limit:
        raise CooperativeLaunchError(
            f"cooperative kernel {spec.name!r} requests {spec.blocks} blocks of "
            f"{spec.threads_per_block} threads but only {limit} can be co-resident "
            f"on {ctx.node.gpu.name}"
        )
