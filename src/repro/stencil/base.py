"""Shared stencil-variant harness: configuration, buffers, metrics.

A variant is a class implementing :meth:`StencilVariant.host_program`
(one simulated host process per rank) over the shared facilities here:
slab decomposition, double-buffered per-rank arrays (regular device
memory or NVSHMEM symmetric heap), compute-time charging that also
performs the real NumPy update, halo-index arithmetic, and metric
extraction from the timeline tracer.

Double-buffer convention (all variants): at iteration ``it`` (1-based)
kernels read parity ``(it-1) % 2`` and write parity ``it % 2``; halo
exchanges deliver boundary layers of the write buffer into the
neighbor's write buffer, so the next iteration's read buffer always
has fresh halos.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Generator
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core import SpecializationPlan, plan_blocks
from repro.faults.profiles import active_fault_profile, get_injector
from repro.hw import DEFAULT_COST_MODEL, HGX_A100_8GPU, CostModel, DeviceBuffer, NodeSpec
from repro.nvshmem import NVSHMEMRuntime, SymmetricArray
from repro.runtime import MultiGPUContext
from repro.runtime.kernel import DeviceKernelContext
from repro.runtime.mpi import HostBarrier
from repro.sim import Tracer
from repro.sim.stacked import Stacked, stacked_val
from repro.stencil.grid import SlabDecomposition, gather_slabs, scatter_slabs
from repro.stencil.reference import update_layers

__all__ = [
    "StencilConfig",
    "StencilResult",
    "StencilVariant",
    "VARIANTS",
    "default_initial",
    "register_variant",
    "variant_names",
]


def default_initial(shape: tuple[int, ...], seed: int = 2024) -> np.ndarray:
    """Deterministic non-trivial initial condition.

    Random interior (strong correctness signal — any halo mix-up
    changes the result) with heated Dirichlet edges.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    u[0] = 1.0
    u[-1] = 0.5
    if len(shape) == 2:
        u[:, 0] = 0.25
        u[:, -1] = 0.75
    else:
        u[:, 0, :] = 0.25
        u[:, -1, :] = 0.75
        u[:, :, 0] = 0.1
        u[:, :, -1] = 0.9
    return u


@dataclass(frozen=True)
class StencilConfig:
    """One stencil experiment.

    ``no_compute``
        Skip all stencil arithmetic *and* its simulated time — the
        paper's "communication and synchronization overheads with no
        computation" mode (Fig. 2.2a, Fig. 6.2 middle).
    ``with_data``
        Allocate real NumPy arrays and compute them.  Disable for
        large timing sweeps; timing is identical either way because
        simulated time is charged analytically.
    ``fault_profile``
        Fault-profile spec (``"transient"``, ``"lost_signal@7"``, ...)
        or ``None`` for a fault-free run.  Defaults to the ambient
        profile installed via ``repro.faults.use_fault_profile`` —
        resolved here, at construction time in the main process, so the
        spec travels to sweep workers inside the (pickled, cache-keyed)
        config rather than as module state.
    """

    global_shape: tuple[int, ...]
    num_gpus: int
    iterations: int
    node: NodeSpec = HGX_A100_8GPU
    cost: CostModel = DEFAULT_COST_MODEL
    no_compute: bool = False
    with_data: bool = True
    threads_per_block: int = 1024
    seed: int = 2024
    fault_profile: str | None = None

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.num_gpus > self.node.num_gpus:
            object.__setattr__(self, "node", self.node.scaled_to(self.num_gpus))
        if self.fault_profile is None:
            object.__setattr__(self, "fault_profile", active_fault_profile())


@dataclass
class StencilResult:
    """Measured outcome of one variant run."""

    variant: str
    config: StencilConfig
    total_time_us: float
    tracer: Tracer
    result: np.ndarray | None = None

    @property
    def comm_time_us(self) -> float:
        return self.tracer.total("comm")

    @property
    def sync_time_us(self) -> float:
        return self.tracer.total("sync")

    @property
    def api_time_us(self) -> float:
        return self.tracer.total("api")

    @property
    def overlap_ratio(self) -> float:
        """Figure 2.2b's share of communication overlapped by compute."""
        return self.tracer.overlap_ratio()

    @property
    def per_iteration_us(self) -> float:
        return self.total_time_us / self.config.iterations

    def speedup_over(self, baseline: "StencilResult") -> float:
        """Paper §6 speedup formula, in percent."""
        return (baseline.total_time_us - self.total_time_us) / baseline.total_time_us * 100.0

    def device_utilization(self) -> dict[int, float]:
        """Fraction of wall time each GPU spent computing.

        The complement of the paper's overhead argument: CPU-controlled
        execution leaves devices idle while the host orchestrates.
        """
        if self.total_time_us == 0.0:
            return {d: 0.0 for d in range(self.config.num_gpus)}
        out = {}
        for device in range(self.config.num_gpus):
            busy = self.tracer.total("compute", lane_prefix=f"gpu{device}.")
            out[device] = busy / self.total_time_us
        return out


VARIANTS: dict[str, type["StencilVariant"]] = {}


def register_variant(cls: type["StencilVariant"]) -> type["StencilVariant"]:
    """Class decorator adding a variant to the global registry."""
    if not cls.name:
        raise ValueError("variant needs a name")
    if cls.name in VARIANTS:
        raise ValueError(f"duplicate variant {cls.name!r}")
    VARIANTS[cls.name] = cls
    return cls


def variant_names() -> list[str]:
    return sorted(VARIANTS)


class StencilVariant(abc.ABC):
    """Base class wiring a variant into the simulator."""

    name: ClassVar[str] = ""
    #: whether this variant allocates NVSHMEM symmetric buffers
    uses_nvshmem: ClassVar[bool] = False

    def __init__(self, config: StencilConfig) -> None:
        self.config = config
        self.decomp = SlabDecomposition(config.global_shape, config.num_gpus)
        self.tracer = Tracer()
        #: per-run fault injector (None = fault plane inert)
        self.faults = get_injector(config.fault_profile)
        self.ctx = MultiGPUContext(
            config.node.scaled_to(config.num_gpus), config.cost, self.tracer,
            faults=self.faults)
        self.nvshmem: NVSHMEMRuntime | None = (
            NVSHMEMRuntime(self.ctx) if self.uses_nvshmem else None
        )
        self._host_barrier = HostBarrier(
            self.ctx.sim,
            config.num_gpus,
            config.cost.mpi_barrier_us(config.num_gpus),
            name="stencil.host",
        )
        self._initial: np.ndarray | None = None
        #: per-rank [parity0, parity1] NumPy views (None when data disabled)
        self.arrays: list[list[np.ndarray]] | None = None
        #: per-rank [parity0, parity1] DeviceBuffers (regular-memory variants)
        self.devbufs: list[list[DeviceBuffer]] | None = None
        #: [parity0, parity1] SymmetricArrays (NVSHMEM variants)
        self.sym: list[SymmetricArray] | None = None
        self.halo_nbytes = self.decomp.halo_elements * 8

    @property
    def initial(self) -> np.ndarray | None:
        """The full-domain initial field, built on first read.  Timing-only
        runs never allocate it; a caller that assigns its own field (a
        recovery restart) never pays for the default one."""
        if self._initial is None and self.config.with_data:
            self._initial = default_initial(self.config.global_shape,
                                            self.config.seed)
        return self._initial

    @initial.setter
    def initial(self, field: np.ndarray) -> None:
        self._initial = field

    # -- buffer setup -----------------------------------------------------------

    def setup_regular_buffers(self) -> None:
        """cudaMalloc-style double buffers on each device."""
        if not self.config.with_data:
            return
        locals_ = scatter_slabs(self.initial, self.decomp)
        self.devbufs = []
        self.arrays = []
        for rank in range(self.config.num_gpus):
            b0 = self.ctx.alloc(rank, "u0", locals_[rank].shape, fill=None)
            b1 = self.ctx.alloc(rank, "u1", locals_[rank].shape, fill=None)
            b0.data[...] = locals_[rank]
            b1.data[...] = locals_[rank]
            self.devbufs.append([b0, b1])
            self.arrays.append([b0.data, b1.data])

    def setup_symmetric_buffers(self) -> None:
        """nvshmem_malloc-style symmetric double buffers.

        The slabs may have unequal row counts; symmetric allocation is
        same-shaped on every PE, so we allocate the maximum local shape
        (real NVSHMEM codes do exactly this padding).
        """
        assert self.nvshmem is not None
        if not self.config.with_data:
            return
        locals_ = scatter_slabs(self.initial, self.decomp)
        max_rows = max(arr.shape[0] for arr in locals_)
        shape = (max_rows, *self.config.global_shape[1:])
        u0 = self.nvshmem.malloc("u0", shape, fill=0.0)
        u1 = self.nvshmem.malloc("u1", shape, fill=0.0)
        self.sym = [u0, u1]
        self.arrays = []
        for rank in range(self.config.num_gpus):
            rows = locals_[rank].shape[0]
            u0.local(rank)[:rows] = locals_[rank]
            u1.local(rank)[:rows] = locals_[rank]
            self.arrays.append([u0.local(rank)[:rows], u1.local(rank)[:rows]])

    # -- indices and parities ------------------------------------------------------

    @staticmethod
    def read_parity(it: int) -> int:
        return (it - 1) % 2

    @staticmethod
    def write_parity(it: int) -> int:
        return it % 2

    def local_rows(self, rank: int) -> int:
        return self.decomp.chunk_rows(rank) + 2

    def boundary_layer(self, rank: int, side: str) -> int:
        """Local axis-0 index of the boundary layer on ``side``."""
        return 1 if side == "top" else self.local_rows(rank) - 2

    def halo_layer(self, rank: int, side: str) -> int:
        """Local axis-0 index of the halo layer on ``side``."""
        return 0 if side == "top" else self.local_rows(rank) - 1

    @staticmethod
    def opposite(side: str) -> str:
        return "bottom" if side == "top" else "top"

    def neighbors(self, rank: int) -> dict[str, int]:
        return self.decomp.neighbors(rank)

    # -- compute -----------------------------------------------------------------

    def compute_layers(
        self,
        dev: DeviceKernelContext,
        rank: int,
        it: int,
        lo: int,
        hi: int,
        *,
        fraction_of_device: float = 1.0,
        tiling_factor: float = 1.0,
        perks_residency: float = 0.0,
        name: str = "compute",
    ) -> Generator[Any, Any, None]:
        """Charge compute time for layers ``[lo, hi)`` and do the math."""
        if self.config.no_compute:
            return
        elements = (hi - lo) * self.decomp.row_elements
        yield from dev.compute(
            elements,
            fraction_of_device=fraction_of_device,
            tiling_factor=tiling_factor,
            perks_residency=perks_residency,
            name=name,
        )
        if self.config.with_data:
            assert self.arrays is not None
            read = self.arrays[rank][self.read_parity(it)]
            write = self.arrays[rank][self.write_parity(it)]
            update_layers(read, write, lo, hi)
            san = self.ctx.sanitizer
            if san is not None and self.sym is not None:
                # local rows map 1:1 onto symmetric-buffer rows (the
                # views are leading-row slices of the padded buffers)
                san.record_symmetric(
                    self.sym[self.read_parity(it)], rank, slice(lo - 1, hi + 1),
                    "read", site=f"{self.name}.{name}", by_pe=rank, label=f"it={it}",
                )
                san.record_symmetric(
                    self.sym[self.write_parity(it)], rank, slice(lo, hi),
                    "write", site=f"{self.name}.{name}", by_pe=rank, label=f"it={it}",
                )

    def boundary_values(self, rank: int, it: int, side: str) -> np.ndarray | float:
        """Boundary layer of the write buffer (what gets sent), or a
        placeholder scalar in timing-only mode."""
        if not self.config.with_data:
            return 0.0
        assert self.arrays is not None
        layer = self.boundary_layer(rank, side)
        san = self.ctx.sanitizer
        if san is not None and self.sym is not None:
            san.record_symmetric(
                self.sym[self.write_parity(it)], rank, layer,
                "read", site=f"{self.name}.send_{side}", by_pe=rank, label=f"it={it}",
            )
        return self.arrays[rank][self.write_parity(it)][layer]

    # -- discrete-kernel grid sizing -----------------------------------------------

    def discrete_blocks(self, elements: int) -> int:
        """Grid size of a discrete (non-cooperative) kernel."""
        if isinstance(elements, Stacked):
            # Batched sweep: the max(1, ...) clamp branches per member.
            per = [self.discrete_blocks(e) for e in elements.v]
            if all(b == per[0] for b in per[1:]):
                return per[0]
            return stacked_val(per)
        return max(1, math.ceil(elements / self.config.threads_per_block))

    def specialization(self, rank: int) -> SpecializationPlan:
        """TB split for this rank (paper §4.1.2 formula)."""
        sides = len(self.neighbors(rank))
        # Boundary layers facing the Dirichlet edge still need a group
        # (they compute, just don't communicate); count them as sides.
        return plan_blocks(
            self.coresident_blocks(),
            self.decomp.inner_elements(rank),
            self.decomp.row_elements,
            sides=2,
        )

    def coresident_blocks(self) -> int:
        return self.ctx.node.gpu.max_coresident_blocks(self.config.threads_per_block)

    def inner_tiling_factor(self, rank: int, plan: SpecializationPlan) -> float:
        """Software-tiling slowdown of the persistent inner kernel."""
        resident_threads = plan.inner_tb * self.config.threads_per_block
        return self.config.cost.tiling_factor(
            self.decomp.inner_elements(rank), resident_threads
        )

    # -- host-side synchronization -----------------------------------------------------

    def barrier(self, rank: int) -> Generator[Any, Any, None]:
        """OpenMP/MPI-style host barrier across all ranks."""
        start = self.ctx.sim.now
        yield from self._host_barrier.wait()
        self.ctx.trace(f"host{rank}", "host_barrier", "sync", start, self.ctx.sim.now)

    # -- the variant program ---------------------------------------------------------

    @abc.abstractmethod
    def setup(self) -> None:
        """Allocate buffers/signals before host processes start."""

    @abc.abstractmethod
    def host_program(self, rank: int) -> Generator[Any, Any, None]:
        """The host process driving GPU ``rank``."""

    # -- execution ------------------------------------------------------------------

    def run(self) -> StencilResult:
        """Set up, simulate all ranks, gather data and metrics."""
        self.setup()
        for rank in range(self.config.num_gpus):
            self.ctx.sim.spawn(self.host_program(rank), name=f"{self.name}.host{rank}")
        total = self.ctx.run()
        m = self.ctx.metrics
        if m is not None:
            m.counter("stencil.runs", variant=self.name).inc()
            m.counter("stencil.iterations", variant=self.name).inc(
                self.config.iterations
            )
            m.counter("stencil.sim_time_us", variant=self.name).inc(total)
        result = None
        if self.config.with_data and not self.config.no_compute and self.arrays is not None:
            parity = self.write_parity(self.config.iterations)
            result = gather_slabs(
                [self.arrays[r][parity] for r in range(self.config.num_gpus)],
                self.decomp,
                self.initial,
            )
        return StencilResult(
            variant=self.name,
            config=self.config,
            total_time_us=total,
            tracer=self.tracer,
            result=result,
        )
