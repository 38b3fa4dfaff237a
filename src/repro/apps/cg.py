"""Multi-GPU Conjugate Gradient, CPU-controlled vs CPU-Free.

Solves the 2D negative-Laplacian system ``A u = b`` (5-point operator,
homogeneous Dirichlet boundary) with unpreconditioned CG over a slab
decomposition.  Each iteration needs

- one halo exchange of the search direction ``p`` (like the stencil),
- **two global scalar reductions** (``p·q`` and ``r·r``),

which makes CG the latency-bound extreme of the paper's argument: the
CPU-controlled version pays kernel launches, stream syncs *and* two
``MPI_Allreduce`` latencies per iteration, while the CPU-Free version
runs one persistent kernel per GPU and performs the reductions with
GPU-initiated ``putmem_signal`` exchanges of partial sums.

Reduction determinism: partial sums are always combined in rank order
(both on device and in ``MPI_Allreduce``), so the distributed solvers
are *bit-exact* against :func:`reference_cg`, which uses the same
chunk-ordered dot products.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core import TBGroup, launch_persistent
from repro.hw import DEFAULT_COST_MODEL, HGX_A100_8GPU, CostModel, NodeSpec
from repro.nvshmem import NVSHMEMRuntime, SignalOp, WaitCond
from repro.runtime import Communicator, MultiGPUContext
from repro.runtime.kernel import KernelSpec
from repro.sim import Tracer
from repro.stencil.grid import SlabDecomposition, scatter_slabs

__all__ = ["CGConfig", "CGResult", "cg_point", "reference_cg", "run_cg"]


def laplacian_apply(p: np.ndarray, out: np.ndarray) -> None:
    """Matrix-free 5-point negative Laplacian on the interior.

    ``p`` carries one halo layer on axis 0; axis-1 boundary columns are
    Dirichlet (zero contribution outside).
    """
    out[1:-1, 1:-1] = (
        4.0 * p[1:-1, 1:-1]
        - p[:-2, 1:-1]
        - p[2:, 1:-1]
        - p[1:-1, :-2]
        - p[1:-1, 2:]
    )


@dataclass(frozen=True)
class CGConfig:
    """One CG experiment (fixed iteration count, no early exit)."""

    global_shape: tuple[int, int]
    num_gpus: int
    iterations: int
    node: NodeSpec = HGX_A100_8GPU
    cost: CostModel = DEFAULT_COST_MODEL
    with_data: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if len(self.global_shape) != 2:
            raise ValueError("CG operator is 2D")
        if self.num_gpus > self.node.num_gpus:
            object.__setattr__(self, "node", self.node.scaled_to(self.num_gpus))


@dataclass
class CGResult:
    variant: str
    config: CGConfig
    total_time_us: float
    comm_time_us: float
    sync_time_us: float
    api_time_us: float
    tracer: Tracer
    solution: np.ndarray | None = None
    final_residual_norm2: float | None = None

    @property
    def per_iteration_us(self) -> float:
        return self.total_time_us / self.config.iterations

    def speedup_over(self, baseline: "CGResult") -> float:
        return (baseline.total_time_us - self.total_time_us) / baseline.total_time_us * 100.0


def default_rhs(shape: tuple[int, int], seed: int) -> np.ndarray:
    """Random right-hand side, zero on the Dirichlet ring."""
    rng = np.random.default_rng(seed)
    b = rng.random(shape)
    b[0] = b[-1] = 0.0
    b[:, 0] = b[:, -1] = 0.0
    return b


def _chunk_dot(a: np.ndarray, b: np.ndarray, decomp: SlabDecomposition) -> float:
    """Dot product summed chunk-by-chunk in rank order (the oracle for
    the distributed reductions)."""
    total = 0.0
    for lo, hi in decomp.ranges:
        total += float(np.dot(a[lo:hi].ravel(), b[lo:hi].ravel()))
    return total


def reference_cg(b: np.ndarray, iterations: int, num_chunks: int = 1) -> np.ndarray:
    """Single-array CG with chunk-ordered reductions.

    ``num_chunks`` must equal the distributed run's rank count for
    bit-exact comparison.
    """
    decomp = SlabDecomposition(b.shape, num_chunks)
    x = np.zeros_like(b)
    r = np.array(b)
    r[0] = r[-1] = 0.0
    p = np.array(r)
    q = np.zeros_like(b)
    rs = _chunk_dot(r, r, decomp)
    for _ in range(iterations):
        laplacian_apply(p, q)
        pq = _chunk_dot(p, q, decomp)
        alpha = rs / pq
        x[1:-1, 1:-1] += alpha * p[1:-1, 1:-1]
        r[1:-1, 1:-1] -= alpha * q[1:-1, 1:-1]
        rs_new = _chunk_dot(r, r, decomp)
        beta = rs_new / rs
        p[1:-1, 1:-1] = r[1:-1, 1:-1] + beta * p[1:-1, 1:-1]
        rs = rs_new
    return x


class _CGBase:
    """Shared setup: decomposition, per-rank vectors, metrics."""

    name: ClassVar[str] = ""

    def __init__(self, config: CGConfig) -> None:
        self.config = config
        self.decomp = SlabDecomposition(config.global_shape, config.num_gpus)
        self.tracer = Tracer()
        self.ctx = MultiGPUContext(
            config.node.scaled_to(config.num_gpus), config.cost, self.tracer
        )
        self.halo_nbytes = self.decomp.halo_elements * 8
        #: per-rank dicts of local vectors (p has halos; others interior-sized)
        self.vecs: list[dict[str, np.ndarray]] | None = None
        #: globally reduced scalars, one slot per rank (rank-local copies)
        self.rs: list[float] = [0.0] * config.num_gpus
        self.final_rs: list[float] = [0.0] * config.num_gpus

    # -- local math (no-ops in timing-only mode) -------------------------------

    def setup_vectors(self, p_storage_alloc=None) -> None:
        if not self.config.with_data:
            return
        b_global = default_rhs(self.config.global_shape, self.config.seed)
        slabs = scatter_slabs(b_global, self.decomp)
        self.vecs = []
        for rank in range(self.config.num_gpus):
            b = slabs[rank]
            b[0] = 0.0 if rank == 0 else b[0]
            r = np.array(b)
            r[0] = r[-1] = 0.0  # halo rows carry no residual
            vec = {
                "b": b,
                "x": np.zeros_like(b),
                "r": r,
                "q": np.zeros_like(b),
            }
            if p_storage_alloc is None:
                vec["p"] = np.array(r)
            else:
                view = p_storage_alloc(rank, b.shape)
                view[...] = r
                vec["p"] = view
            self.vecs.append(vec)

    def local_dot(self, rank: int, a_name: str, b_name: str) -> float:
        """Partial dot over this rank's interior rows."""
        if self.vecs is None:
            return 0.0
        a = self.vecs[rank][a_name][1:-1]
        b = self.vecs[rank][b_name][1:-1]
        return float(np.dot(a.ravel(), b.ravel()))

    def spmv(self, rank: int) -> None:
        if self.vecs is None:
            return
        laplacian_apply(self.vecs[rank]["p"], self.vecs[rank]["q"])

    def update_x_r(self, rank: int, alpha: float) -> None:
        if self.vecs is None:
            return
        v = self.vecs[rank]
        v["x"][1:-1, 1:-1] += alpha * v["p"][1:-1, 1:-1]
        v["r"][1:-1, 1:-1] -= alpha * v["q"][1:-1, 1:-1]

    def update_p(self, rank: int, beta: float) -> None:
        if self.vecs is None:
            return
        v = self.vecs[rank]
        v["p"][1:-1, 1:-1] = v["r"][1:-1, 1:-1] + beta * v["p"][1:-1, 1:-1]

    # -- compute-time charging -----------------------------------------------------

    def interior(self, rank: int) -> int:
        return self.decomp.interior_elements(rank)

    # -- result ------------------------------------------------------------------------

    def gather_solution(self) -> np.ndarray | None:
        if self.vecs is None:
            return None
        out = np.zeros(self.config.global_shape)
        for rank, (lo, hi) in enumerate(self.decomp.ranges):
            out[lo:hi] = self.vecs[rank]["x"][1:-1]
        return out

    def run(self) -> CGResult:
        self.setup()
        for rank in range(self.config.num_gpus):
            self.ctx.sim.spawn(self.host_program(rank), name=f"{self.name}.host{rank}")
        total = self.ctx.run()
        return CGResult(
            variant=self.name,
            config=self.config,
            total_time_us=total,
            comm_time_us=self.tracer.total("comm"),
            sync_time_us=self.tracer.total("sync"),
            api_time_us=self.tracer.total("api"),
            tracer=self.tracer,
            solution=self.gather_solution(),
            final_residual_norm2=self.final_rs[0] if self.config.with_data else None,
        )

    # subclass interface
    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def host_program(self, rank: int):  # pragma: no cover - abstract
        raise NotImplementedError


class BaselineCG(_CGBase):
    """CPU-controlled CG: discrete kernels, host halo copies, and an
    ``MPI_Allreduce`` for every reduction (the PETSc-style default)."""

    name = "cg_baseline"

    def setup(self) -> None:
        self.comm = Communicator(self.ctx)
        self.ctx.memory.enable_all_peer_access()
        self.setup_vectors()
        if self.vecs is not None:
            self.devbufs = [
                self.ctx.alloc(rank, "p", self.vecs[rank]["p"].shape, fill=None)
                for rank in range(self.config.num_gpus)
            ]
            for rank in range(self.config.num_gpus):
                self.devbufs[rank].data[...] = self.vecs[rank]["p"]
                self.vecs[rank]["p"] = self.devbufs[rank].data

    def _exchange_halos(self, rank: int, host, stream) -> Generator[Any, Any, None]:
        for side, nbr in self.decomp.neighbors(rank).items():
            if self.config.with_data:
                src_row = 1 if side == "top" else -2
                dst_row = -1 if side == "top" else 0
                dst_row = dst_row % self.devbufs[nbr].shape[0]
                yield from host.memcpy_async(
                    stream, self.devbufs[nbr], dst_row,
                    self.devbufs[rank], src_row % self.devbufs[rank].shape[0],
                    name=f"halo_{side}",
                )
            else:
                yield from host.memcpy_async_modeled(
                    stream, rank, nbr, self.halo_nbytes, name=f"halo_{side}"
                )

    def host_program(self, rank: int) -> Generator[Any, Any, None]:
        host = self.ctx.host(rank)
        stream = self.ctx.stream(rank, "stream")
        elements = self.interior(rank)
        blocks = max(1, elements // 1024)
        cost = self.config.cost

        def kernel(work_elements: float, fn, name: str):
            def body(dev):
                yield from dev.compute(int(work_elements), name=name)
                fn()
            return body

        # initial residual reduction
        partial = self.local_dot(rank, "r", "r")
        rs = yield from self.comm.allreduce(rank, partial)
        self.rs[rank] = rs

        for _ in range(self.config.iterations):
            # ① halo exchange of p + SpMV kernel
            yield from self._exchange_halos(rank, host, stream)
            yield from host.launch(
                stream, KernelSpec("spmv", blocks=blocks),
                kernel(elements, lambda: self.spmv(rank), "spmv"),
            )
            # ② local p.q kernel, sync, allreduce
            box: dict[str, float] = {}
            yield from host.launch(
                stream, KernelSpec("dot_pq", blocks=blocks),
                kernel(elements, lambda: box.__setitem__(
                    "pq", self.local_dot(rank, "p", "q")), "dot_pq"),
            )
            yield from host.stream_sync(stream)
            pq = yield from self.comm.allreduce(rank, box.get("pq", 1.0))
            alpha = self.rs[rank] / pq if pq else 0.0
            # ③ axpy updates + local r.r kernel, sync, allreduce
            yield from host.launch(
                stream, KernelSpec("axpy", blocks=blocks),
                kernel(elements * 3, lambda a=alpha: self.update_x_r(rank, a), "axpy"),
            )
            yield from host.launch(
                stream, KernelSpec("dot_rr", blocks=blocks),
                kernel(elements, lambda: box.__setitem__(
                    "rs", self.local_dot(rank, "r", "r")), "dot_rr"),
            )
            yield from host.stream_sync(stream)
            rs_new = yield from self.comm.allreduce(rank, box.get("rs", 1.0))
            beta = rs_new / self.rs[rank] if self.rs[rank] else 0.0
            # ④ direction update
            yield from host.launch(
                stream, KernelSpec("update_p", blocks=blocks),
                kernel(elements * 1.5, lambda b=beta: self.update_p(rank, b), "update_p"),
            )
            yield from host.stream_sync(stream)
            self.rs[rank] = rs_new
        self.final_rs[rank] = self.rs[rank]


class CPUFreeCG(_CGBase):
    """CPU-Free CG: one persistent kernel per GPU; halos move with
    ``putmem_signal`` and reductions with GPU-initiated partial-sum
    exchanges (signal-counted, rank-ordered summation)."""

    name = "cg_cpufree"

    def setup(self) -> None:
        self.nvshmem = NVSHMEMRuntime(self.ctx)
        P = self.config.num_gpus
        max_rows = max(self.decomp.local_shape(r)[0] for r in range(P))
        shape = (max_rows, self.config.global_shape[1])
        self._p_sym = self.nvshmem.malloc("p", shape, fill=0.0)
        #: double-buffered partial-sum slots: [parity][writer rank]
        self._partials = [
            self.nvshmem.malloc(f"partials{par}", (P,), fill=0.0) for par in (0, 1)
        ]
        self._halo_sig = self.nvshmem.malloc_signals("halo", 2)
        #: reduction arrival counters (ADD-signaled)
        self._red_sig = self.nvshmem.malloc_signals("reduce", 1)
        for pe in range(P):
            self._halo_sig.flag(pe, 0).set(1)
            self._halo_sig.flag(pe, 1).set(1)

        def p_alloc(rank: int, shape_local):
            return self._p_sym.local(rank)[: shape_local[0]]

        self.setup_vectors(p_storage_alloc=p_alloc)

    def _allreduce_device(self, nv, rank: int, round_no: int,
                          value: float) -> Generator[Any, Any, float]:
        """Device-side scalar allreduce: put my partial into every
        peer's slot, signal-count arrivals, sum in rank order."""
        P = self.config.num_gpus
        parity = round_no % 2
        partials = self._partials[parity]
        if self.config.with_data:
            partials.local(rank)[rank] = value
        for peer in range(P):
            if peer == rank:
                continue
            yield from nv.putmem_signal_nbi(
                partials if self.config.with_data else None, rank, value,
                self._red_sig, 0, 1, dest_pe=peer, nbytes=8,
                sig_op=SignalOp.ADD, name=f"reduce_r{round_no}",
            )
        yield from nv.signal_wait_until(
            self._red_sig, 0, WaitCond.GE, round_no * (P - 1),
        )
        if not self.config.with_data:
            return 1.0
        local = partials.local(rank)
        total = 0.0
        for r in range(P):
            total += float(local[r])
        return total

    def host_program(self, rank: int) -> Generator[Any, Any, None]:
        host = self.ctx.host(rank)
        stream = self.ctx.stream(rank, "stream")
        elements = self.interior(rank)
        neighbors = self.decomp.neighbors(rank)
        rows = self.decomp.local_shape(rank)[0]
        cg = self

        def body(dev, grid):
            nv = cg.nvshmem.device(rank, lane=dev.lane)
            round_no = 0

            def reduce(value):
                nonlocal round_no
                round_no += 1
                return cg._allreduce_device(nv, rank, round_no, value)

            rs = yield from reduce(cg.local_dot(rank, "r", "r"))
            for it in range(1, cg.config.iterations + 1):
                # ① halo exchange of p (iteration-parity semaphores)
                for side, nbr in neighbors.items():
                    if side == "top":
                        yield from nv.signal_wait_until(
                            cg._halo_sig, 0, WaitCond.GE, it)
                    else:
                        yield from nv.signal_wait_until(
                            cg._halo_sig, 1, WaitCond.GE, it)
                for side, nbr in neighbors.items():
                    src_row = 1 if side == "top" else rows - 2
                    nbr_rows = cg.decomp.local_shape(nbr)[0]
                    dst_row = nbr_rows - 1 if side == "top" else 0
                    sig_index = 1 if side == "top" else 0
                    values = (cg.vecs[rank]["p"][src_row]
                              if cg.config.with_data else 0.0)
                    yield from nv.putmem_signal_nbi(
                        cg._p_sym if cg.config.with_data else None, dst_row,
                        values, cg._halo_sig, sig_index, it + 1, dest_pe=nbr,
                        nbytes=cg.halo_nbytes, name=f"halo_{side}",
                    )
                # wait for *incoming* halos of this iteration before SpMV
                for side in neighbors:
                    sig = 0 if side == "top" else 1
                    yield from nv.signal_wait_until(
                        cg._halo_sig, sig, WaitCond.GE, it + 1)
                # ② SpMV + p.q reduction
                yield from dev.compute(elements, name="spmv")
                cg.spmv(rank)
                yield from dev.compute(elements, name="dot_pq")
                pq = yield from reduce(cg.local_dot(rank, "p", "q"))
                alpha = rs / pq if pq else 0.0
                # ③ axpy + r.r reduction
                yield from dev.compute(elements * 3, name="axpy")
                cg.update_x_r(rank, alpha)
                yield from dev.compute(elements, name="dot_rr")
                rs_new = yield from reduce(cg.local_dot(rank, "r", "r"))
                beta = rs_new / rs if rs else 0.0
                # ④ direction update
                yield from dev.compute(int(elements * 1.5), name="update_p")
                cg.update_p(rank, beta)
                rs = rs_new
            cg.final_rs[rank] = rs

        kernel = yield from launch_persistent(
            host, stream, "cg_persistent", [TBGroup("cg", 200, body)]
        )
        yield from host.event_sync(kernel.event)


_VARIANTS = {cls.name: cls for cls in (BaselineCG, CPUFreeCG)}


def run_cg(variant: str, config: CGConfig) -> CGResult:
    """Run the named CG variant (``cg_baseline`` or ``cg_cpufree``)."""
    try:
        cls = _VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown CG variant {variant!r}; known: {sorted(_VARIANTS)}") from None
    return cls(config).run()


def cg_point(variant: str, config: CGConfig) -> dict[str, float]:
    """Sweep worker: one timing run reduced to the numbers the CG claims
    of :mod:`repro.bench.paper` read, so a cached point holds no tracer:
    the per-iteration time and the share of the run its busiest GPU
    lane spends idle."""
    res = run_cg(variant, config)
    busiest = max(busy for lane, busy in res.tracer.busy_per_lane().items()
                  if lane.startswith("gpu"))
    return {"per_iteration_us": res.per_iteration_us,
            "device_idle_%": 100 - busiest / res.total_time_us * 100}
