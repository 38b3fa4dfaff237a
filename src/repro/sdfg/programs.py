"""The paper's DaCe benchmark programs (§6.2) in the Python frontend.

``jacobi_1d``: 1-D slab decomposition, two neighbors, single-element
halos — the program of Listing 5.1, two relaxation phases per time
step (A→B, B→A) as in the npbench original.

``jacobi_2d``: 2-D process-grid decomposition, four neighbors; north/
south halos are contiguous rows, east/west halos are strided columns
(``MPI_Type_vector`` in the baseline, ``nvshmem_double_iput`` in the
CPU-Free lowering).

``cpufree_pipeline`` applies the transformation sequence of §6.2.1 to
either program; the untouched (``gpu_transform``-only) SDFG is the
baseline.
"""

from __future__ import annotations

from repro.sdfg.frontend import float64, int32, program
from repro.sdfg.graph import SDFG
from repro.sdfg.symbols import Sym
from repro.sdfg.transforms import (
    gpu_persistent_kernel,
    gpu_transform,
    map_fusion,
    mpi_to_nvshmem,
    nvshmem_array,
)
from repro.sdfg.validation import validate

__all__ = [
    "CONJUGATES_1D",
    "CONJUGATES_2D",
    "baseline_pipeline",
    "build_jacobi_1d_sdfg",
    "build_jacobi_2d_sdfg",
    "build_jacobi_3d_sdfg",
    "cpufree_pipeline",
]

N = Sym("N")
M = Sym("M")

#: peer-parameter conjugates: what I send to my west, they receive from
#: their east (SPMD symmetry used by MPIToNVSHMEM)
CONJUGATES_1D = {"nw": "ne", "ne": "nw"}
CONJUGATES_2D = {"nn": "ns", "ns": "nn", "nw": "ne", "ne": "nw"}


@program
def jacobi_1d(A: float64[N], B: float64[N], TSTEPS: int32, nw: int32, ne: int32):
    for t in range(1, TSTEPS):
        comm.Isend(A[1], nw, 2)          # noqa: F821 - frontend syntax
        comm.Isend(A[N - 2], ne, 3)      # noqa: F821
        comm.Irecv(A[0], nw, 3)          # noqa: F821
        comm.Irecv(A[N - 1], ne, 2)      # noqa: F821
        comm.Waitall()                   # noqa: F821
        B[1:-1] = (A[:-2] + A[1:-1] + A[2:]) / 3.0
        comm.Isend(B[1], nw, 4)          # noqa: F821
        comm.Isend(B[N - 2], ne, 5)      # noqa: F821
        comm.Irecv(B[0], nw, 5)          # noqa: F821
        comm.Irecv(B[N - 1], ne, 4)      # noqa: F821
        comm.Waitall()                   # noqa: F821
        A[1:-1] = (B[:-2] + B[1:-1] + B[2:]) / 3.0


@program
def jacobi_2d(A: float64[N, M], B: float64[N, M], TSTEPS: int32,
              nn: int32, ns: int32, nw: int32, ne: int32):
    for t in range(1, TSTEPS):
        comm.Isend(A[1, 1:-1], nn, 0)        # noqa: F821 - row, contiguous
        comm.Isend(A[N - 2, 1:-1], ns, 1)    # noqa: F821
        comm.Isend(A[1:-1, 1], nw, 2)        # noqa: F821 - column, strided
        comm.Isend(A[1:-1, M - 2], ne, 3)    # noqa: F821
        comm.Irecv(A[0, 1:-1], nn, 1)        # noqa: F821
        comm.Irecv(A[N - 1, 1:-1], ns, 0)    # noqa: F821
        comm.Irecv(A[1:-1, 0], nw, 3)        # noqa: F821
        comm.Irecv(A[1:-1, M - 1], ne, 2)    # noqa: F821
        comm.Waitall()                       # noqa: F821
        B[1:-1, 1:-1] = 0.25 * (A[:-2, 1:-1] + A[2:, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:])
        comm.Isend(B[1, 1:-1], nn, 4)        # noqa: F821
        comm.Isend(B[N - 2, 1:-1], ns, 5)    # noqa: F821
        comm.Isend(B[1:-1, 1], nw, 6)        # noqa: F821
        comm.Isend(B[1:-1, M - 2], ne, 7)    # noqa: F821
        comm.Irecv(B[0, 1:-1], nn, 5)        # noqa: F821
        comm.Irecv(B[N - 1, 1:-1], ns, 4)    # noqa: F821
        comm.Irecv(B[1:-1, 0], nw, 7)        # noqa: F821
        comm.Irecv(B[1:-1, M - 1], ne, 6)    # noqa: F821
        comm.Waitall()                       # noqa: F821
        A[1:-1, 1:-1] = 0.25 * (B[:-2, 1:-1] + B[2:, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:])


@program
def jacobi_3d(A: float64[N, M, M], B: float64[N, M, M], TSTEPS: int32,
              nw: int32, ne: int32):
    # z-axis slab decomposition: halo planes are contiguous memory
    # blocks (trailing axes fully spanned), so the CPU-Free lowering
    # uses nvshmemx_putmem_signal_nbi_block for them.
    for t in range(1, TSTEPS):
        comm.Isend(A[1, :, :], nw, 0)        # noqa: F821
        comm.Isend(A[N - 2, :, :], ne, 1)    # noqa: F821
        comm.Irecv(A[0, :, :], nw, 1)        # noqa: F821
        comm.Irecv(A[N - 1, :, :], ne, 0)    # noqa: F821
        comm.Waitall()                       # noqa: F821
        B[1:-1, 1:-1, 1:-1] = (
            A[:-2, 1:-1, 1:-1] + A[2:, 1:-1, 1:-1]
            + A[1:-1, :-2, 1:-1] + A[1:-1, 2:, 1:-1]
            + A[1:-1, 1:-1, :-2] + A[1:-1, 1:-1, 2:]
        ) / 6.0
        comm.Isend(B[1, :, :], nw, 2)        # noqa: F821
        comm.Isend(B[N - 2, :, :], ne, 3)    # noqa: F821
        comm.Irecv(B[0, :, :], nw, 3)        # noqa: F821
        comm.Irecv(B[N - 1, :, :], ne, 2)    # noqa: F821
        comm.Waitall()                       # noqa: F821
        A[1:-1, 1:-1, 1:-1] = (
            B[:-2, 1:-1, 1:-1] + B[2:, 1:-1, 1:-1]
            + B[1:-1, :-2, 1:-1] + B[1:-1, 2:, 1:-1]
            + B[1:-1, 1:-1, :-2] + B[1:-1, 1:-1, 2:]
        ) / 6.0


def build_jacobi_1d_sdfg() -> SDFG:
    return jacobi_1d.to_sdfg()


def build_jacobi_2d_sdfg() -> SDFG:
    return jacobi_2d.to_sdfg()


def build_jacobi_3d_sdfg() -> SDFG:
    return jacobi_3d.to_sdfg()


def baseline_pipeline(sdfg: SDFG) -> SDFG:
    """The §6.2.1 baseline: GPU port + auto-optimizer (MapFusion)."""
    gpu_transform(sdfg)
    map_fusion(sdfg)
    validate(sdfg)
    return sdfg


def cpufree_pipeline(
    sdfg: SDFG,
    conjugates: dict[str, str],
    *,
    nbi: bool = True,
    relax_barriers: bool = True,
    specialize_comm: bool = False,
) -> SDFG:
    """The §6.2.1 CPU-Free pipeline (on top of the baseline passes).

    ``relax_barriers=False`` keeps a grid barrier after every state
    (§5.1's conservative schedule); ``specialize_comm=True``
    additionally enables the §5.4 future-work thread-block
    specialization for generated code.
    """
    gpu_transform(sdfg)
    map_fusion(sdfg)
    mpi_to_nvshmem(sdfg, conjugates, nbi=nbi)
    nvshmem_array(sdfg)
    gpu_persistent_kernel(sdfg, relax_barriers=relax_barriers,
                          specialize_comm=specialize_comm)
    validate(sdfg)
    return sdfg
