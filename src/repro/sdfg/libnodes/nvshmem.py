"""NVSHMEM library nodes — the main compiler contribution (§5.3).

:class:`PutmemSignal` supersedes ``MPI_Isend`` and :class:`SignalWait`
supersedes ``MPI_Recv``/``Irecv`` with flag-based point-to-point
synchronization.  Expansion implements the shape dispatch of §5.3.1:

==============  ======================================================
subset kind      generated operations
==============  ======================================================
CONTIGUOUS       ``nvshmemx_putmem_signal_nbi_block`` (composite —
                 data, then signal, ordered)
STRIDED          ``nvshmem_TYPE_iput`` + ``nvshmem_quiet()`` +
                 ``nvshmemx_signal_op`` (no combined signaling variant
                 exists for strided ops)
SCALAR           ``nvshmem_TYPE_p`` + ``nvshmem_quiet()`` +
                 ``nvshmemx_signal_op``
==============  ======================================================

The signal value is a symbolic expression in the enclosing loop
variable (the iteration-parity semaphore of §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sdfg.memlet import AccessKind, Memlet
from repro.sdfg.nodes import LibraryNode
from repro.sdfg.symbols import Expr, expr_to_str

__all__ = ["NVSHMEMExpansion", "PutmemSignal", "SignalWait"]


@dataclass(frozen=True)
class NVSHMEMExpansion:
    """Concrete lowering of one NVSHMEM node."""

    kind: str            #: "putmem_signal_nbi" | "iput" | "p" | "signal_wait"
    ops: tuple[str, ...]  #: generated call sequence, in order
    access: AccessKind | None


def _concrete_shape(sdfg: Any, data: str, bindings: dict[str, int]) -> tuple[int, ...]:
    desc = sdfg.arrays[data]
    return tuple(s if isinstance(s, int) else bindings[s.name] for s in desc.shape)


class PutmemSignal(LibraryNode):
    """``nvshmem.PutmemSignal(dst_view, src_view, flag, value, pe)``.

    Writes the local ``src`` subset into the remote PE's ``dst``
    subset and updates signal word ``flag_index`` there to ``value``
    (delivered after the data).  ``nbi=False`` selects the blocking
    variant (ablation §5.3.2).

    ``flag_index=None`` lowers to a bare (unsignaled) put: the data
    moves, but nothing at the destination learns it arrived.  That is
    legal IR — some producers genuinely have no consumer to notify —
    but it is exactly the shape the communication lint
    (:mod:`repro.sdfg.lint`) flags when the destination is read on the
    next loop iteration.
    """

    library = "NVSHMEM"

    #: valid values for ``implementation``
    IMPLEMENTATIONS = ("auto", "mapped")

    def __init__(
        self,
        dst: Memlet,
        src: Memlet,
        flag_index: int | None,
        signal_value: Expr,
        pe: str | int,
        *,
        nbi: bool = True,
        implementation: str = "auto",
    ) -> None:
        super().__init__(f"PutmemSignal(flag={flag_index})")
        if implementation not in self.IMPLEMENTATIONS:
            raise ValueError(
                f"unknown implementation {implementation!r}; "
                f"choose from {self.IMPLEMENTATIONS}"
            )
        self.dst = dst
        self.src = src
        self.flag_index = flag_index
        self.signal_value = signal_value
        self.pe = pe
        self.nbi = nbi
        self.implementation = implementation

    def expand(self, sdfg: Any, bindings: dict[str, int]) -> NVSHMEMExpansion:
        shape = _concrete_shape(sdfg, self.src.data, bindings)
        kind = self.src.access_kind(shape, bindings)
        signaled = self.flag_index is not None
        tail = ("quiet", "signal_op") if signaled else ("quiet",)
        if self.implementation == "mapped" and kind is not AccessKind.SCALAR:
            # §5.3.2 Mapped specialization: per-element p across threads
            return NVSHMEMExpansion("p_mapped", ("p_mapped", *tail), kind)
        if kind is AccessKind.CONTIGUOUS:
            if signaled:
                op = "putmem_signal_nbi" if self.nbi else "putmem_signal"
            else:
                op = "putmem_nbi" if self.nbi else "putmem"
            return NVSHMEMExpansion(op, (op,), kind)
        if kind is AccessKind.STRIDED:
            return NVSHMEMExpansion("iput", ("iput", *tail), kind)
        return NVSHMEMExpansion("p", ("p", *tail), kind)

    def __repr__(self) -> str:
        sig = (
            f"sig[{self.flag_index}]={expr_to_str(self.signal_value)}"
            if self.flag_index is not None
            else "unsignaled"
        )
        return f"<PutmemSignal {self.src!r} -> pe:{self.pe} {self.dst!r} {sig}>"


class SignalWait(LibraryNode):
    """``nvshmem.SignalWait(flag, value)`` — local
    ``nvshmem_signal_wait_until(flag, NVSHMEM_CMP_GE, value)``."""

    library = "NVSHMEM"

    def __init__(self, flag_index: int, value: Expr) -> None:
        super().__init__(f"SignalWait(flag={flag_index})")
        self.flag_index = flag_index
        self.value = value

    def expand(self, sdfg: Any, bindings: dict[str, int]) -> NVSHMEMExpansion:
        return NVSHMEMExpansion("signal_wait", ("signal_wait_until",), None)

    def __repr__(self) -> str:
        return f"<SignalWait sig[{self.flag_index}] >= {expr_to_str(self.value)}>"
