"""Symmetric heap: PGAS allocations and signal words.

``nvshmem_malloc`` is collective: the same size is allocated on every
PE and the returned "pointer" is symmetric — indexing it with a PE id
names that PE's copy.  We model a symmetric allocation as a
:class:`SymmetricArray`: one :class:`~repro.hw.memory.DeviceBuffer`
per PE, all with :attr:`~repro.hw.memory.Storage.SYMMETRIC` storage
(remotely accessible without explicit peer enablement — the PGAS
contract).

Signals (the flag words of ``nvshmemx_putmem_signal`` and
``nvshmem_signal_wait_until``) are allocated separately as
:class:`SignalArray` because waiting on them must integrate with the
DES: each signal word is a :class:`repro.sim.Flag`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.hw.memory import DeviceBuffer, MemoryManager, Storage
from repro.sim import Flag, Simulator

__all__ = ["SignalArray", "SymmetricArray", "SymmetricHeap", "element_range"]

#: (shape, repr(index)) -> flat [lo, hi) covering interval; index
#: expressions in stencil code are a handful of slices reused every
#: iteration, so this stays tiny.
_RANGE_CACHE: dict[tuple[tuple[int, ...], str], tuple[int, int]] = {}


def element_range(shape: tuple[int, ...], index: Any) -> tuple[int, int]:
    """Flat element interval ``[lo, hi)`` covered by ``array[index]``.

    The covering interval of the selected elements in row-major order —
    conservative for strided selections (it may include skipped
    elements), exact for the contiguous row-block slices the stencil
    variants use.  Used by the sanitizer to express heap accesses as
    offset ranges into a symmetric allocation.
    """
    key = (shape, repr(index))
    cached = _RANGE_CACHE.get(key)
    if cached is not None:
        return cached
    total = int(np.prod(shape))
    selected = np.arange(total).reshape(shape)[index]
    if selected.size == 0:
        lo, hi = 0, 0
    else:
        lo = int(selected.min())
        hi = int(selected.max()) + 1
    _RANGE_CACHE[key] = (lo, hi)
    return lo, hi


class SymmetricArray:
    """A collective allocation: one same-shaped buffer per PE."""

    def __init__(self, name: str, buffers: list[DeviceBuffer]) -> None:
        if not buffers:
            raise ValueError("symmetric array needs at least one PE")
        shapes = {b.shape for b in buffers}
        if len(shapes) != 1:
            raise ValueError(f"asymmetric shapes across PEs: {shapes}")
        self.name = name
        self._buffers = buffers

    @property
    def n_pes(self) -> int:
        return len(self._buffers)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._buffers[0].shape

    @property
    def dtype(self) -> np.dtype:
        return self._buffers[0].dtype

    def on(self, pe: int) -> DeviceBuffer:
        """This allocation's buffer on PE ``pe``."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE {pe} out of range (n_pes={self.n_pes})")
        return self._buffers[pe]

    def local(self, pe: int) -> np.ndarray:
        """Shorthand for the backing NumPy array on PE ``pe``."""
        return self.on(pe).data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SymmetricArray {self.name} {self.shape} x{self.n_pes} PEs>"


class SignalArray:
    """Symmetric array of signal words (uint64 in real NVSHMEM).

    Each word on each PE is a DES :class:`~repro.sim.Flag` so device
    code can block on it (``signal_wait_until``).
    """

    def __init__(self, sim: Simulator, name: str, n_pes: int, n_signals: int) -> None:
        if n_pes <= 0 or n_signals <= 0:
            raise ValueError("n_pes and n_signals must be positive")
        self.name = name
        self.n_pes = n_pes
        self.n_signals = n_signals
        self._flags = [
            [Flag(sim, 0, name=f"{name}[pe{pe}][{i}]") for i in range(n_signals)]
            for pe in range(n_pes)
        ]

    def flag(self, pe: int, index: int) -> Flag:
        """The signal word ``index`` residing on PE ``pe``."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE {pe} out of range (n_pes={self.n_pes})")
        if not 0 <= index < self.n_signals:
            raise ValueError(f"signal {index} out of range (n_signals={self.n_signals})")
        return self._flags[pe][index]

    def value(self, pe: int, index: int) -> int:
        return self.flag(pe, index).value


class SymmetricHeap:
    """Allocator for symmetric memory across all PEs of a node."""

    def __init__(self, memory: MemoryManager, sim: Simulator, n_pes: int) -> None:
        if n_pes > memory.num_gpus:
            raise ValueError("more PEs than GPUs")
        self.memory = memory
        self.sim = sim
        self.n_pes = n_pes
        self._arrays: dict[str, SymmetricArray] = {}
        self._signals: dict[str, SignalArray] = {}

    def malloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        fill: float | None = 0.0,
        data: Sequence[np.ndarray | None] | None = None,
    ) -> SymmetricArray:
        """``nvshmem_malloc``: collective same-size allocation on all PEs.

        ``data``, one entry per PE, adopts each array that is not None as
        that PE's buffer (see :meth:`MemoryManager.alloc`); the other PEs
        allocate.
        """
        if name in self._arrays:
            raise ValueError(f"symmetric array {name!r} already allocated")
        if data is None:
            data = [None] * self.n_pes
        elif len(data) != self.n_pes:
            raise ValueError(f"symmetric array {name!r}: {len(data)} PE arrays "
                             f"for {self.n_pes} PEs")
        buffers = [
            self.memory.alloc(pe, f"sym:{name}", shape, dtype, Storage.SYMMETRIC, fill,
                              data=data[pe])
            for pe in range(self.n_pes)
        ]
        arr = SymmetricArray(name, buffers)
        self._arrays[name] = arr
        return arr

    def malloc_signals(self, name: str, n_signals: int) -> SignalArray:
        """Allocate ``n_signals`` symmetric signal words per PE.

        The paper's stencil uses four per PE: {top, bottom} × {ready,
        done} (§4.1.1).
        """
        if name in self._signals:
            raise ValueError(f"signal array {name!r} already allocated")
        sig = SignalArray(self.sim, name, self.n_pes, n_signals)
        self._signals[name] = sig
        return sig

    def free(self, arr: SymmetricArray) -> None:
        """Collective free."""
        if self._arrays.get(arr.name) is not arr:
            raise RuntimeError(f"symmetric array {arr.name!r} not owned by this heap")
        for pe in range(arr.n_pes):
            self.memory.free(arr.on(pe))
        del self._arrays[arr.name]

    def get(self, name: str) -> SymmetricArray:
        return self._arrays[name]

    @property
    def nbytes(self) -> int:
        """Payload bytes of every symmetric allocation on every PE
        (signal words excluded): what a checkpoint of the heap would
        write to NVMe/host."""
        return sum(arr.local(pe).nbytes for arr in self._arrays.values()
                   for pe in range(arr.n_pes))
