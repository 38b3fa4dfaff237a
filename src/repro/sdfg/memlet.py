"""Memlets: data-movement descriptors on SDFG edges.

A memlet names an array and a *subset* (per-dimension index or range)
and can answer the two questions the NVSHMEM lowering needs (§5.3.1):

- how many elements move (``volume``), and
- what the access *kind* is — ``SCALAR`` (single element, lowered to
  ``nvshmem_TYPE_p``), ``CONTIGUOUS`` (one memory block, lowered to
  ``putmem``-family), or ``STRIDED`` (lowered to ``nvshmem_TYPE_iput``
  plus explicit quiet + signal).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Union

from repro.sdfg.symbols import Expr, evaluate_expr, expr_to_str, free_symbols

__all__ = ["AccessKind", "Memlet", "Range"]


class AccessKind(enum.Enum):
    SCALAR = "scalar"
    CONTIGUOUS = "contiguous"
    STRIDED = "strided"


@dataclass(frozen=True)
class Range:
    """Half-open index range ``[start, stop)`` (step 1, like the
    paper's benchmarks).  Bounds may be negative (Python semantics)
    or symbolic."""

    start: Expr
    stop: Expr

    def __repr__(self) -> str:
        stop = "" if isinstance(self.stop, _Full) else expr_to_str(self.stop)
        return f"{expr_to_str(self.start)}:{stop}"


#: one dimension of a subset: a single index or a range
Dim = Union[int, "Expr", Range]


def _resolve_index(value: Expr, size: int, bindings: dict[str, int]) -> int:
    idx = evaluate_expr(value, bindings)
    return idx + size if idx < 0 else idx


@dataclass(frozen=True)
class Memlet:
    """``data[subset]`` with an access direction implied by the edge."""

    data: str
    subset: tuple[Dim, ...]

    @staticmethod
    def from_slices(data: str, index: Any) -> "Memlet":
        """Build from Python indexing syntax (ints / slices / tuples)."""
        if not isinstance(index, tuple):
            index = (index,)
        dims: list[Dim] = []
        for dim in index:
            if isinstance(dim, slice):
                if dim.step not in (None, 1):
                    raise ValueError("only unit-step slices supported")
                start = 0 if dim.start is None else dim.start
                stop = dim.stop  # None = full axis, resolved at evaluation
                dims.append(Range(start, stop if stop is not None else _FULL))
            else:
                dims.append(dim)
        return Memlet(data, tuple(dims))

    # -- geometry ---------------------------------------------------------------

    def resolve(self, shape: tuple[int, ...], bindings: dict[str, int]) -> tuple:
        """Concrete NumPy index tuple for this subset."""
        if len(self.subset) != len(shape):
            raise ValueError(
                f"memlet {self} has {len(self.subset)} dims for array of shape {shape}"
            )
        out: list[Any] = []
        for dim, size in zip(self.subset, shape):
            if isinstance(dim, Range):
                start = _resolve_index(dim.start, size, bindings)
                stop = size if dim.stop is _FULL else _resolve_index(dim.stop, size, bindings)
                out.append(slice(start, stop))
            else:
                out.append(_resolve_index(dim, size, bindings))
        return tuple(out)

    def dim_lengths(self, shape: tuple[int, ...], bindings: dict[str, int]) -> list[int]:
        """Length per dimension (1 for scalar dims)."""
        lengths = []
        for dim, size in zip(self.subset, shape):
            if isinstance(dim, Range):
                start = _resolve_index(dim.start, size, bindings)
                stop = size if dim.stop is _FULL else _resolve_index(dim.stop, size, bindings)
                if stop < start:
                    raise ValueError(f"empty/negative range in memlet {self}")
                lengths.append(stop - start)
            else:
                lengths.append(1)
        return lengths

    def volume(self, shape: tuple[int, ...], bindings: dict[str, int]) -> int:
        """Number of elements this memlet moves."""
        total = 1
        for n in self.dim_lengths(shape, bindings):
            total *= n
        return total

    def access_kind(self, shape: tuple[int, ...], bindings: dict[str, int]) -> AccessKind:
        """Classify for NVSHMEM specialization (paper §5.3.1).

        A subset is CONTIGUOUS iff it covers one contiguous block of
        row-major memory: after the first ranged dimension every later
        dimension must span its full axis.  A single sliced element
        range of length 1 still counts as SCALAR.
        """
        lengths = self.dim_lengths(shape, bindings)
        if all(n == 1 for n in lengths):
            return AccessKind.SCALAR
        ranged = [i for i, dim in enumerate(self.subset)
                  if isinstance(dim, Range) and lengths[i] > 1]
        first = ranged[0]
        for i in range(first + 1, len(self.subset)):
            dim = self.subset[i]
            size = shape[i]
            if not isinstance(dim, Range):
                return AccessKind.STRIDED
            start = _resolve_index(dim.start, size, bindings)
            stop = size if dim.stop is _FULL else _resolve_index(dim.stop, size, bindings)
            if start != 0 or stop != size:
                return AccessKind.STRIDED
        return AccessKind.CONTIGUOUS

    def free_symbols(self) -> set[str]:
        """Names of the symbols the subset's indices and bounds read."""
        names: set[str] = set()
        for dim in self.subset:
            for bound in ((dim.start, dim.stop) if isinstance(dim, Range) else (dim,)):
                names |= free_symbols(bound)
        return names

    def __repr__(self) -> str:
        dims = []
        for dim in self.subset:
            if isinstance(dim, Range):
                dims.append(repr(dim))
            else:
                dims.append(expr_to_str(dim))
        return f"{self.data}[{', '.join(dims)}]"


class _Full:
    """Sentinel: range extends to the end of the axis.  Copies and
    pickles resolve to the one instance, so ``is _FULL`` holds in a
    copied SDFG too."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<end>"

    def __reduce__(self) -> str:
        return "_FULL"


_FULL = _Full()
