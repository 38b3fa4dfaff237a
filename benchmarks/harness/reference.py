"""Independent NumPy references the harness checks outputs against.

Written here, outside the program, from the update formulas the paper
states; nothing is imported from ``repro``.  Every distributed result
in the benchmark must equal these bit for bit: the formulas use the
same expression order as the program's kernels, so floating-point
results agree exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np


def jacobi_fixed_ring(u0: np.ndarray, iterations: int) -> np.ndarray:
    """Jacobi sweeps of the stencil apps (2D 5-point, 3D 7-point) with a
    Dirichlet ring: the outermost layer never changes."""
    u = np.array(u0)
    for _ in range(iterations):
        nxt = np.array(u)
        if u.ndim == 2:
            nxt[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                                      + u[1:-1, :-2] + u[1:-1, 2:])
        else:
            nxt[1:-1, 1:-1, 1:-1] = (
                u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
                + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
                + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]) / 6.0
        u = nxt
    return u


def _relax(src: np.ndarray, dst: np.ndarray) -> None:
    """One relaxation phase of the DaCe Jacobi programs, ``src -> dst``."""
    if src.ndim == 1:
        dst[1:-1] = (src[:-2] + src[1:-1] + src[2:]) / 3.0
    elif src.ndim == 2:
        dst[1:-1, 1:-1] = 0.25 * (src[:-2, 1:-1] + src[2:, 1:-1]
                                  + src[1:-1, :-2] + src[1:-1, 2:])
    else:
        dst[1:-1, 1:-1, 1:-1] = (
            src[:-2, 1:-1, 1:-1] + src[2:, 1:-1, 1:-1]
            + src[1:-1, :-2, 1:-1] + src[1:-1, 2:, 1:-1]
            + src[1:-1, 1:-1, :-2] + src[1:-1, 1:-1, 2:]) / 6.0


def jacobi_program(u0: np.ndarray, tsteps: int) -> np.ndarray:
    """The DaCe ``jacobi_{1,2,3}d`` programs: ``TSTEPS - 1`` time steps
    of two phases each (A -> B, B -> A), both arrays starting as ``u0``;
    returns A."""
    a, b = np.array(u0), np.array(u0)
    for _ in range(1, tsteps):
        _relax(a, b)
        _relax(b, a)
    return a


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (``fsum``: exact, so the same
    values always give the same bits)."""
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def report_sections(report: str) -> list[str]:
    """Split a figure report into its per-figure tables (the report
    separates figures with one blank line and has none inside them)."""
    return report.rstrip("\n").split("\n\n")
