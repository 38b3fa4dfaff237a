"""Benchmark harness: one experiment definition per paper figure.

:mod:`repro.bench.figures` holds the workload generators, parameter
sweeps, and headline-metric computation for every evaluation figure
(2.2, 6.1, 6.2, 6.3); :mod:`repro.bench.report` renders them as
paper-style tables; :mod:`repro.bench.paper` states every paper claim
and design ablation as one banded table.
"""

from repro.bench.figures import (
    FigureData,
    Row,
    fig22_motivation,
    fig61_weak_2d,
    fig61_weak_2d_all,
    fig62_3d,
    fig63a_dace_1d,
    fig63b_dace_2d,
    weak_shape_2d,
    weak_shape_3d,
)
from repro.bench.report import render_figure

__all__ = [
    "FigureData",
    "Row",
    "fig22_motivation",
    "fig61_weak_2d",
    "fig61_weak_2d_all",
    "fig62_3d",
    "fig63a_dace_1d",
    "fig63b_dace_2d",
    "render_figure",
    "weak_shape_2d",
    "weak_shape_3d",
]
