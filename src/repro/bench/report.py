"""Paper-style table rendering for figure data."""

from __future__ import annotations

import math

from repro.bench.figures import FigureData

__all__ = ["render_figure"]


def _headline(value: float) -> str:
    """At least four significant digits, and never fewer than one decimal."""
    magnitude = math.floor(math.log10(abs(value))) if value else 0
    return f"{value:.{max(1, 3 - magnitude)}f}"


def render_figure(fig: FigureData) -> str:
    """Render one figure's rows as an aligned text table plus its
    headline metrics (the numbers quoted in the paper's prose)."""
    lines = [f"Figure {fig.figure}: {fig.title}"]
    series_names = sorted({r.series for r in fig.rows})
    xs = sorted({r.x for r in fig.rows})
    header = f"{'series':>24} " + " ".join(f"{x:>4} GPU" for x in xs)
    lines.append(header)
    lines.append("-" * len(header))
    for name in series_names:
        cells = []
        for x in xs:
            try:
                row = fig.at(name, x)
                cells.append(f"{row.per_iteration_us:8.2f}")
            except KeyError:
                cells.append(f"{'-':>8}")
        lines.append(f"{name:>24} " + " ".join(cells))
    if any(r.comm_us_per_iter for r in fig.rows):
        lines.append(f"{'-- comm us/iter --':>24}")
        for name in series_names:
            cells = []
            for x in xs:
                try:
                    row = fig.at(name, x)
                    cells.append(f"{row.comm_us_per_iter:8.2f}")
                except KeyError:
                    cells.append(f"{'-':>8}")
            lines.append(f"{name:>24} " + " ".join(cells))
    if fig.headlines:
        lines.append("headlines:")
        for key, value in fig.headlines.items():
            lines.append(f"  {key} = {_headline(value)}")
    return "\n".join(lines)
