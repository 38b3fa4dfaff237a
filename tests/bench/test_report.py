"""Tests for the table renderer's edge cases."""

from repro.bench import FigureData, Row, render_figure


def test_missing_cells_render_dashes():
    fig = FigureData("X", "sparse", [Row("a", 1, 10.0), Row("b", 2, 20.0)])
    text = render_figure(fig)
    assert "-" in text
    lines = [l for l in text.splitlines() if l.strip().startswith(("a", "b"))]
    assert len(lines) == 2


def test_comm_section_omitted_when_all_zero():
    fig = FigureData("X", "no comm", [Row("a", 1, 10.0)])
    assert "comm us/iter" not in render_figure(fig)


def test_comm_section_present_when_nonzero():
    fig = FigureData("X", "with comm",
                     [Row("a", 1, 10.0, comm_us_per_iter=3.0)])
    assert "comm us/iter" in render_figure(fig)


def test_series_sorted_alphabetically():
    fig = FigureData("X", "order", [Row("zeta", 1, 1.0), Row("alpha", 1, 2.0)])
    text = render_figure(fig)
    assert text.index("alpha") < text.index("zeta")


def test_gpu_columns_sorted():
    fig = FigureData("X", "cols",
                     [Row("a", 8, 1.0), Row("a", 1, 1.0), Row("a", 4, 1.0)])
    header = render_figure(fig).splitlines()[1]
    assert header.index("1 GPU") < header.index("4 GPU") < header.index("8 GPU")


def test_headlines_formatting():
    """At least four significant digits, never fewer than one decimal."""
    fig = FigureData("X", "h", [Row("a", 1, 1.0)],
                     headlines={"alpha_%": 1.0, "beta_%": -2.34, "fraction": 0.98317,
                                "zero": 0.0, "growth_%": 387.2208, "big": 12345.67})
    lines = render_figure(fig).splitlines()
    assert lines[lines.index("headlines:") + 1:] == [
        "  alpha_% = 1.000",
        "  beta_% = -2.340",
        "  fraction = 0.9832",
        "  zero = 0.000",
        "  growth_% = 387.2",
        "  big = 12345.7",
    ]
