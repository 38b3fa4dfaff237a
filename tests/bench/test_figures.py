"""Unit tests for the benchmark harness (small iteration counts)."""

import pytest

from repro.bench import (
    FigureData,
    Row,
    fig61_weak_2d,
    fig63a_dace_1d,
    render_figure,
    weak_shape_2d,
    weak_shape_3d,
)
from repro.bench.figures import SIZE_CLASSES_2D, STENCIL_VARIANTS
from repro.perf import SweepRunner, use_runner


class TestShapes:
    def test_weak_shape_keeps_per_gpu_chunk_constant(self):
        for label in SIZE_CLASSES_2D.values():
            per_gpu = []
            for gpus in (1, 2, 4, 8):
                shape = weak_shape_2d(label, gpus)
                interior = (shape[0] - 2) * (shape[1] - 2)
                per_gpu.append(interior // gpus)
            assert len(set(per_gpu)) == 1

    def test_weak_shape_at_8_matches_label(self):
        shape = weak_shape_2d(2048, 8)
        assert shape == (2050, 2050)

    def test_weak_shape_3d(self):
        shape = weak_shape_3d(512, 8)
        assert shape == (514, 514, 514)

    def test_too_small_label_rejected(self):
        with pytest.raises(ValueError):
            weak_shape_2d(16, 4)


class TestFigureData:
    @pytest.fixture
    def fig(self):
        rows = [
            Row("a", 1, 10.0), Row("a", 2, 12.0),
            Row("b", 1, 20.0), Row("b", 2, 30.0),
        ]
        return FigureData("T", "test", rows)

    def test_series_filter(self, fig):
        assert len(fig.series("a")) == 2

    def test_at_lookup(self, fig):
        assert fig.at("b", 2).per_iteration_us == 30.0
        with pytest.raises(KeyError):
            fig.at("c", 1)

    def test_speedup_formula(self, fig):
        # (30 - 12) / 30 = 60%
        assert fig.speedup("a", "b", 2) == pytest.approx(60.0)

    def test_render_contains_all_series(self, fig):
        text = render_figure(fig)
        assert "a" in text and "b" in text and "Figure T" in text

    def test_render_includes_headlines(self, fig):
        fig.headlines = {"metric_%": 12.345}
        assert "metric_% = 12.3" in render_figure(fig)


class TestSweeps:
    def test_fig61_small_structure(self):
        fig = fig61_weak_2d("small", gpu_counts=(1, 2), iterations=5)
        assert {r.series for r in fig.rows} == set(STENCIL_VARIANTS)
        assert {r.x for r in fig.rows} == {1, 2}
        assert set(fig.headlines) >= {
            "speedup_vs_nvshmem_%", "speedup_vs_copy_%",
            "perks_vs_best_baseline_%",
        }

    def test_fig61_unknown_size_rejected(self):
        with pytest.raises(KeyError):
            fig61_weak_2d("gigantic")

    def test_fig63a_structure(self):
        fig = fig63a_dace_1d(gpu_counts=(1, 2), per_gpu_n=1000, tsteps=3)
        assert {r.series for r in fig.rows} == {"dace_baseline", "dace_cpufree"}
        assert "total_improvement_%" in fig.headlines
        assert "comm_improvement_%" in fig.headlines

    def test_rows_have_positive_times(self):
        fig = fig61_weak_2d("small", gpu_counts=(2,), iterations=5)
        for row in fig.rows:
            assert row.per_iteration_us > 0


class TestSharesAreNotClamped:
    """A share above 1 (or 100%) is a model anomaly; the figures report
    it as measured, and the claim band's upper edge turns it into a
    miss."""

    def test_slower_no_compute_run_reports_fraction_above_1(self, monkeypatch):
        from types import SimpleNamespace

        from repro.bench import figures

        def run_variant(variant, config):
            total = 120.0 if config.no_compute else 100.0
            return SimpleNamespace(total_time_us=total,
                                   per_iteration_us=total / config.iterations,
                                   comm_time_us=0.0, overlap_ratio=0.0)

        monkeypatch.setattr(figures, "run_variant", run_variant)
        with use_runner(SweepRunner(batch=False)):
            _, fig_b = figures.fig22_motivation(iterations=4)
        assert fig_b.headlines["baseline_overlap_comm_fraction"] == pytest.approx(1.2)
        assert fig_b.at("cpufree", 8).comm_us_per_iter == pytest.approx(30.0)

    def test_comm_above_total_reports_share_above_100(self, monkeypatch):
        from repro.bench import figures

        def dace_point(program, kind, decomp, tsteps, *rest):
            return Row(f"dace_{kind}", decomp.ranks, 10.0, comm_us_per_iter=12.0)

        monkeypatch.setattr(figures, "_dace_point", dace_point)
        fig = figures.fig63b_dace_2d(gpu_counts=(1, 8))
        assert fig.headlines["baseline_comm_fraction_%"] == pytest.approx(120.0)


class TestCLI:
    def test_main_runs_selected_figure(self, capsys):
        from repro.bench.__main__ import main

        assert main(["2.2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2.2a" in out

    def test_main_rejects_unknown_figure(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["9.9"])

    def test_main_writes_report_file(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out_file = tmp_path / "report.txt"
        assert main(["2.2", "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_file)]) == 0
        assert "Figure 2.2a" in out_file.read_text()


class TestAutoOverlapFigure:
    def test_win_loss_headlines(self):
        from repro.bench.figures import fig_auto_overlap

        fig = fig_auto_overlap(sizes=("small",), gpu_counts=(1, 2),
                               iterations=4)
        assert len(fig.rows) == 4  # 2 variants x 2 gpu counts
        total = fig.headlines["wins"] + fig.headlines["ties"] \
            + fig.headlines["losses"]
        assert total == 2
        # small domains degenerate to cpufree's schedule -> never a loss
        assert fig.headlines["losses"] == 0
        assert fig.headlines["win_or_tie_fraction"] == 1.0

    def test_series_carry_size_label(self):
        from repro.bench.figures import fig_auto_overlap

        fig = fig_auto_overlap(sizes=("small",), gpu_counts=(1,),
                               iterations=4)
        assert {r.series for r in fig.rows} \
            == {"cpufree/small", "auto_overlap/small"}

    def test_win_loss_rule_treats_float_noise_as_a_tie(self):
        from repro.bench.figures import Row, win_loss

        def row(us):
            return Row("x", 8, us)

        assert win_loss(row(100.0), row(99.0)) == "win"
        assert win_loss(row(100.0), row(100.0 + 1e-8)) == "tie"
        assert win_loss(row(100.0), row(100.0 - 1e-8)) == "tie"
        assert win_loss(row(100.0), row(101.0)) == "loss"


class TestListFigures:
    def test_lists_all_figures_without_running(self, capsys):
        from repro.bench.__main__ import EXTRA_FIGURES, FIGURES, main

        assert main(["--list-figures"]) == 0
        out = capsys.readouterr().out
        for figure_id in (*FIGURES, *EXTRA_FIGURES):
            assert figure_id in out
        assert "auto_overlap" in out
        assert "opt-in" in out

    def test_catalog_covers_every_figure(self):
        from repro.bench.__main__ import EXTRA_FIGURES, FIGURE_CATALOG, FIGURES

        assert set(FIGURE_CATALOG) == set(FIGURES) | set(EXTRA_FIGURES)
        for title, variants, points in FIGURE_CATALOG.values():
            assert points > 0 and variants

    def test_point_counts_match_definitions(self):
        from repro.bench.__main__ import FIGURE_CATALOG
        from repro.bench.figures import DEFAULT_GPU_COUNTS

        assert FIGURE_CATALOG["6.1"][2] \
            == 3 * len(DEFAULT_GPU_COUNTS) * len(STENCIL_VARIANTS)
        assert FIGURE_CATALOG["auto_overlap"][2] \
            == 3 * len(DEFAULT_GPU_COUNTS) * 2
