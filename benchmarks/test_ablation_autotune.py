"""Ablation: the §4.1.2 closed-form TB split vs empirical autotuning.

If the paper's formula is right, an exhaustive search over boundary
block counts should find (nearly) the same split.  The autotuner
(`repro.tune.autotune_tb_split`) runs the search on the simulator.
"""

from repro.tune import autotune_tb_split
from repro.stencil import StencilConfig


def test_formula_near_optimal_across_regimes(run_once, benchmark):
    def experiment():
        regimes = {
            "balanced_2d": StencilConfig(
                global_shape=(2048 + 2, 2048 + 2), num_gpus=8,
                iterations=15, with_data=False),
            "unbalanced_3d": StencilConfig(
                global_shape=(4 * 8 + 2, 1024 + 2, 1024 + 2), num_gpus=8,
                iterations=15, with_data=False),
            "small_2d": StencilConfig(
                global_shape=(8 * 32 + 2, 256 + 2), num_gpus=8,
                iterations=15, with_data=False),
        }
        return {name: autotune_tb_split(cfg, iterations=15)
                for name, cfg in regimes.items()}

    reports = run_once(experiment)
    print(f"\n{'regime':>15} {'formula':>8} {'best':>6} {'regret':>8}")
    for name, report in reports.items():
        print(f"{name:>15} {report.formula.boundary_tb_per_side:>8} "
              f"{report.best.boundary_tb_per_side:>6} "
              f"{report.formula_regret_percent:>7.1f}%")
        benchmark.extra_info[f"{name}_regret_%"] = report.formula_regret_percent
    # the closed form stays within 25% of the empirical optimum everywhere
    assert all(r.formula_regret_percent < 25.0 for r in reports.values())
