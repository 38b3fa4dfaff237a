"""The paper's quantitative claims, and the paper-vs-measured verdict.

Every quantitative statement the reproduction stands behind is one
:class:`Claim` row of :data:`PAPER_CLAIMS`: the §6 figure headlines,
the qualitative trends around them (orderings, growth with GPU count)
as ratios, and the design ablations of §4, §4.1.2, §5.1, §5.3.2 and
§5.4 plus the Conjugate Gradient extension.  :func:`evaluate_claims`
reads the figures that ``python -m repro.bench`` renders, maps the
ablation and CG experiments through the active sweep runner (workers
shared with the figures where they exist, so ``--jobs`` and the result
cache apply), and checks each row against its band; ``python -m
repro.bench --paper`` prints the report followed by the verdict table
and exits non-zero on any miss, and the tier-1 suite evaluates the
same table from the same pass.

Tolerances encode the reproduction contract: we match *shape* (sign,
ordering, rough factor), not testbed-absolute numbers, so bands are
generous but directional — a claim fails if the effect disappears or
flips, not if it is 10 points off.  Open bounds are ±inf; rows the
paper states only qualitatively have no paper value.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.apps.cg import CGConfig, cg_point
from repro.bench.figures import FigureData, _dace_point, _stencil_point
from repro.nvshmem.device import Scope
from repro.perf import active_runner, completed
from repro.sdfg.distributed import GridDecomposition2D, SlabDecomposition1D
from repro.stencil import StencilConfig
from repro.stencil.variants.auto_overlap import OverlapSchedule
from repro.tune import autotune_tb_split, trial_point

__all__ = ["Claim", "ClaimResult", "evaluate_claims", "render_claims", "PAPER_CLAIMS"]

INF = math.inf


@dataclass(frozen=True)
class Claim:
    """One quantitative statement from the paper."""

    key: str          #: unique id, cited from DESIGN.md as `claim:<key>`
    figure: str
    description: str
    paper_value: float | None   #: None: the paper states it qualitatively
    unit: str
    lo: float        #: acceptance band (inclusive)
    hi: float
    extract: Callable[[dict], float]


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    measured: float

    @property
    def ok(self) -> bool:
        return self.claim.lo <= self.measured <= self.claim.hi

    @property
    def margin(self) -> float:
        """Distance inside the band to its nearest edge (negative: outside)."""
        return min(self.measured - self.claim.lo, self.claim.hi - self.measured)


# ------------------------------ ablation runs ------------------------------------

#: §4.1.2: the regimes the closed-form TB split is searched against
_AUTOTUNE_SHAPES = ((2048 + 2, 2048 + 2), (4 * 8 + 2, 1024 + 2, 1024 + 2),
                    (8 * 32 + 2, 256 + 2))
#: §5.1/§5.3.2/§5.4: generated CPU-Free programs, one pipeline option or
#: the put scope changed per run.  1D is Fig 6.3a's 8-GPU point (1M
#: elements per GPU, 11 steps), whose figure row is the relaxed run;
#: 2D the wide 2x4 grid of 1024^2 tiles.
_SLAB, _GRID = SlabDecomposition1D(8_000_000, 8), GridDecomposition2D(2048, 4096, 8)
_DACE_ABLATIONS = {
    "1d_conservative": ("1d", "cpufree", _SLAB, 11, (("relax_barriers", False),)),
    "1d_block_scope": ("1d", "cpufree", _SLAB, 11, (), Scope.BLOCK),
    "2d_nbi": ("2d", "cpufree", _GRID, 6),
    "2d_blocking": ("2d", "cpufree", _GRID, 6, (("nbi", False),)),
    "2d_specialized": ("2d", "cpufree", _GRID, 6, (("specialize_comm", True),)),
}
_CG_VARIANTS = ("cg_baseline", "cg_cpufree")


def _stencil_config(shape: tuple[int, ...], iterations: int = 30) -> StencilConfig:
    return StencilConfig(global_shape=shape, num_gpus=8, iterations=iterations,
                         with_data=False)


def _cg_config(gpus: int) -> CGConfig:
    """Reduction-bound CG, weak scaling at 64 rows x 512 columns per GPU."""
    return CGConfig(global_shape=(64 * gpus + 2, 514), num_gpus=gpus,
                    iterations=15, with_data=False)


def _map(fn, tasks: list[tuple]) -> dict:
    """``{task: fn(*task)}`` through the active runner; a point whose
    worker died on every attempt fails the evaluation by its identity."""
    return dict(zip(tasks, completed(active_runner().map(fn, tasks))))


def _ablations() -> dict:
    """Run every experiment that is not a report figure, once, as sweep
    points of the active runner.  Every time is per iteration."""
    thin, d256, d2048 = (_stencil_config(shape) for shape in (
        (4 * 8 + 2, 1024 + 2, 1024 + 2), (256 + 2, 256 + 2), (2048 + 2, 2048 + 2)))
    # §4: one persistent kernel vs two co-resident ones
    kernels = {d256: ("cpufree", "cpufree_coresident", "baseline_overlap"),
               d2048: ("cpufree", "cpufree_coresident")}
    t = {task: row.per_iteration_us for task, row in _map(_stencil_point, [
        ("cpufree", thin),
        *((v, config) for config, variants in kernels.items() for v in variants),
    ]).items()}
    # §4.1.2's fixed split: one boundary block per side
    fixed = {config: trial["per_iteration_us"] for (_, config), trial in _map(
        trial_point, [(OverlapSchedule(1, 1), c) for c in (thin, d2048)]).items()}
    generated = _map(_dace_point, list(_DACE_ABLATIONS.values()))
    cg = _map(cg_point, [(v, _cg_config(gpus)) for gpus in (2, 8) for v in _CG_VARIANTS])
    return {
        "tb_split_3d": {"proportional": t["cpufree", thin], "fixed": fixed[thin]},
        "tb_split_2d": {"proportional": t["cpufree", d2048], "fixed": fixed[d2048]},
        "autotune_regret": max(
            autotune_tb_split(_stencil_config(shape, 15), iterations=15)
            .formula_regret_percent for shape in _AUTOTUNE_SHAPES),
        "coresident_256": {v: t[v, d256] for v in kernels[d256]},
        "coresident_2048": {v: t[v, d2048] for v in kernels[d2048]},
        **{name: generated[task].per_iteration_us
           for name, task in _DACE_ABLATIONS.items()},
        "cg": {gpus: {v: cg[v, _cg_config(gpus)] for v in _CG_VARIANTS}
               for gpus in (2, 8)},
    }


# ------------------------------ extract helpers ----------------------------------


def _t(fig: FigureData, series: str, gpus: int) -> float:
    return fig.at(series, gpus).per_iteration_us


def _growth(fig: FigureData, series: str, lo: int, hi: int) -> float:
    """Per-iteration time at ``hi`` GPUs over ``lo`` GPUs."""
    return _t(fig, series, hi) / _t(fig, series, lo)


def _gain(slower: float, faster: float) -> float:
    """Paper §6 speedup formula, percent."""
    return (slower - faster) / slower * 100.0


def _min_step(fig: FigureData, order: tuple[str, ...], gpus: int) -> float:
    """Smallest ratio between neighbours of ``order`` (>= 1: ordered)."""
    times = [_t(fig, series, gpus) for series in order]
    return min(b / a for a, b in zip(times, times[1:]))


def _relaxed_1d(f: dict) -> float:
    """The generated 1D program with relaxed grid syncs: Fig 6.3a at 8 GPUs."""
    return _t(f["6.3a"], "dace_cpufree", 8)


def _cg_t(f: dict, gpus: int, variant: str) -> float:
    return f["cg"][gpus][variant]["per_iteration_us"]


PAPER_CLAIMS: tuple[Claim, ...] = (
    # -- Figure 2.2: the motivation ---------------------------------------------
    Claim("2.2a-overlap-growth", "2.2a",
          "no compute: Baseline Overlap overhead growth 2->8 GPUs",
          None, "x", 3.0, INF,
          lambda f: _growth(f["2.2a"], "baseline_overlap", 2, 8)),
    Claim("2.2a-cpufree-flat", "2.2a",
          "no compute: CPU-Free overhead growth 2->8 GPUs",
          None, "x", -INF, 1.5,
          lambda f: _growth(f["2.2a"], "cpufree", 2, 8)),
    Claim("2.2a-gap", "2.2a",
          "no compute: Baseline Overlap over CPU-Free overhead at 8 GPUs",
          None, "x", 10.0, INF,
          lambda f: _t(f["2.2a"], "baseline_overlap", 8) / _t(f["2.2a"], "cpufree", 8)),
    Claim("2.2b-comm-fraction", "2.2b",
          "communication fraction of CPU-controlled execution",
          96.0, "%", 90.0, 100.0,
          lambda f: f["2.2b"].headlines["baseline_overlap_comm_fraction"] * 100),
    Claim("2.2b-cpufree-comm", "2.2b",
          "CPU-Free over Baseline Overlap communication time at 8 GPUs",
          None, "x", -INF, 0.1,
          lambda f: (f["2.2b"].at("cpufree", 8).comm_us_per_iter
                     / f["2.2b"].at("baseline_overlap", 8).comm_us_per_iter)),
    # -- Figure 6.1: 2D weak scaling --------------------------------------------
    Claim("6.1-small-nvshmem", "6.1",
          "small: CPU-Free speedup vs Baseline NVSHMEM at 8 GPUs",
          41.6, "%", 25.0, 70.0,
          lambda f: f["6.1-small"].headlines["speedup_vs_nvshmem_%"]),
    Claim("6.1-small-copy", "6.1",
          "small: CPU-Free speedup vs Baseline Copy at 8 GPUs",
          96.2, "%", 90.0, 100.0,
          lambda f: f["6.1-small"].headlines["speedup_vs_copy_%"]),
    Claim("6.1-small-overlap", "6.1",
          "small: CPU-Free speedup vs Baseline Overlap at 8 GPUs",
          96.2, "%", 90.0, 100.0,
          lambda f: f["6.1-small"].headlines["speedup_vs_overlap_%"]),
    Claim("6.1-medium-nvshmem", "6.1",
          "medium: CPU-Free speedup vs Baseline NVSHMEM at 8 GPUs",
          48.2, "%", 20.0, 70.0,
          lambda f: f["6.1-medium"].headlines["speedup_vs_nvshmem_%"]),
    Claim("6.1-medium-copy", "6.1",
          "medium: CPU-Free speedup vs Baseline Copy at 8 GPUs",
          95.7, "%", 90.0, 100.0,
          lambda f: f["6.1-medium"].headlines["speedup_vs_copy_%"]),
    Claim("6.1-medium-overlap", "6.1",
          "medium: CPU-Free speedup vs Baseline Overlap at 8 GPUs",
          95.7, "%", 90.0, 100.0,
          lambda f: f["6.1-medium"].headlines["speedup_vs_overlap_%"]),
    Claim("6.1-large-nvshmem", "6.1",
          "large: CPU-Free degrades vs best baseline (negative speedup)",
          -10.0, "%", -60.0, -0.1,
          lambda f: f["6.1-large"].headlines["speedup_vs_nvshmem_%"]),
    Claim("6.1-large-perks", "6.1",
          "large: PERKS speedup vs best baseline at 8 GPUs",
          18.8, "%", 10.0, 35.0,
          lambda f: f["6.1-large"].headlines["perks_vs_best_baseline_%"]),
    Claim("6.1-copy-growth", "6.1",
          "small: Baseline Copy time growth 2->8 GPUs",
          None, "x", 3.0, INF,
          lambda f: _growth(f["6.1-small"], "baseline_copy", 2, 8)),
    Claim("6.1-overlap-growth", "6.1",
          "small: Baseline Overlap time growth 2->8 GPUs",
          None, "x", 3.0, INF,
          lambda f: _growth(f["6.1-small"], "baseline_overlap", 2, 8)),
    Claim("6.1-cpufree-flat", "6.1",
          "small: CPU-Free time growth 2->8 GPUs",
          None, "x", -INF, 1.2,
          lambda f: _growth(f["6.1-small"], "cpufree", 2, 8)),
    Claim("6.1-ordering", "6.1",
          "small, 8 GPUs: cpufree < nvshmem < p2p < copy < overlap (min step)",
          None, "x", 1.0, INF,
          lambda f: _min_step(f["6.1-small"], (
              "cpufree", "baseline_nvshmem", "baseline_p2p", "baseline_copy",
              "baseline_overlap"), 8)),
    # -- Figure 6.2: 3D weak and strong scaling ----------------------------------
    Claim("6.2-weak-cpufree-growth", "6.2",
          "3D weak scaling: CPU-Free time growth 1->8 GPUs",
          None, "x", -INF, 1.3,
          lambda f: _growth(f["6.2-weak"], "cpufree", 1, 8)),
    Claim("6.2-nc-vs-host", "6.2",
          "3D no-compute comm improvement vs CPU-controlled at 8 GPUs",
          58.8, "%", 40.0, 85.0,
          lambda f: f["6.2-weak-nc"].headlines[
              "comm_improvement_vs_best_host_controlled_%"]),
    Claim("6.2-nc-vs-nvshmem", "6.2",
          "3D no-compute comm improvement vs Baseline NVSHMEM at 8 GPUs",
          None, "%", 0.0, INF,
          lambda f: f["6.2-weak-nc"].headlines[
              "comm_improvement_vs_nvshmem_%"]),
    Claim("6.2-strong-nc-cpufree-growth", "6.2",
          "3D strong-scaling no-compute: CPU-Free growth 2->8 GPUs",
          0.0, "%", -10.0, 60.0,
          lambda f: f["6.2-strong-nc"].headlines["cpufree_growth_%"]),
    Claim("6.2-strong-nc-copy-growth", "6.2",
          "3D strong-scaling no-compute: Baseline Copy growth 2->8 GPUs",
          300.0, "%", 300.0, 1000.0,
          lambda f: f["6.2-strong-nc"].headlines["copy_growth_%"]),
    Claim("6.2-strong-cpufree-scaling", "6.2",
          "3D strong scaling: CPU-Free speedup 1->8 GPUs",
          None, "x", 4.0, INF,
          lambda f: 1 / _growth(f["6.2-strong"], "cpufree", 1, 8)),
    Claim("6.2-strong-overlap-scaling", "6.2",
          "3D strong scaling: Baseline Overlap speedup 1->8 GPUs",
          None, "x", -INF, 4.0,
          lambda f: 1 / _growth(f["6.2-strong"], "baseline_overlap", 1, 8)),
    Claim("6.2-strong-vs-copy", "6.2",
          "3D strong scaling: CPU-Free speedup vs Baseline Copy at 8 GPUs",
          None, "%", 0.0, INF,
          lambda f: f["6.2-strong"].speedup("cpufree", "baseline_copy", 8)),
    Claim("6.2-strong-vs-overlap", "6.2",
          "3D strong scaling: CPU-Free speedup vs Baseline Overlap at 8 GPUs",
          None, "%", 0.0, INF,
          lambda f: f["6.2-strong"].speedup("cpufree", "baseline_overlap", 8)),
    # -- Figure 6.3: generated code vs the DaCe baseline -------------------------
    Claim("6.3a-total", "6.3a", "DaCe 1D total improvement at 8 GPUs",
          44.5, "%", 30.0, 70.0,
          lambda f: f["6.3a"].headlines["total_improvement_%"]),
    Claim("6.3a-comm", "6.3a", "DaCe 1D communication improvement at 8 GPUs",
          26.8, "%", 15.0, 80.0,
          lambda f: f["6.3a"].headlines["comm_improvement_%"]),
    Claim("6.3a-gain-at-2", "6.3a", "DaCe 1D total improvement at 2 GPUs",
          None, "%", 0.0, INF,
          lambda f: f["6.3a"].speedup("dace_cpufree", "dace_baseline", 2)),
    Claim("6.3a-gain-growth", "6.3a",
          "DaCe 1D total improvement growth 2->8 GPUs (points)",
          None, "pp", 0.0, INF,
          lambda f: (f["6.3a"].speedup("dace_cpufree", "dace_baseline", 8)
                     - f["6.3a"].speedup("dace_cpufree", "dace_baseline", 2))),
    Claim("6.3b-total", "6.3b", "DaCe 2D total improvement at 8 GPUs",
          96.8, "%", 85.0, 100.0,
          lambda f: f["6.3b"].headlines["total_improvement_%"]),
    Claim("6.3b-comm-fraction", "6.3b", "DaCe 2D baseline communication dominance",
          99.0, "%", 90.0, 100.0,
          lambda f: f["6.3b"].headlines["baseline_comm_fraction_%"]),
    Claim("6.3b-efficiency", "6.3b", "DaCe 2D CPU-Free weak-scaling efficiency",
          81.2, "%", 55.0, 100.0,
          lambda f: f["6.3b"].headlines["cpufree_weak_scaling_efficiency_%"]),
    Claim("6.3b-bump-2", "6.3b",
          "DaCe 2D baseline time at 2 over 4 GPUs (rectangular split)",
          None, "x", 0.9, INF,
          lambda f: _t(f["6.3b"], "dace_baseline", 2) / _t(f["6.3b"], "dace_baseline", 4)),
    Claim("6.3b-bump-8", "6.3b",
          "DaCe 2D baseline time at 8 over 4 GPUs (rectangular split)",
          None, "x", 1.0, INF,
          lambda f: _growth(f["6.3b"], "dace_baseline", 4, 8)),
    Claim("6.3b-cpufree-smooth", "6.3b",
          "DaCe 2D CPU-Free time at 8 over 4 GPUs",
          None, "x", -INF, 2.0,
          lambda f: _growth(f["6.3b"], "dace_cpufree", 4, 8)),
    # -- design ablations ---------------------------------------------------------
    Claim("tb-split-unbalanced", "§4.1.2",
          "proportional TB split speedup vs fixed 1-block split, thin 3D slabs",
          None, "%", 20.0, INF,
          lambda f: _gain(f["tb_split_3d"]["fixed"], f["tb_split_3d"]["proportional"])),
    Claim("tb-split-balanced", "§4.1.2",
          "proportional over fixed TB split time, balanced 2D",
          None, "x", 0.9, 1.1,
          lambda f: f["tb_split_2d"]["proportional"] / f["tb_split_2d"]["fixed"]),
    Claim("tb-split-autotune", "§4.1.2",
          "worst formula regret vs an exhaustive split search (3 regimes)",
          None, "%", -INF, 25.0,
          lambda f: f["autotune_regret"]),
    Claim("coresident-256", "§4",
          "two co-resident kernels over one persistent kernel, 256^2",
          None, "x", 0.8, 1.35,
          lambda f: (f["coresident_256"]["cpufree_coresident"]
                     / f["coresident_256"]["cpufree"])),
    Claim("coresident-2048", "§4",
          "two co-resident kernels over one persistent kernel, 2048^2",
          None, "x", 0.8, 1.35,
          lambda f: (f["coresident_2048"]["cpufree_coresident"]
                     / f["coresident_2048"]["cpufree"])),
    Claim("coresident-vs-overlap", "§4",
          "co-resident kernels over Baseline Overlap time, 256^2",
          None, "x", -INF, 0.2,
          lambda f: (f["coresident_256"]["cpufree_coresident"]
                     / f["coresident_256"]["baseline_overlap"])),
    Claim("relaxed-barriers", "§5.1",
          "generated 1D: relaxed grid syncs speedup vs barrier after every state",
          None, "%", 1.0, INF,
          lambda f: _gain(f["1d_conservative"], _relaxed_1d(f))),
    Claim("nbi", "§5.3.2",
          "generated 2D: nbi puts speedup vs blocking puts",
          None, "%", 2.0, INF,
          lambda f: _gain(f["2d_blocking"], f["2d_nbi"])),
    Claim("block-scope", "§5.4",
          "generated 1D: block-scope over thread-scope put time",
          None, "x", -INF, 1.001,
          lambda f: f["1d_block_scope"] / _relaxed_1d(f)),
    Claim("specialized-codegen", "§5.4",
          "generated 2D: TB-specialized speedup vs single-group kernel",
          None, "%", 10.0, INF,
          lambda f: _gain(f["2d_nbi"], f["2d_specialized"])),
    # -- extension: Conjugate Gradient -------------------------------------------
    Claim("cg-speedup", "CG", "CPU-Free speedup vs CPU-controlled CG at 8 GPUs",
          None, "%", 60.0, INF,
          lambda f: _gain(_cg_t(f, 8, "cg_baseline"), _cg_t(f, 8, "cg_cpufree"))),
    Claim("cg-device-idle", "CG",
          "CPU-controlled CG: idle share of its busiest GPU at 8 GPUs",
          None, "%", 50.0, 100.0,
          lambda f: f["cg"][8]["cg_baseline"]["device_idle_%"]),
    Claim("cg-cpufree-flat", "CG", "CPU-Free CG time growth 2->8 GPUs",
          None, "x", -INF, 2.5,
          lambda f: _cg_t(f, 8, "cg_cpufree") / _cg_t(f, 2, "cg_cpufree")),
    Claim("cg-vs-baseline", "CG", "CPU-Free over CPU-controlled CG time at 8 GPUs",
          None, "x", -INF, 0.5,
          lambda f: _cg_t(f, 8, "cg_cpufree") / _cg_t(f, 8, "cg_baseline")),
)


def evaluate_claims(figures: dict[str, list[FigureData]]) -> list[ClaimResult]:
    """Evaluate every claim on the report's figures, ``{figure id:
    [FigureData, ...]}`` as ``repro.bench.__main__.FIGURES`` yields
    them, and on one run of each ablation.  Claims read each figure
    under its own id (6.1 under its size class)."""
    small, medium, large = figures["6.1"]
    experiments = {fig.figure: fig
                   for key in ("2.2", "6.2", "6.3a", "6.3b") for fig in figures[key]}
    experiments |= {"6.1-small": small, "6.1-medium": medium, "6.1-large": large,
                    **_ablations()}
    return [ClaimResult(claim, claim.extract(experiments)) for claim in PAPER_CLAIMS]


def render_claims(results: list[ClaimResult]) -> str:
    """Verdict table.  ``margin`` is :attr:`ClaimResult.margin`, flagged
    ``!`` when it is 0: such a row cannot move toward that edge without
    a miss.  ``vs paper`` is measured minus the paper's value."""
    rule = "-" * 132
    lines = [
        f"{'fig':>6} | {'paper':>8} | {'measured':>9} | {'band':>18} | "
        f"{'margin':>9} | {'vs paper':>8} | verdict | claim",
        rule,
    ]
    for r in results:
        c = r.claim
        paper = "—" if c.paper_value is None else f"{c.paper_value:.1f}{c.unit}"
        gap = "—" if c.paper_value is None else f"{r.measured - c.paper_value:+.2f}"
        edge = "!" if r.margin == 0 else " "
        verdict = "OK " if r.ok else "MISS"
        lines.append(
            f"{c.figure:>6} | {paper:>8} | {r.measured:>7.2f}{c.unit:<2} | "
            f"[{c.lo:>7.2f}, {c.hi:>7.2f}] | {r.margin:>8.3f}{edge} | {gap:>8} | "
            f"{verdict:^7} | {c.description}"
        )
    passed = sum(1 for r in results if r.ok)
    lines.append(rule)
    lines.append(f"{passed}/{len(results)} paper claims reproduced within band")
    on_edge = [r.claim.key for r in results if r.margin == 0]
    if on_edge:
        lines.append(f"on a band edge (!): {', '.join(on_edge)}")
    return "\n".join(lines)
