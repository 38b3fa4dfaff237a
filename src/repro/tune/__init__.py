"""Empirical autotuner for the auto-overlap schedule (the ROADMAP's
"cost model + autotuner" closer for the compiler-side perf lever).

The cost model in :func:`repro.stencil.variants.auto_overlap.
choose_schedule` predicts a chunk count from calibrated constants
alone.  This package *refines* that guess by measuring: it sweeps
(chunk count × TB-specialization split × boundary fusion) candidates
per (app, topology, size) through the :mod:`repro.perf` runner, so
every trial is an ordinary sweep point — fanned out over ``--jobs``
worker processes, cached on disk by content key, and batched: trials
that differ only in their TB split run as one vector-clock simulation
that stacks the splits (:mod:`repro.perf.batch`), with per-trial
results and cache entries identical to running each alone.
Re-running the tuner on an unchanged repo replays every trial from the
cache (zero misses) and re-emits byte-identical schedule JSON.

Determinism contract: the candidate grid is a pure function of the
configuration (priority-ordered, deduplicated, budget-truncated), the
winner is the minimum ``(per_iteration_us, grid position)`` — so ties
resolve to the earlier, simpler candidate — and all JSON goes through
:mod:`repro.obs.stablejson`.

Every schedule measurement is one :func:`trial_point`: ``AutoOverlap``
under one explicit schedule.  :func:`tune` maps one per grid candidate.
:func:`autotune_tb_split`, the narrower search behind the §4.1.2
evaluation, maps one per boundary block count of a one-chunk schedule
(cpufree with the split overridden) and reports how far the closed-form
split lands from the empirical optimum.  The paper's fixed 1-block
split is one more.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# reuses the figure suite's sweep worker and figure so the cpufree
# points share cache entries with `repro.bench` runs of the same config
from repro.bench.figures import (
    DEFAULT_GPU_COUNTS,
    SIZE_CLASSES_2D,
    _stencil_point,
    fig_auto_overlap,
    weak_shape_2d,
    win_loss,
)
from repro.core.specialization import SpecializationPlan
from repro.perf import SweepRunner, active_runner, completed, use_runner
from repro.perf.batch import register_batchable
from repro.sim.stacked import BatchDivergence, stacked_val
from repro.stencil.base import StencilConfig
from repro.stencil.batch import run_stacked, stackable
from repro.stencil.variants.auto_overlap import (
    CHUNK_CANDIDATES,
    AutoOverlap,
    OverlapSchedule,
    choose_schedule,
)

__all__ = [
    "SCHEDULE_FORMAT",
    "WINLOSS_FORMAT",
    "AutotuneReport",
    "TuneResult",
    "autotune_tb_split",
    "candidate_splits",
    "schedule_grid",
    "schedule_payload",
    "trial_point",
    "tune",
    "win_loss_payload",
]

SCHEDULE_FORMAT = "repro-tune-schedule-v1"
WINLOSS_FORMAT = "repro-tune-winloss-v1"


def candidate_splits(tb_total: int, *, sides: int = 2,
                     max_candidates: int = 12) -> list[int]:
    """Geometrically spaced boundary block-count candidates."""
    if tb_total < sides + 1:
        raise ValueError("device too small to specialize")
    limit = (tb_total - 1) // sides
    out: list[int] = []
    candidate = 1
    while candidate <= limit and len(out) < max_candidates:
        out.append(candidate)
        candidate = max(candidate + 1, int(candidate * 1.6))
    if out[-1] != limit and len(out) < max_candidates:
        out.append(limit)
    return out


@dataclass(frozen=True)
class AutotuneReport:
    """Outcome of a TB-split search."""

    best: SpecializationPlan
    formula: SpecializationPlan
    #: measured per-iteration time per candidate boundary_tb_per_side
    measurements: dict[int, float]

    @property
    def formula_regret_percent(self) -> float:
        """How much slower the closed-form split is than the empirical
        optimum (0.0 = the formula found the optimum)."""
        best_time = self.measurements[self.best.boundary_tb_per_side]
        formula_time = self.measurements[self.formula.boundary_tb_per_side]
        if best_time == 0.0:
            return 0.0
        return (formula_time - best_time) / best_time * 100.0


def trial_point(schedule: OverlapSchedule, config: StencilConfig) -> dict:
    """Sweep worker: per-iteration time and overlap ratio of
    ``AutoOverlap`` under one explicit schedule.

    Top-level on purpose: the :mod:`repro.perf` cache keys points by
    ``qualname + repr(args) + source digest``, so ``(schedule, config)``
    is the trial's cache identity.
    """
    return _trial_row(AutoOverlap(config, schedule).run())


def _trial_row(res) -> dict:
    return {
        "per_iteration_us": res.per_iteration_us,
        "overlap_ratio": res.overlap_ratio,
    }


def _trial_split(schedule: OverlapSchedule, config: StencilConfig) -> int | None:
    """The boundary block count per side ``schedule`` runs with: its
    override, else the §4.1.2 formula split when every rank gets the
    same one (``None`` when the ranks differ)."""
    if schedule.boundary_tb_per_side is not None:
        return schedule.boundary_tb_per_side
    probe = AutoOverlap(config, schedule)
    splits = {probe.specialization(rank).boundary_tb_per_side
              for rank in range(config.num_gpus)}
    return splits.pop() if len(splits) == 1 else None


def _trial_group_key(args: tuple):
    """Batch-group key for :func:`trial_point`: the schedule minus its
    TB split — points in one group run fused as a stack of splits, when
    :func:`~repro.stencil.batch.stackable` admits their config and the
    split is one number: a formula split that varies across ranks is
    not, since one stacked value cannot carry it."""
    schedule, config = args
    if not stackable(config) or _trial_split(schedule, config) is None:
        return None
    return (schedule.chunks, schedule.fuse_boundary, config)


def _run_trial_group(argtuples) -> list[dict]:
    """Fused group runner: one vector-clock simulation whose schedule
    stacks the group's distinct splits (members that resolve to the
    same split share one), demuxed into each point's trial dict."""
    schedule, config = argtuples[0]
    key = _trial_group_key(argtuples[0])
    if key is None or any(_trial_group_key(args) != key
                          for args in argtuples[1:]):
        raise BatchDivergence("group members differ beyond the TB split")
    splits = [_trial_split(*args) for args in argtuples]
    distinct = sorted(set(splits))
    stacked = replace(schedule, boundary_tb_per_side=(
        stacked_val(distinct) if len(distinct) > 1 else distinct[0]))
    results = run_stacked(lambda: AutoOverlap(config, stacked),
                          [config] * len(distinct))
    by_split = dict(zip(distinct, results))
    return [_trial_row(by_split[split]) for split in splits]


register_batchable(trial_point, group_key=_trial_group_key,
                   run=_run_trial_group)


def autotune_tb_split(config: StencilConfig, *,
                      iterations: int = 20) -> AutotuneReport:
    """Search boundary block counts for the CPU-Free stencil variant.

    The search runs timing-only regardless of ``config.with_data``, one
    :func:`trial_point` per candidate through the active runner (so
    ``--jobs``, the result cache and batching apply: the candidates
    differ only in their split, so they form one batch group).  Returns the empirically
    best plan alongside the formula's plan, which is always among the
    measured candidates.
    """
    timing_config = replace(config, with_data=False, iterations=iterations)
    probe = AutoOverlap(timing_config, OverlapSchedule(1))
    tb_total = probe.coresident_blocks()
    formula_plan = probe.specialization(0)

    candidates = set(candidate_splits(tb_total))
    candidates.add(formula_plan.boundary_tb_per_side)
    splits = sorted(candidates)
    trials = completed(active_runner().map(
        trial_point,
        [(OverlapSchedule(1, split), timing_config) for split in splits]))
    measurements = {split: trial["per_iteration_us"]
                    for split, trial in zip(splits, trials)}
    best_split = min(measurements, key=lambda k: (measurements[k], k))
    return AutotuneReport(
        best=SpecializationPlan(tb_total=tb_total,
                                boundary_tb_per_side=best_split, sides=2),
        formula=formula_plan, measurements=measurements)


def _config(size: str, gpus: int, iterations: int) -> StencilConfig:
    """The tuner's fixed app/topology: 2D Jacobi, weak-scaling shapes,
    timing-only (identical simulated time to the data-carrying run)."""
    return StencilConfig(
        global_shape=weak_shape_2d(SIZE_CLASSES_2D[size], gpus),
        num_gpus=gpus, iterations=iterations, with_data=False,
    )


def schedule_grid(config: StencilConfig, *,
                  budget: int | None = None) -> list[OverlapSchedule]:
    """Candidate schedules in deterministic priority order.

    Tiers, so a small ``--budget`` still explores every axis instead of
    exhausting the first nested loop:

    1. the chunk axis alone (contains the cost model's seed and the
       ``chunks=1`` candidate, which *is* cpufree's schedule);
    2. the TB-split axis at the model-seeded chunk count;
    3. boundary fusion at the seeded chunk count (alone, then crossed
       with the splits);
    4. the remaining full cross-product.

    Duplicates collapse onto their first (highest-priority) position;
    ``budget`` (at least 1) truncates the tail.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    seed = choose_schedule(config)
    tb_total = config.node.gpu.max_coresident_blocks(config.threads_per_block)
    splits = candidate_splits(tb_total, sides=2)[:6]
    tiers: list[OverlapSchedule] = []
    tiers += [OverlapSchedule(k) for k in CHUNK_CANDIDATES]
    tiers += [OverlapSchedule(seed.chunks, s) for s in splits]
    tiers += [OverlapSchedule(seed.chunks, None, True)]
    tiers += [OverlapSchedule(seed.chunks, s, True) for s in splits]
    for k in CHUNK_CANDIDATES:
        for s in (None, *splits):
            for fuse in (False, True):
                tiers.append(OverlapSchedule(k, s, fuse))
    seen: set[OverlapSchedule] = set()
    ordered = [s for s in tiers if not (s in seen or seen.add(s))]
    if budget is not None:
        ordered = ordered[:budget]
    return ordered


@dataclass
class TuneResult:
    """Outcome of one (app, topology, size) search."""

    size: str
    gpus: int
    iterations: int
    best: OverlapSchedule
    best_per_iteration_us: float
    cpufree_per_iteration_us: float
    model: OverlapSchedule
    model_per_iteration_us: float
    #: every measured candidate, in grid order
    trials: list[dict] = field(default_factory=list)

    @property
    def model_regret_percent(self) -> float:
        """How much slower the pure cost-model schedule is than the
        empirical optimum (0.0 = the model found it)."""
        if self.best_per_iteration_us == 0.0:
            return 0.0
        return ((self.model_per_iteration_us - self.best_per_iteration_us)
                / self.best_per_iteration_us * 100.0)


def tune(size: str, gpus: int, iterations: int = 20, *,
         budget: int | None = None,
         runner: SweepRunner | None = None) -> TuneResult:
    """Search the schedule grid for one configuration.

    The cost model's schedule is always measured: when ``budget`` cut it
    from the grid, it is appended as one extra trial.
    """
    runner = runner if runner is not None else active_runner()
    config = _config(size, gpus, iterations)
    grid = schedule_grid(config, budget=budget)
    model = choose_schedule(config)
    if model not in grid:
        grid.append(model)
    measured = runner.map(trial_point, [(s, config) for s in grid])
    cpufree_row = runner.map(_stencil_point, [("cpufree", config)])[0]
    best_i = min(range(len(grid)),
                 key=lambda i: (measured[i]["per_iteration_us"], i))
    model_us = measured[grid.index(model)]["per_iteration_us"]
    return TuneResult(
        size=size, gpus=gpus, iterations=iterations,
        best=grid[best_i],
        best_per_iteration_us=measured[best_i]["per_iteration_us"],
        cpufree_per_iteration_us=cpufree_row.per_iteration_us,
        model=model,
        model_per_iteration_us=model_us,
        trials=[
            {"schedule": s.describe(), **m}
            for s, m in zip(grid, measured)
        ],
    )


def schedule_payload(result: TuneResult) -> dict:
    """The byte-stable best-schedule document (``--out``)."""
    return {
        "format": SCHEDULE_FORMAT,
        "app": "jacobi2d",
        "size": result.size,
        "gpus": result.gpus,
        "iterations": result.iterations,
        "schedule": result.best.describe(),
        "best_per_iteration_us": result.best_per_iteration_us,
        "cpufree_per_iteration_us": result.cpufree_per_iteration_us,
        "model_schedule": result.model.describe(),
        "model_per_iteration_us": result.model_per_iteration_us,
        "model_regret_percent": result.model_regret_percent,
        "trials": result.trials,
    }


def win_loss_payload(sizes: tuple[str, ...] = ("small", "medium", "large"),
                     gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
                     iterations: int = 40, *,
                     runner: SweepRunner | None = None) -> dict:
    """``auto_overlap`` vs hand-tuned ``cpufree`` across the figure
    suite's (size × gpus) points — the ``BENCH_PR10.json`` table."""
    with use_runner(runner if runner is not None else active_runner()):
        fig = fig_auto_overlap(sizes, gpu_counts, iterations)
    rows = iter(fig.rows)
    points: list[dict] = []
    for size in sizes:
        for gpus in gpu_counts:
            cf, ao = next(rows), next(rows)
            points.append({
                "size": size,
                "gpus": gpus,
                "chunks": choose_schedule(
                    _config(size, gpus, iterations)).chunks,
                "cpufree_per_iteration_us": cf.per_iteration_us,
                "auto_overlap_per_iteration_us": ao.per_iteration_us,
                "cpufree_overlap_ratio": cf.overlap_ratio,
                "auto_overlap_overlap_ratio": ao.overlap_ratio,
                "outcome": win_loss(cf, ao),
            })
    return {
        "format": WINLOSS_FORMAT,
        "app": "jacobi2d",
        "iterations": iterations,
        "points": points,
        "wins": int(fig.headlines["wins"]),
        "ties": int(fig.headlines["ties"]),
        "losses": int(fig.headlines["losses"]),
        "win_or_tie_fraction": fig.headlines["win_or_tie_fraction"],
    }
