"""AutoOverlap variant + cost-model schedule choice + repro.tune."""

import numpy as np
import pytest

from repro.obs.stablejson import dumps_stable
from repro.obs.timeline import pe_phases
from repro.perf import ResultCache, SweepRunner, use_runner
from repro.sim.stacked import BatchDivergence
from repro.stencil.base import VARIANTS, StencilConfig
from repro.stencil.variants.auto_overlap import (
    CHUNK_CANDIDATES,
    AutoOverlap,
    OverlapSchedule,
    choose_schedule,
    model_inner_time_us,
)
from repro.stencil.runner import run_variant
import repro.tune as tune_mod
from repro.tune import (
    autotune_tb_split,
    candidate_splits,
    schedule_grid,
    schedule_payload,
    tune,
    win_loss_payload,
)
from repro.tune.__main__ import main as tune_main


def _config(shape=(256, 258), gpus=4, iterations=10, **kw):
    return StencilConfig(global_shape=shape, num_gpus=gpus,
                         iterations=iterations, **kw)


LARGE = (8192, 8194)


class TestChooseSchedule:
    def test_small_domain_degenerates_to_cpufree(self):
        # under the tiling knee every chunk count costs the same compute
        # but K>1 pays switch overhead -> the model must pick K=1
        assert choose_schedule(_config()).chunks == 1

    def test_large_domain_chunks(self):
        schedule = choose_schedule(_config(LARGE, gpus=8))
        assert schedule.chunks > 1

    def test_deterministic(self):
        a = choose_schedule(_config(LARGE, gpus=8))
        b = choose_schedule(_config(LARGE, gpus=8))
        assert a == b

    def test_model_monotone_overhead(self):
        # pure-overhead regime: with no tiling relief, more chunks can
        # only add switch cost
        config = _config()
        times = [model_inner_time_us(config, k) for k in CHUNK_CANDIDATES]
        assert times == sorted(times)


class TestOverlapSchedule:
    def test_validates(self):
        with pytest.raises(ValueError):
            OverlapSchedule(chunks=0)
        with pytest.raises(ValueError):
            OverlapSchedule(chunks=2, boundary_tb_per_side=0)

    def test_describe_round_trips_stably(self):
        s = OverlapSchedule(chunks=3, boundary_tb_per_side=4,
                            fuse_boundary=True)
        assert dumps_stable(s.describe()) == dumps_stable(s.describe())


class TestAutoOverlapVariant:
    def test_registered(self):
        assert "auto_overlap" in VARIANTS

    def test_k1_ties_cpufree_exactly(self):
        config = _config(with_data=False)
        assert choose_schedule(config).chunks == 1
        cf = VARIANTS["cpufree"](config).run()
        ao = VARIANTS["auto_overlap"](config).run()
        assert ao.per_iteration_us == cf.per_iteration_us

    def test_large_domain_beats_cpufree(self):
        config = _config(LARGE, gpus=8, iterations=5, with_data=False)
        cf = VARIANTS["cpufree"](config).run()
        ao = VARIANTS["auto_overlap"](config).run()
        assert ao.per_iteration_us < cf.per_iteration_us

    def test_data_matches_cpufree(self):
        config = _config((64, 66), gpus=4, iterations=6, seed=3)
        cf = VARIANTS["cpufree"](config).run()
        ao = AutoOverlap(config, schedule=OverlapSchedule(chunks=3)).run()
        np.testing.assert_array_equal(ao.result, cf.result)

    @pytest.mark.parametrize("schedule", [
        OverlapSchedule(chunks=2, fuse_boundary=True),
        OverlapSchedule(chunks=2, boundary_tb_per_side=4),
        OverlapSchedule(chunks=3, boundary_tb_per_side=2, fuse_boundary=True),
    ])
    def test_knobs_preserve_results(self, schedule):
        config = _config((64, 66), gpus=4, iterations=6, seed=3)
        cf = VARIANTS["cpufree"](config).run()
        ao = AutoOverlap(config, schedule=schedule).run()
        np.testing.assert_array_equal(ao.result, cf.result)

    def test_overlap_fraction_not_degraded(self):
        """obs/timeline validation: chunking must not hide less
        communication under compute than the hand-tuned schedule."""
        config = _config(LARGE, gpus=8, iterations=5, with_data=False)
        cf = VARIANTS["cpufree"](config)
        cf_res = cf.run()
        ao = VARIANTS["auto_overlap"](config)
        ao_res = ao.run()

        def mean_comm_overlap(variant):
            phases = pe_phases(variant.tracer.spans)
            fractions = [p.comm_overlap_fraction() for p in phases.values()]
            return sum(fractions) / len(fractions)

        assert mean_comm_overlap(ao) >= mean_comm_overlap(cf)
        assert ao_res.overlap_ratio >= cf_res.overlap_ratio


class TestTune:
    def test_grid_is_deterministic_and_deduped(self):
        config = _config(with_data=False)
        grid = schedule_grid(config)
        assert grid == schedule_grid(config)
        assert len(grid) == len(set(grid))
        # a small budget still spans every axis
        small = schedule_grid(config, budget=16)
        assert {s.chunks for s in small} == set(CHUNK_CANDIDATES)
        assert any(s.boundary_tb_per_side is not None for s in small)
        assert any(s.fuse_boundary for s in small)

    def test_tune_never_worse_than_cpufree(self):
        result = tune("small", 4, iterations=6, budget=8)
        assert result.best_per_iteration_us <= result.cpufree_per_iteration_us
        assert dumps_stable(schedule_payload(result)) \
            == dumps_stable(schedule_payload(result))

    def test_cache_replay_and_byte_stable_schedule(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = tune("small", 2, iterations=4, budget=6,
                     runner=SweepRunner(cache=cache))
        replay_runner = SweepRunner(cache=cache)
        second = tune("small", 2, iterations=4, budget=6,
                      runner=replay_runner)
        # unchanged repo -> every trial, and the cpufree baseline
        # point, replays from the cache
        assert replay_runner.hits == len(second.trials) + 1
        assert replay_runner.misses == 0
        assert dumps_stable(schedule_payload(first)) \
            == dumps_stable(schedule_payload(second))

    def test_model_schedule_measured_when_budget_cuts_it(self):
        """The large 8-GPU model schedule sits past the first grid slot;
        a budget of one still measures it, as one appended trial."""
        result = tune("large", 8, iterations=4, budget=1)
        model = result.model.describe()
        assert [t["schedule"] for t in result.trials] \
            == [OverlapSchedule(1).describe(), model]
        assert result.model_per_iteration_us == result.trials[-1]["per_iteration_us"]

    @pytest.mark.parametrize("budget", [0, -1])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            tune("small", 2, iterations=4, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            schedule_grid(_config(with_data=False), budget=budget)
        with pytest.raises(SystemExit) as exc:
            tune_main(["--budget", str(budget), "--no-cache"])
        assert exc.value.code == 2

    def test_win_loss_payload_shape(self):
        table = win_loss_payload(sizes=("small",), gpu_counts=(1, 2),
                                 iterations=4)
        assert table["format"] == "repro-tune-winloss-v1"
        assert len(table["points"]) == 2
        assert table["wins"] + table["ties"] + table["losses"] == 2
        for point in table["points"]:
            assert point["outcome"] in ("win", "tie", "loss")


class TestBatchedTrials:
    """``trial_point`` points that differ only in their TB split run as
    one vector-clock simulation, with the per-point results exactly."""

    @staticmethod
    def _tune_all(batch, configs):
        runner = SweepRunner(batch=batch)
        payloads = [dumps_stable(schedule_payload(
            tune(size, gpus, budget=budget, runner=runner)))
            for size, gpus, budget in configs]
        return payloads, (runner.batch_groups, runner.batch_points,
                          runner.batch_fallbacks)

    def test_schedule_payload_equal_under_batching_small(self):
        on, tally = self._tune_all(True, [("small", 2, None)])
        assert on == self._tune_all(False, [("small", 2, None)])[0]
        assert tally[1] > 0 and tally[2] == 0

    def test_schedule_payload_equal_under_batching_tools_configs(self):
        """The benchmark's two tunes: 18 of their 28 trials differ only
        in the split, in three groups."""
        configs = [("medium", 8, 16), ("large", 8, 12)]
        on, tally = self._tune_all(True, configs)
        off, off_tally = self._tune_all(False, configs)
        assert on == off
        assert tally == (3, 18, 0)
        assert off_tally == (0, 0, 0)

    @pytest.mark.parametrize("shape", [(256 + 2, 258), (4 * 8 + 2, 130, 130)],
                             ids=["2d", "3d-thin-slab"])
    def test_autotune_measurements_equal_under_batching(self, shape):
        config = StencilConfig(global_shape=shape, num_gpus=8, iterations=4,
                               with_data=False)
        reports = []
        for batch in (True, False):
            runner = SweepRunner(batch=batch)
            with use_runner(runner):
                reports.append(autotune_tb_split(config, iterations=4))
            assert (runner.batch_groups == 1) is batch
        assert reports[0].measurements == reports[1].measurements
        assert reports[0].best == reports[1].best

    @pytest.mark.parametrize("schedule, config", [
        (OverlapSchedule(1, 2), _config(with_data=True)),
        (OverlapSchedule(1, 2), _config(with_data=False,
                                        fault_profile="transient@3")),
        (OverlapSchedule(1, 2), _config((16 * 4 + 2, 258), gpus=16,
                                        with_data=False)),
        # 13 interior rows over 4 ranks: the formula split varies by rank
        (OverlapSchedule(1), _config((15, 1026, 1026), with_data=False)),
    ], ids=["with-data", "faulted", "hierarchical", "split-varies-by-rank"])
    def test_group_key_none_for_unbatchable_points(self, schedule, config):
        assert tune_mod._trial_group_key((schedule, config)) is None

    def test_none_split_resolves_to_the_formula_split(self):
        """``OverlapSchedule(k)`` joins the group of its explicit splits
        and runs as the formula's split, so it can share a member."""
        config = _config(with_data=False)
        formula = AutoOverlap(config, OverlapSchedule(2)).specialization(0)
        assert tune_mod._trial_split(OverlapSchedule(2), config) \
            == formula.boundary_tb_per_side
        assert tune_mod._trial_group_key((OverlapSchedule(2), config)) \
            == tune_mod._trial_group_key((OverlapSchedule(2, 5), config)) \
            == (2, False, config)

    def test_divergent_group_falls_back(self, monkeypatch):
        expected = dumps_stable(schedule_payload(
            tune("large", 8, 6, budget=12, runner=SweepRunner(batch=False))))

        def diverge(build, configs):
            raise BatchDivergence("forced")

        monkeypatch.setattr(tune_mod, "run_stacked", diverge)
        runner = SweepRunner(batch=True)
        got = dumps_stable(schedule_payload(
            tune("large", 8, 6, budget=12, runner=runner)))
        assert got == expected
        assert (runner.batch_groups, runner.batch_points,
                runner.batch_fallbacks) == (0, 0, 1)

    def test_batched_cache_replays_unbatched(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        filled = SweepRunner(cache=cache, batch=True)
        first = tune("medium", 8, 6, budget=16, runner=filled)
        assert filled.batch_points > 0
        replay = SweepRunner(cache=cache, batch=False)
        second = tune("medium", 8, 6, budget=16, runner=replay)
        assert replay.misses == 0
        assert replay.hits == len(second.trials) + 1
        assert dumps_stable(schedule_payload(first)) \
            == dumps_stable(schedule_payload(second))

    def test_cli_prints_batch_line(self, capsys, tmp_path):
        out = tmp_path / "schedule.json"
        assert tune_main(["--size", "small", "--gpus", "2", "--iterations",
                          "4", "--budget", "8", "--no-cache",
                          "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("(batched execution: ")
        assert lines[-1].endswith(" 0 fallback(s))")
        assert "batched" not in out.read_text()


class TestCandidates:
    def test_candidates_start_at_one(self):
        assert candidate_splits(216)[0] == 1

    def test_candidates_within_feasible_range(self):
        for c in candidate_splits(216):
            assert 1 <= c <= (216 - 1) // 2

    def test_candidates_strictly_increasing(self):
        cs = candidate_splits(216)
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_limit_included(self):
        cs = candidate_splits(216)
        assert cs[-1] == (216 - 1) // 2

    def test_tiny_device_rejected(self):
        with pytest.raises(ValueError):
            candidate_splits(2)


class TestAutotune:
    @pytest.fixture(scope="class")
    def balanced_report(self):
        config = StencilConfig(
            global_shape=(2048 + 2, 2048 + 2), num_gpus=8,
            iterations=10, with_data=False,
        )
        return autotune_tb_split(config, iterations=10)

    def test_measurements_cover_candidates(self, balanced_report):
        assert len(balanced_report.measurements) >= 5
        assert all(t > 0 for t in balanced_report.measurements.values())

    def test_formula_close_to_empirical_optimum_on_balanced_domain(
            self, balanced_report):
        """§4.1.2's formula should be near-optimal where it applies."""
        assert balanced_report.formula_regret_percent < 10.0

    def test_formula_split_measures_cpufree_exactly(self, balanced_report):
        """A one-chunk AutoOverlap at the formula's split is cpufree."""
        config = StencilConfig(
            global_shape=(2048 + 2, 2048 + 2), num_gpus=8,
            iterations=10, with_data=False,
        )
        split = balanced_report.formula.boundary_tb_per_side
        assert balanced_report.measurements[split] \
            == run_variant("cpufree", config).per_iteration_us

    def test_best_plan_is_feasible(self, balanced_report):
        plan = balanced_report.best
        assert plan.inner_tb >= 1
        assert plan.boundary_tb_per_side >= 1

    def test_unbalanced_3d_prefers_more_boundary_blocks(self):
        """Thin-slab 3D: the optimum needs far more than one boundary
        block — the regime where the proportional formula matters."""
        config = StencilConfig(
            global_shape=(4 * 8 + 2, 1024 + 2, 1024 + 2), num_gpus=8,
            iterations=10, with_data=False,
        )
        report = autotune_tb_split(config, iterations=10)
        assert report.best.boundary_tb_per_side > 1
        # and the formula lands close to the empirical best
        assert report.formula_regret_percent < 25.0

    def test_regret_zero_when_formula_is_best(self):
        config = StencilConfig(
            global_shape=(2048 + 2, 2048 + 2), num_gpus=8,
            iterations=10, with_data=False,
        )
        report = autotune_tb_split(config, iterations=10)
        if report.best.boundary_tb_per_side == report.formula.boundary_tb_per_side:
            assert report.formula_regret_percent == 0.0
