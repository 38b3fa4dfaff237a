"""Checkpoint/restart recovery: byte-identity, time accounting,
checkpoint payloads, and the unrecoverable diagnostic."""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.stencil.variants  # noqa: F401 - populate the registry
from repro.faults import FaultPlan, PECrashFault, get_plan
from repro.recover import (
    CheckpointStore,
    UnrecoverableCrashError,
    run_with_recovery,
)
from repro.stencil import StencilConfig, jacobi_reference
from repro.stencil.base import VARIANTS, default_initial
from repro.stencil.grid import SlabDecomposition

SHAPE = (34, 66)
ITERATIONS = 6


def _config(profile, **kw):
    kw.setdefault("global_shape", SHAPE)
    kw.setdefault("num_gpus", 2)
    kw.setdefault("iterations", ITERATIONS)
    return StencilConfig(fault_profile=profile, **kw)


def _reference(config):
    return jacobi_reference(default_initial(config.global_shape, config.seed),
                            config.iterations)


class TestSegmentedCleanRun:
    """Segmenting alone (no crash) must be a pure refactoring of the
    timeline: same field, same total time as the sum of its parts."""

    @pytest.mark.parametrize("every", [1, 2, 3, 4, 6])
    def test_segmented_run_matches_reference(self, every):
        config = _config(None)
        outcome = run_with_recovery(VARIANTS["cpufree"], config,
                                    checkpoint_every=every)
        np.testing.assert_array_equal(outcome.result, _reference(config))
        assert outcome.restarts == 0
        assert not outcome.recovered

    def test_checkpoint_chain_epochs_and_iterations(self):
        outcome = run_with_recovery(VARIANTS["cpufree"], _config(None),
                                    checkpoint_every=2)
        assert outcome.store.epochs() == [0, 1, 2, 3]
        iters = [c.iteration for c in outcome.store._checkpoints]
        assert iters == [0, 2, 4, 6]
        assert outcome.store.total_bytes() > 0


class TestCrashRecovery:
    def test_recovered_field_byte_identical(self):
        config = _config("crash_recover")
        outcome = run_with_recovery(VARIANTS["cpufree"], config)
        assert outcome.recovered and outcome.restarts == 1
        assert 1 in outcome.crashed_pes
        np.testing.assert_array_equal(outcome.result, _reference(config))

    def test_only_simulated_time_grows(self):
        plan = get_plan("crash_recover")
        clean = run_with_recovery(VARIANTS["cpufree"], _config(None),
                                  checkpoint_every=plan.checkpoint_every)
        crashed = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        np.testing.assert_array_equal(crashed.result, clean.result)
        assert crashed.total_time_us > clean.total_time_us
        # the growth is exactly the accounted lost time
        assert crashed.total_time_us == pytest.approx(
            clean.total_time_us + crashed.lost_time_us)

    def test_lost_time_is_detection_plus_restart_cost(self):
        plan = get_plan("crash_recover")
        outcome = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        attempt = next(a for a in outcome.attempts
                       if a["status"] == "crashed")
        detect_t_local = attempt["detect_t_us"] - attempt["base_us"]
        assert outcome.lost_time_us == pytest.approx(
            detect_t_local + plan.restart_cost_us)
        assert outcome.detect_latency_us > 0.0

    def test_detection_is_quantised_to_heartbeats(self):
        plan = get_plan("crash_recover")
        outcome = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        attempt = next(a for a in outcome.attempts
                       if a["status"] == "crashed")
        detect_local = attempt["detect_t_us"] - attempt["base_us"]
        periods = detect_local / plan.heartbeat_us
        assert periods == pytest.approx(round(periods))

    def test_recovery_works_across_seeds(self):
        for seed in (7, 2024):
            config = _config(f"crash_recover@{seed}")
            outcome = run_with_recovery(VARIANTS["cpufree"], config)
            np.testing.assert_array_equal(outcome.result, _reference(config))
            assert outcome.recovered

    @pytest.mark.parametrize("variant",
                             ["cpufree", "baseline_p2p", "baseline_copy"])
    def test_all_variants_recover(self, variant):
        config = _config("crash_recover")
        outcome = run_with_recovery(VARIANTS[variant], config)
        np.testing.assert_array_equal(outcome.result, _reference(config))
        assert outcome.recovered

    def test_report_is_json_safe(self):
        outcome = run_with_recovery(VARIANTS["cpufree"],
                                    _config("crash_recover"))
        report = outcome.report()
        text = json.dumps(report)  # must not raise
        assert json.loads(text)["recovered"] is True

    def test_recover_metrics_published(self):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            run_with_recovery(VARIANTS["cpufree"], _config("crash_recover"))
        names = {series["name"] for series in registry.to_dict()["counters"]}
        assert "recover.checkpoints" in names
        assert "recover.restarts" in names
        assert "recover.lost_time_us" in names


class TestSegmentMemory:
    @pytest.mark.parametrize("profile, every, kw", [
        (None, 2, {}),
        ("crash_recover", None, {}),
        ("crash_recover@1", 4, {"global_shape": (258, 258), "num_gpus": 8,
                                "iterations": 16}),
    ])
    def test_clean_segments_free_without_the_cycle_collector(self, monkeypatch,
                                                             profile, every, kw):
        """A finished segment's context, simulator and tracer (its heap,
        buffers, calendar and trace rows), clean or crashed, go as soon
        as the next segment replaces it, and the last one when the run
        returns, so peak memory does not depend on when the cycle
        collector last ran."""
        cls = VARIANTS["cpufree"]
        segments = []
        original = cls.__init__

        def tracking_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            segments.append({"ctx": weakref.ref(self.ctx),
                             "sim": weakref.ref(self.ctx.sim),
                             "tracer": weakref.ref(self.ctx.tracer)})

        monkeypatch.setattr(cls, "__init__", tracking_init)
        gc.collect()
        gc.disable()
        try:
            outcome = run_with_recovery(cls, _config(profile, **kw),
                                        checkpoint_every=every)
            alive = [sorted(k for k, ref in refs.items() if ref() is not None)
                     for refs in segments]
        finally:
            gc.enable()
        attempts = outcome.attempts
        assert len(alive) == len(attempts) >= 3
        assert alive == [[]] * len(alive), [a["status"] for a in attempts]

    def test_previous_segment_released_before_the_next_is_built(self, monkeypatch):
        """Only one segment's context is alive at a time, so peak memory
        is one context plus the checkpoints, not two contexts."""
        cls = VARIANTS["cpufree"]
        contexts = []
        alive_at_build = []
        original = cls.__init__

        def tracking_init(self, *args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in contexts))
            original(self, *args, **kwargs)
            contexts.append(weakref.ref(self.ctx))

        monkeypatch.setattr(cls, "__init__", tracking_init)
        gc.collect()
        gc.disable()
        try:
            outcome = run_with_recovery(cls, _config(None), checkpoint_every=2)
        finally:
            gc.enable()
        assert len(alive_at_build) == len(outcome.attempts) >= 3
        assert alive_at_build == [0] * len(alive_at_build)


class TestUnrecoverable:
    def test_no_checkpoints_raises_naming_dead_pe(self):
        # the `crash` profile has no checkpoint cadence: detection
        # works, recovery cannot — the error must name the dead PE
        plan = get_plan("crash")
        with pytest.raises(UnrecoverableCrashError, match="pe1"):
            run_with_recovery(VARIANTS["cpufree"], _config("crash"),
                              plan=plan)


class TestHeapSnapshot:
    def test_nvshmem_variant_checkpoints_capture_heap(self):
        config = _config(None)
        outcome = run_with_recovery(VARIANTS["cpufree"], config,
                                    checkpoint_every=3)
        # epoch 0 is the pre-run scatter (no heap yet); later epochs
        # count the symmetric heap: two parities of the padded slab on
        # every PE
        decomp = SlabDecomposition(SHAPE, config.num_gpus)
        rows = max(decomp.chunk_rows(r) for r in range(config.num_gpus)) + 2
        field_bytes = SHAPE[0] * SHAPE[1] * 8
        heap_bytes = 2 * config.num_gpus * rows * SHAPE[1] * 8
        first, *later = outcome.store._checkpoints
        assert first.nbytes == field_bytes
        assert later and all(c.nbytes == field_bytes + heap_bytes
                             for c in later)


class TestOnePayload:
    """A restart reads only the latest checkpoint's field, so the store
    holds only that one, and recovery memory does not grow with the
    number of segments."""

    CONFIG = _config(None, global_shape=(258, 130), iterations=8)

    def _traced(self, every):
        tracemalloc.start()
        try:
            outcome = run_with_recovery(VARIANTS["cpufree"], self.CONFIG,
                                        checkpoint_every=every)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return outcome, peak

    def test_one_field_held_and_peak_flat_in_segments(self):
        _, peak_2 = self._traced(4)
        outcome, peak_8 = self._traced(1)
        store = outcome.store
        assert len(store) == 9
        held = [c.epoch for c in store._checkpoints if c.state is not None]
        assert held == [store.latest.epoch]
        assert outcome.result is store.latest.state
        np.testing.assert_array_equal(outcome.result, _reference(self.CONFIG))
        assert peak_8 <= peak_2 + outcome.result.nbytes, (peak_2, peak_8)


class TestStoreUnit:
    def test_store_deep_copies_state(self):
        store = CheckpointStore()
        state = np.ones((2, 2))
        store.save(0, state, 0.0)
        state[:] = 5.0
        np.testing.assert_array_equal(store.latest.state, np.ones((2, 2)))

    def test_empty_store(self):
        store = CheckpointStore()
        assert len(store) == 0
        assert store.latest is None
        assert store.total_bytes() == 0


class TestCli:
    def test_cli_reports_byte_identity(self, tmp_path, capsys):
        from repro.recover.__main__ import main

        out = tmp_path / "recovery.json"
        rc = main(["--report-out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["byte_identical"] is True
        assert report["restarts"] >= 1

    def test_cli_unknown_variant_is_cli_error(self):
        from repro.cliutil import CliError
        from repro.recover.__main__ import main

        with pytest.raises(CliError, match="unknown variant"):
            main(["--variant", "bogus"])

    def test_cli_unknown_profile_is_cli_error(self):
        from repro.cliutil import CliError
        from repro.recover.__main__ import main

        with pytest.raises(CliError, match="available"):
            main(["--profile", "bogus"])
