"""PE crash faults: validation, deterministic timing, kill scope, and
the diagnostic/recovery judging in the resilience harness."""

import numpy as np
import pytest

import repro.stencil.variants  # noqa: F401 - populate the registry
from repro.faults import FaultPlan, PECrashFault, get_plan
from repro.faults.inject import use_crash_context
from repro.faults.profiles import PROFILES, UnknownProfileError
from repro.stencil import StencilConfig
from repro.stencil.base import VARIANTS

SHAPE = (34, 66)


def _config(profile, **kw):
    kw.setdefault("global_shape", SHAPE)
    kw.setdefault("num_gpus", 2)
    kw.setdefault("iterations", 6)
    return StencilConfig(fault_profile=profile, **kw)


class TestPECrashFaultValidation:
    def test_negative_pe_rejected(self):
        with pytest.raises(ValueError, match="pe"):
            PECrashFault(pe=-1)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window_us"):
            PECrashFault(pe=0, window_us=(10.0, 5.0))

    def test_negative_pinned_time_rejected(self):
        with pytest.raises(ValueError, match="at_us"):
            PECrashFault(pe=0, at_us=-1.0)

    def test_plan_recovery_knobs_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            FaultPlan(checkpoint_every=0)
        with pytest.raises(ValueError, match="restart_cost_us"):
            FaultPlan(restart_cost_us=-1.0)
        with pytest.raises(ValueError, match="heartbeat_us"):
            FaultPlan(heartbeat_us=0.0)
        with pytest.raises(ValueError, match="heartbeat_misses"):
            FaultPlan(heartbeat_misses=0)

    def test_plan_with_crashes_is_not_inert(self):
        plan = FaultPlan(crashes=(PECrashFault(pe=0, at_us=5.0),))
        assert not plan.inert


class TestProfiles:
    def test_crash_profiles_registered(self):
        assert "crash" in PROFILES
        assert "crash_recover" in PROFILES

    def test_unknown_profile_is_cli_error_naming_choices(self):
        with pytest.raises(UnknownProfileError, match="available"):
            get_plan("bogus")
        # backward compatible with callers that caught ValueError
        with pytest.raises(ValueError):
            get_plan("bogus")

    def test_crash_recover_plan_has_recovery_knobs(self):
        plan = get_plan("crash_recover")
        assert plan.expect == "recover"
        assert plan.checkpoint_every is not None
        assert plan.crashes and plan.crashes[0].pe == 1


class TestCrashExecution:
    def test_crash_time_deterministic_per_seed(self):
        times = set()
        for _ in range(3):
            instance = VARIANTS["cpufree"](_config("crash"))
            times.add(instance.faults.crash_time(1))
        assert len(times) == 1

    def test_crash_time_moves_with_seed(self):
        a = VARIANTS["cpufree"](_config("crash")).faults.crash_time(1)
        b = VARIANTS["cpufree"](_config("crash@7")).faults.crash_time(1)
        assert a != b

    def test_crash_kills_only_the_dead_pes_processes(self):
        from repro.sim import DeadlockError, ProcessKilled, WatchdogError

        instance = VARIANTS["cpufree"](_config("crash"))
        with pytest.raises((DeadlockError, WatchdogError)):
            instance.run()
        assert 1 in instance.faults.crashed
        sim = instance.ctx.sim
        for proc in sim._processes:
            if isinstance(proc.error, ProcessKilled):
                assert proc.name.startswith("gpu1.") \
                    or proc.name.endswith(".host1"), proc.name

    def test_crash_instant_lands_in_trace(self):
        from repro.sim import DeadlockError, WatchdogError

        instance = VARIANTS["cpufree"](_config("crash"))
        with pytest.raises((DeadlockError, WatchdogError)):
            instance.run()
        crash_t = instance.faults.crashed[1]
        instants = [(t, name) for t, name, _, _ in
                    instance.tracer.instant_events if "pe_crash" in name]
        assert instants and instants[0][0] == crash_t

    def test_crash_recorded_in_summary_and_events(self):
        from repro.sim import DeadlockError, WatchdogError

        instance = VARIANTS["cpufree"](_config("crash"))
        with pytest.raises((DeadlockError, WatchdogError)):
            instance.run()
        summary = instance.faults.summary()
        assert "1" in summary["crashed_pes"]
        assert any(e.kind == "pe_crash" for e in instance.faults.events)

    def test_watchdog_diagnostic_names_dead_pe(self):
        from repro.sim import DeadlockError, WatchdogError

        instance = VARIANTS["cpufree"](_config("crash"))
        with pytest.raises((DeadlockError, WatchdogError)) as excinfo:
            instance.run()
        if isinstance(excinfo.value, WatchdogError):
            assert "dead PEs" in str(excinfo.value)

    def test_consumed_crash_does_not_fire(self):
        with use_crash_context(0.0, frozenset({1})):
            instance = VARIANTS["cpufree"](_config("crash"))
        result = instance.run()
        assert instance.faults.crashed == {}
        clean = VARIANTS["cpufree"](_config(None)).run()
        np.testing.assert_array_equal(result.result, clean.result)

    def test_base_shift_moves_crash_out_of_segment(self):
        # the run lasts ~30us; shifting the base past the crash window
        # leaves this segment crash-free
        with use_crash_context(10_000.0, frozenset()):
            instance = VARIANTS["cpufree"](_config("crash"))
        instance.run()
        assert instance.faults.crashed == {}


class TestHarnessJudging:
    def test_crash_cell_is_diagnostic(self):
        from repro.faults.harness import run_cell

        cell = run_cell("cpufree", "crash", shape=SHAPE, num_gpus=2,
                        iterations=6)
        assert cell["status"] == "diagnostic"
        assert cell["ok"]

    def test_crash_recover_cell_recovers_byte_identical(self):
        from repro.faults.harness import run_cell

        cell = run_cell("cpufree", "crash_recover", shape=SHAPE, num_gpus=2,
                        iterations=6)
        assert cell["status"] == "recovered"
        assert cell["ok"]
        assert cell["recover"]["restarts"] >= 1
