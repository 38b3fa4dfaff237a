"""Watchdog, wait timeouts, and the enriched deadlock report."""

import math

import pytest

from repro.sim import (
    TIMEOUT,
    DeadlockError,
    Delay,
    Flag,
    Simulator,
    WaitFlag,
    WaitProcess,
    Watchdog,
    WatchdogError,
)


class TestDelayValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Delay(-1.0)

    def test_nan_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Delay(math.nan)

    def test_zero_and_positive_ok(self):
        Delay(0.0)
        Delay(2.5)


class TestWaitFlagTimeout:
    def test_timeout_resumes_with_sentinel(self):
        sim = Simulator()
        flag = Flag(sim, 0, name="never")
        seen = []

        def waiter():
            result = yield WaitFlag(flag, lambda v: v >= 1, timeout=5.0)
            seen.append((result, sim.now))

        sim.spawn(waiter())
        sim.run()
        assert seen == [(TIMEOUT, 5.0)]

    def test_satisfied_wait_cancels_timeout(self):
        """A resolved wait must discard its timeout token — the dead
        token must not inflate final simulated time past the resolution."""
        sim = Simulator()
        flag = Flag(sim, 0, name="soon")
        seen = []

        def setter():
            yield Delay(2.0)
            flag.set(1)

        def waiter():
            result = yield WaitFlag(flag, lambda v: v >= 1, timeout=100.0)
            seen.append(result)

        sim.spawn(setter())
        sim.spawn(waiter())
        total = sim.run()
        assert seen == [1]
        assert total == 2.0  # not 100.0

    def test_timeout_then_rewait_succeeds(self):
        sim = Simulator()
        flag = Flag(sim, 0, name="late")
        seen = []

        def setter():
            yield Delay(10.0)
            flag.set(7)

        def waiter():
            result = yield WaitFlag(flag, lambda v: v >= 1, timeout=3.0)
            assert result is TIMEOUT
            result = yield WaitFlag(flag, lambda v: v >= 1)
            seen.append((result, sim.now))

        sim.spawn(setter())
        sim.spawn(waiter())
        sim.run()
        assert seen == [(7, 10.0)]

    @pytest.mark.parametrize("condition", [{"ge": 1}, {"predicate": lambda v: v >= 1}])
    def test_timeout_event_counts(self, condition):
        """Spawn, timed wait, finish: the spawn step pops the ready
        queue, the timeout token pops the calendar and is the second
        (and last) process step."""
        sim = Simulator()
        flag = Flag(sim, 0, name="never")

        def waiter():
            return (yield WaitFlag(flag, timeout=5.0, **condition))

        proc = sim.spawn(waiter())
        assert sim.run() == 5.0
        assert proc.result is TIMEOUT
        assert (sim.n_events, sim.n_heap_pops, sim.n_ready_pops) == (2, 1, 1)

    def test_nonpositive_timeout_rejected(self):
        sim = Simulator()
        flag = Flag(sim, 0)
        with pytest.raises(ValueError, match="timeout"):
            WaitFlag(flag, lambda v: v > 0, timeout=0.0)


class TestWatchdog:
    def _hang(self, budget=10.0, keep_alive_until=100.0):
        """One proc stuck on a watched flag, one keeping the heap busy."""
        sim = Simulator()
        wd = Watchdog(budget, name="test")
        sim.attach_watchdog(wd)
        flag = Flag(sim, 0, name="halo_sig")
        wd.watch(flag)

        def stuck():
            yield WaitFlag(flag, lambda v: v >= 1)

        def busy():
            while sim.now < keep_alive_until:
                yield Delay(7.0)

        sim.spawn(stuck(), name="stuck_pe1")
        sim.spawn(busy(), name="busy_pe0")
        return sim, wd

    def test_fires_at_deadline_while_heap_alive(self):
        sim, wd = self._hang(budget=10.0)
        with pytest.raises(WatchdogError) as err:
            sim.run()
        assert wd.fired
        assert sim.now == 10.0  # blocked-since 0 + budget
        message = str(err.value)
        assert "stuck_pe1" in message
        assert "halo_sig" in message
        assert "budget" in message

    def test_fires_on_drain_before_deadline(self):
        """Quiescence-without-progress: the heap empties while a proc
        still waits on a watched flag — diagnose instead of deadlock."""
        sim = Simulator()
        wd = Watchdog(1000.0, name="test")
        sim.attach_watchdog(wd)
        flag = Flag(sim, 0, name="halo_sig")
        wd.watch(flag)

        def stuck():
            yield WaitFlag(flag, lambda v: v >= 1)

        sim.spawn(stuck(), name="stuck_pe1")
        with pytest.raises(WatchdogError, match="halo_sig"):
            sim.run()

    def test_watchdog_error_is_deadlock_error(self):
        assert issubclass(WatchdogError, DeadlockError)

    def test_no_fire_when_signal_arrives_in_time(self):
        sim = Simulator()
        wd = Watchdog(50.0, name="test")
        sim.attach_watchdog(wd)
        flag = Flag(sim, 0, name="halo_sig")
        wd.watch(flag)
        seen = []

        def setter():
            yield Delay(5.0)
            flag.set(1)

        def waiter():
            value = yield WaitFlag(flag, lambda v: v >= 1)
            seen.append(value)

        sim.spawn(setter())
        sim.spawn(waiter())
        sim.run()
        assert not wd.fired
        assert seen == [1]

    def test_rearmed_wait_gets_fresh_budget(self):
        """Each successful wait restarts the clock: repeated short waits
        on a watched flag never trip a budget larger than each gap."""
        sim = Simulator()
        wd = Watchdog(10.0, name="test")
        sim.attach_watchdog(wd)
        flag = Flag(sim, 0, name="halo_sig")
        wd.watch(flag)

        def setter():
            for it in range(1, 6):
                yield Delay(8.0)  # each gap under budget, total far over
                flag.set(it)

        def waiter():
            for it in range(1, 6):
                yield WaitFlag(flag, lambda v, it=it: v >= it)

        sim.spawn(setter())
        sim.spawn(waiter())
        sim.run()
        assert not wd.fired

    def test_context_provider_lines_in_message(self):
        sim = Simulator()
        wd = Watchdog(10.0, name="test")
        wd.add_context(lambda flag: f"last attempt for {flag.name}: lost")
        sim.attach_watchdog(wd)
        flag = Flag(sim, 0, name="halo_sig")
        wd.watch(flag)

        def stuck():
            yield WaitFlag(flag, lambda v: v >= 1)

        def busy():
            while sim.now < 100.0:
                yield Delay(7.0)

        sim.spawn(stuck(), name="stuck_pe1")
        sim.spawn(busy(), name="busy_pe0")
        with pytest.raises(WatchdogError, match="last attempt for halo_sig: lost"):
            sim.run()

    def test_per_flag_budget_override(self):
        sim = Simulator()
        wd = Watchdog(1000.0, name="test")
        sim.attach_watchdog(wd)
        flag = Flag(sim, 0, name="halo_sig")
        wd.watch(flag, budget_us=5.0)

        def stuck():
            yield WaitFlag(flag, lambda v: v >= 1)

        def busy():
            while sim.now < 100.0:
                yield Delay(7.0)

        sim.spawn(stuck(), name="stuck")
        sim.spawn(busy(), name="busy")
        with pytest.raises(WatchdogError):
            sim.run()
        assert sim.now == 5.0


class TestDeadlockReport:
    def test_report_names_flag_and_block_time(self):
        sim = Simulator()
        flag = Flag(sim, 0, name="stuck_flag")

        def stuck():
            yield Delay(3.0)
            yield WaitFlag(flag, lambda v: v >= 1)

        sim.spawn(stuck(), name="stuck_proc")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        message = str(err.value)
        assert "stuck_proc" in message
        assert "stuck_flag" in message
        assert "t=3.000" in message
        assert "spawned at" in message

    def test_join_chain_names_root_blocker(self):
        """A -> joins B -> joins C (stuck on a flag): the report chases
        the chain and names C as the root blocker."""
        sim = Simulator()
        flag = Flag(sim, 0, name="root_flag")

        def leaf():
            yield WaitFlag(flag, lambda v: v >= 1)

        def middle(proc):
            yield WaitProcess(proc)

        c = sim.spawn(leaf(), name="c_leaf")
        b = sim.spawn(middle(c), name="b_middle")
        sim.spawn(middle(b), name="a_top")
        with pytest.raises(DeadlockError) as err:
            sim.run()
        message = str(err.value)
        assert "root blocker" in message
        assert "c_leaf" in message
        assert "root_flag" in message
        assert "join chain" in message
