"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import (
    DeadlockError,
    Delay,
    Flag,
    ProcessFailed,
    SimulationError,
    Simulator,
    WaitFlag,
    WaitProcess,
)


def test_empty_run_finishes_at_zero():
    sim = Simulator()
    assert sim.run() == 0.0


def test_single_delay_advances_time():
    sim = Simulator()

    def proc():
        yield Delay(5.0)
        return 42

    p = sim.spawn(proc())
    assert sim.run() == 5.0
    assert p.result == 42
    assert not p.alive


def test_sequential_delays_accumulate():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        yield Delay(2.5)
        yield Delay(0.5)

    sim.spawn(proc())
    assert sim.run() == pytest.approx(4.0)


def test_zero_delay_is_legal():
    sim = Simulator()

    def proc():
        yield Delay(0.0)

    sim.spawn(proc())
    assert sim.run() == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_parallel_processes_run_to_max_time():
    sim = Simulator()
    order = []

    def worker(name, dt):
        yield Delay(dt)
        order.append(name)

    sim.spawn(worker("slow", 10.0))
    sim.spawn(worker("fast", 1.0))
    assert sim.run() == 10.0
    assert order == ["fast", "slow"]


def test_same_time_events_fifo_by_spawn_order():
    sim = Simulator()
    order = []

    def worker(name):
        yield Delay(1.0)
        order.append(name)

    for name in "abc":
        sim.spawn(worker(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_wait_flag_blocks_until_set():
    sim = Simulator()
    flag = sim.flag(0, name="f")
    log = []

    def waiter():
        value = yield WaitFlag(flag, lambda v: v >= 3)
        log.append(("woke", sim.now, value))

    def setter():
        yield Delay(2.0)
        flag.set(1)
        yield Delay(2.0)
        flag.set(3)

    sim.spawn(waiter())
    sim.spawn(setter())
    sim.run()
    assert log == [("woke", 4.0, 3)]


def test_wait_flag_already_satisfied_resumes_immediately():
    sim = Simulator()
    flag = sim.flag(7)

    def waiter():
        v = yield WaitFlag(flag, lambda v: v == 7)
        assert v == 7
        yield Delay(1.0)

    sim.spawn(waiter())
    assert sim.run() == 1.0


def test_flag_add_wakes_waiters():
    sim = Simulator()
    flag = sim.flag(0)
    woke = []

    def waiter():
        yield WaitFlag(flag, lambda v: v >= 2)
        woke.append(sim.now)

    def adder():
        for _ in range(3):
            yield Delay(1.0)
            flag.add(1)

    sim.spawn(waiter())
    sim.spawn(adder())
    sim.run()
    assert woke == [2.0]
    assert flag.value == 3


def test_multiple_waiters_on_one_flag():
    sim = Simulator()
    flag = sim.flag(0)
    woke = []

    def waiter(threshold):
        yield WaitFlag(flag, lambda v, t=threshold: v >= t)
        woke.append(threshold)

    for t in (3, 1, 2):
        sim.spawn(waiter(t))

    def setter():
        yield Delay(1.0)
        flag.set(2)
        yield Delay(1.0)
        flag.set(3)

    sim.spawn(setter())
    sim.run()
    assert woke == [1, 2, 3]


def test_join_process_gets_result():
    sim = Simulator()

    def child():
        yield Delay(3.0)
        return "payload"

    def parent():
        c = sim.spawn(child(), name="child")
        result = yield WaitProcess(c)
        assert result == "payload"
        assert sim.now == 3.0

    sim.spawn(parent(), name="parent")
    sim.run()


def test_join_finished_process_returns_instantly():
    sim = Simulator()

    def child():
        return "early"
        yield  # pragma: no cover

    def parent():
        c = sim.spawn(child())
        yield Delay(5.0)
        result = yield WaitProcess(c)
        assert result == "early"

    sim.spawn(parent())
    sim.run()


def test_yield_process_directly_is_join_shorthand():
    sim = Simulator()

    def child():
        yield Delay(1.0)
        return 99

    def parent():
        result = yield sim.spawn(child())
        assert result == 99

    sim.spawn(parent())
    sim.run()


def test_deadlock_detection_names_blocked_process():
    sim = Simulator()
    flag = sim.flag(0, name="never_set")

    def stuck():
        yield WaitFlag(flag, lambda v: v == 1)

    sim.spawn(stuck(), name="stuck_proc")
    with pytest.raises(DeadlockError, match="stuck_proc"):
        sim.run()


def test_exception_in_process_propagates():
    sim = Simulator()

    def bad():
        yield Delay(1.0)
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_join_failed_process_raises_processfailed():
    sim = Simulator()

    def bad():
        return None
        yield  # pragma: no cover

    def parent(target):
        yield WaitProcess(target)

    p = sim.spawn(bad())
    p.alive = False
    p.error = RuntimeError("died")
    sim.spawn(parent(p))
    with pytest.raises(ProcessFailed):
        sim.run()


def test_unsupported_yield_value_raises():
    sim = Simulator()

    def weird():
        yield "not a command"

    sim.spawn(weird())
    with pytest.raises(SimulationError, match="unsupported command"):
        sim.run()


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_run_until_pauses_and_resumes():
    def build():
        sim = Simulator()
        log = []

        def proc():
            yield Delay(5.0)
            yield Delay(1.0)
            log.append(sim.now)

        sim.spawn(proc())
        return sim, log

    sim, log = build()
    assert sim.run(until=4.0) == 4.0
    assert log == []
    assert sim.run() == 6.0
    assert log == [6.0]
    # The event held back at `until` is counted once, when dispatched:
    # a split run publishes the same counters as an uninterrupted one.
    whole, _ = build()
    whole.run()
    counters = [(s.n_events, s.n_heap_pops, s.n_ready_pops) for s in (sim, whole)]
    assert counters == [(3, 2, 1), (3, 2, 1)]


def test_determinism_identical_runs():
    def build():
        sim = Simulator()
        flag = sim.flag(0)
        trace = []

        def ping():
            for i in range(5):
                yield Delay(1.5)
                flag.add(1)
                trace.append(("ping", sim.now))

        def pong():
            for i in range(1, 6):
                yield WaitFlag(flag, lambda v, i=i: v >= i)
                trace.append(("pong", sim.now))

        sim.spawn(ping())
        sim.spawn(pong())
        sim.run()
        return trace

    assert build() == build()


def test_callback_runs_as_main_not_as_last_stepped_process():
    """A flag released from a call_at callback is attributed to main
    (None), not to whichever process happened to step last."""
    from repro.sanitize.hb import HBMonitor

    releasers = []

    class Recording(HBMonitor):
        def released(self, flag, releaser):
            releasers.append(releaser)
            super().released(flag, releaser)

    sim = Simulator()
    sim.monitor = Recording()
    flag = sim.flag(0)

    def worker():
        yield Delay(1.0)

    sim.spawn(worker(), name="worker")
    sim.call_at(2.0, lambda: flag.add(1))
    sim.run()
    assert releasers == [None]


def test_callbacks_count_as_dispatched_events():
    sim = Simulator()
    sim.call_at(0.0, lambda: None)
    sim.call_at(3.0, lambda: None)
    sim.run()
    assert (sim.n_events, sim.n_ready_pops, sim.n_heap_pops) == (2, 1, 1)
    assert sim.n_callbacks == 2
