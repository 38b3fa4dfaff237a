"""Edge-case tests for the DES engine."""

import pytest

from repro.sim import (
    DeadlockError,
    Delay,
    Flag,
    Simulator,
    WaitFlag,
    WaitProcess,
)


def test_spawn_during_run():
    """A process can spawn others mid-flight; they are scheduled at
    the current time."""
    sim = Simulator()
    log = []

    def child(name):
        yield Delay(1.0)
        log.append((name, sim.now))

    def parent():
        yield Delay(5.0)
        c = sim.spawn(child("dynamic"))
        yield WaitProcess(c)

    sim.spawn(parent())
    sim.run()
    assert log == [("dynamic", 6.0)]


def test_deeply_nested_joins():
    sim = Simulator()

    def leaf():
        yield Delay(1.0)
        return 1

    def node(depth):
        if depth == 0:
            result = yield WaitProcess(sim.spawn(leaf()))
        else:
            result = yield WaitProcess(sim.spawn(node(depth - 1)))
        return result + 1

    root = sim.spawn(node(20))
    sim.run()
    assert root.result == 22
    assert sim.now == 1.0


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def worker(i):
        yield Delay(float(i % 7))
        done.append(i)

    for i in range(2000):
        sim.spawn(worker(i))
    sim.run()
    assert len(done) == 2000


def test_flag_set_to_same_value_skips_waiter_scan():
    """A no-op write is not a wake event: predicates are functions of
    the flag value, so re-checking them on an unchanged value is pure
    scheduler churn (and is skipped)."""
    sim = Simulator()
    flag = Flag(sim, 0)
    woke = []

    def waiter():
        yield WaitFlag(flag, lambda v: v >= 1)
        woke.append(sim.now)

    def setter():
        yield Delay(1.0)
        flag.set(0)  # no-op write: nobody wakes
        yield Delay(1.0)
        flag.set(1)

    sim.spawn(waiter())
    sim.spawn(setter())
    sim.run()
    assert woke == [2.0]
    assert flag.value == 1


def test_process_returning_none():
    sim = Simulator()

    def proc():
        yield Delay(1.0)

    p = sim.spawn(proc())
    sim.run()
    assert p.result is None


def test_generator_that_never_yields():
    sim = Simulator()

    def instant():
        return 42
        yield  # pragma: no cover

    p = sim.spawn(instant())
    sim.run()
    assert p.result == 42


def test_multiple_joiners_on_one_process():
    sim = Simulator()
    got = []

    def producer():
        yield Delay(3.0)
        return "value"

    target = sim.spawn(producer())

    def consumer(i):
        result = yield WaitProcess(target)
        got.append((i, result))

    for i in range(3):
        sim.spawn(consumer(i))
    sim.run()
    assert sorted(got) == [(0, "value"), (1, "value"), (2, "value")]


def test_deadlock_reports_all_blocked_processes():
    sim = Simulator()
    f1, f2 = sim.flag(0, "f1"), sim.flag(0, "f2")

    def stuck(flag):
        yield WaitFlag(flag, lambda v: v == 1)

    sim.spawn(stuck(f1), name="alpha")
    sim.spawn(stuck(f2), name="beta")
    with pytest.raises(DeadlockError) as err:
        sim.run()
    assert "alpha" in str(err.value) and "beta" in str(err.value)


def test_run_until_zero_on_pending_events():
    sim = Simulator()

    def proc():
        yield Delay(5.0)

    sim.spawn(proc())
    assert sim.run(until=0.0) == 0.0
    # events still pending; finishing the run completes them
    assert sim.run() == 5.0


def test_time_never_goes_backwards():
    sim = Simulator()
    stamps = []

    def worker(dt):
        for _ in range(5):
            yield Delay(dt)
            stamps.append(sim.now)

    sim.spawn(worker(1.0))
    sim.spawn(worker(0.3))
    sim.run()
    assert stamps == sorted(stamps)

