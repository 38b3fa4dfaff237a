"""``Simulator.run`` keeps the cycle collector out of the event loop.

The run pauses the collector and restores the caller's setting on every
exit: a drained calendar, an ``until=`` return, a process that raises,
a deadlock and a watchdog error.  A caller that had switched the
collector off finds it still off.
"""

import gc
import sys

import pytest

from repro.sim import (
    DeadlockError,
    Delay,
    Flag,
    Simulator,
    WaitFlag,
    Watchdog,
    WatchdogError,
)

RUN_CODE = Simulator.run.__code__


def _churn(n=5000):
    """Allocate enough tracked containers to start several gen-0
    collections, were the collector on."""
    return [[] for _ in range(n)]


def _sim(body):
    sim = Simulator()
    sim.spawn(body(sim), name="churn")
    return sim


def _drain():
    def body(sim):
        keep = _churn()
        yield Delay(1.0)
        keep += _churn()
    return _sim(body), None, {}


def _until():
    def body(sim):
        keep = _churn()
        yield Delay(1.0)
        keep += _churn()
        yield Delay(100.0)
    return _sim(body), None, {"until": 50.0}


def _raises():
    def body(sim):
        _churn()
        yield Delay(1.0)
        _churn()
        raise RuntimeError("boom")
    return _sim(body), RuntimeError, {}


def _deadlock():
    def body(sim):
        keep = _churn()
        yield WaitFlag(Flag(sim, 0, name="never"), ge=1)
        keep.clear()
    return _sim(body), DeadlockError, {}


def _watchdog():
    def body(sim):
        flag = Flag(sim, 0, name="halo_sig")
        sim.watchdog.watch(flag)
        keep = _churn()
        yield WaitFlag(flag, ge=1)
        keep.clear()
    sim = Simulator()
    sim.attach_watchdog(Watchdog(1000.0, name="test"))
    sim.spawn(body(sim), name="stuck")
    return sim, WatchdogError, {}


SCENARIOS = {
    "drain": _drain,
    "until": _until,
    "raises": _raises,
    "deadlock": _deadlock,
    "watchdog": _watchdog,
}


@pytest.fixture
def collections_in_run():
    """Generations of the collections that start while ``Simulator.run``
    is on the stack."""
    seen = []

    def hook(phase, info):
        if phase != "start":
            return
        frame = sys._getframe()
        while frame is not None:
            if frame.f_code is RUN_CODE:
                seen.append(info["generation"])
                return
            frame = frame.f_back

    caller_enabled = gc.isenabled()
    gc.callbacks.append(hook)
    try:
        yield seen
    finally:
        gc.callbacks.remove(hook)
        if caller_enabled:
            gc.enable()
        else:
            gc.disable()


@pytest.mark.parametrize("caller_enabled", [True, False],
                         ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_run_pauses_the_collector_and_restores_it(collections_in_run, name,
                                                  caller_enabled):
    sim, error, kwargs = SCENARIOS[name]()
    if caller_enabled:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        sim.run(**kwargs)
    else:
        with pytest.raises(error):
            sim.run(**kwargs)
    assert gc.isenabled() is caller_enabled
    assert collections_in_run == []
    if name == "until":
        assert sim.now == 50.0


def test_the_hook_sees_a_collection_inside_run(collections_in_run):
    """An explicit collection still runs inside ``run``, and the hook
    attributes it there: the empty lists above are not vacuous."""
    def body(sim):
        gc.collect(0)
        yield Delay(1.0)

    _sim(body).run()
    assert collections_in_run == [0]
