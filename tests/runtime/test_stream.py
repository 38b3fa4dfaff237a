"""Tests for streams and events."""

import pytest

from repro.sim import Delay, Simulator
from repro.runtime.stream import Event, Stream


def make_stream():
    sim = Simulator()
    return sim, Stream(sim, device=0, name="s")


def test_new_stream_is_idle():
    _, stream = make_stream()
    assert stream.idle


def test_items_run_in_fifo_order():
    sim, stream = make_stream()
    order = []

    def item(name, dt):
        def work():
            yield Delay(dt)
            order.append((name, sim.now))
        return work

    stream.enqueue(item("a", 5.0))
    stream.enqueue(item("b", 1.0))  # shorter, but must run after a
    sim.run()
    assert order == [("a", 5.0), ("b", 6.0)]


def test_distinct_streams_run_concurrently():
    sim = Simulator()
    s1 = Stream(sim, 0, "s1")
    s2 = Stream(sim, 0, "s2")
    done = []

    def work(name, dt):
        def body():
            yield Delay(dt)
            done.append((name, sim.now))
        return body

    s1.enqueue(work("a", 5.0))
    s2.enqueue(work("b", 5.0))
    sim.run()
    # both finish at t=5: true concurrency, not serialization
    assert done == [("a", 5.0), ("b", 5.0)]


def test_enqueue_delay():
    sim, stream = make_stream()
    stream.enqueue_delay(3.0)
    stream.enqueue_delay(4.0)
    assert sim.run() == 7.0
    assert stream.idle


def test_event_completes_with_work():
    sim, stream = make_stream()
    ev = stream.enqueue_delay(5.0)
    assert not ev.complete
    sim.run()
    assert ev.complete


def test_record_event_marks_prior_work():
    sim, stream = make_stream()
    stream.enqueue_delay(5.0)
    ev = stream.record_event("marker")
    woke = []

    def waiter():
        yield from ev.wait()
        woke.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert woke == [5.0]


def test_record_event_on_idle_stream_already_complete():
    _, stream = make_stream()
    ev = stream.record_event()
    assert ev.complete


def test_wait_event_cross_stream_dependency():
    sim = Simulator()
    producer = Stream(sim, 0, "prod")
    consumer = Stream(sim, 1, "cons")
    log = []

    producer.enqueue_delay(10.0, name="produce")
    ev = producer.record_event("produced")
    consumer.wait_event(ev)

    def consume():
        yield Delay(1.0)
        log.append(sim.now)

    consumer.enqueue(consume, name="consume")
    sim.run()
    assert log == [11.0]


def test_drained_waits_for_all_items():
    sim, stream = make_stream()
    stream.enqueue_delay(2.0)
    stream.enqueue_delay(3.0)
    t = []

    def host():
        yield from stream.drained()
        t.append(sim.now)

    sim.spawn(host())
    sim.run()
    assert t == [5.0]


def test_drained_captures_tail_at_call_time():
    """Work enqueued *after* drained() starts should not extend the wait."""
    sim, stream = make_stream()
    stream.enqueue_delay(2.0)
    t = []

    def host():
        yield from stream.drained()
        t.append(sim.now)
        stream.enqueue_delay(10.0)

    sim.spawn(host())
    sim.run()
    assert t == [2.0]


def test_items_start_one_hop_after_enqueue_and_op_items_spawn_no_process():
    sim, stream = make_stream()
    log = []

    def host():
        stream.enqueue_op(lambda: log.append(("begin", sim.now)) or 2.0,
                          lambda start: log.append(("end", start, sim.now)))
        log.append(("host", sim.now))  # the item has not started yet
        yield from stream.drained()

    sim.spawn(host())
    sim.run()
    assert log == [("host", 0.0), ("begin", 0.0), ("end", 0.0, 2.0)]
    assert sim.n_spawned == 1  # the host only


def test_next_item_starts_ahead_of_hosts_waiting_on_the_previous():
    """Completion schedules the successor before waking the previous
    item's waiters, as the successor was the earliest waiter."""
    sim, stream = make_stream()
    log = []
    first = stream.enqueue_delay(3.0)
    stream.enqueue_op(lambda: log.append("second") or 1.0)

    def host():
        yield from first.wait()
        log.append("host")

    sim.spawn(host())
    sim.run()
    assert log == ["second", "host"]


def test_negative_delay_rejected_at_enqueue():
    _, stream = make_stream()
    with pytest.raises(ValueError, match="non-negative"):
        stream.enqueue_delay(-1.0)


class _Crashed:
    """Stand-in fault injector: ``crashed`` maps dead devices to times."""

    def __init__(self):
        self.crashed = {}


def test_stream_of_crashed_device_stops_fail_stop():
    sim = Simulator()
    faults = _Crashed()
    stream = Stream(sim, 0, "s", faults)
    ran = []
    first = stream.enqueue_op(lambda: 5.0, lambda start: ran.append("first"))
    stream.enqueue_op(lambda: ran.append("second") or 1.0)
    sim.call_at(2.0, lambda: faults.crashed.setdefault(0, 2.0))
    sim.run()
    assert ran == []
    assert not first.complete and not stream.idle


# -- happens-before edges of stream items (sanitizer) ------------------------


def _stamp(sim):
    """(tid, clock) of whatever runs now: a process or an op item."""
    monitor = sim.monitor
    return monitor.tid_of(sim.current), dict(monitor.clock_of(sim.current))


def _enqueue_stamped(stream, name, dt, stamps, kind):
    """Enqueue an item that stamps its clock when it starts and ends."""
    sim = stream.sim
    if kind == "process":
        def work():
            stamps[f"{name}.start"] = _stamp(sim)
            yield Delay(dt)
            stamps[f"{name}.end"] = _stamp(sim)
        stream.enqueue(work, name=name)
    else:
        def begin():
            stamps[f"{name}.start"] = _stamp(sim)
            return dt

        def end(start):
            stamps[f"{name}.end"] = _stamp(sim)
        stream.enqueue_op(begin, end, name=name)


def _monitored():
    from repro.sanitize.hb import HBMonitor

    sim = Simulator()
    sim.monitor = HBMonitor()
    return sim, Stream(sim, 0, "s")


@pytest.mark.parametrize("kind", ["process", "op"])
def test_item_on_idle_stream_happens_after_previous_item(kind):
    """No host sync between the two items: the only edge from ``a`` to
    ``b`` is ``b`` acquiring ``a``'s completion when it starts."""
    from repro.sanitize.hb import happens_before

    sim, stream = _monitored()
    stamps = {}

    def host():
        _enqueue_stamped(stream, "a", 2.0, stamps, kind)
        yield Delay(5.0)
        assert stream.idle
        _enqueue_stamped(stream, "b", 1.0, stamps, kind)

    sim.spawn(host(), name="host")
    sim.run()
    tid, clock = stamps["a.end"]
    assert happens_before(tid, clock, stamps["b.start"][1])


@pytest.mark.parametrize("kind", ["process", "op"])
def test_item_behind_busy_stream_happens_after_host_writes(kind):
    """The host writes after enqueueing ``a``, then enqueues ``b``
    behind the still-running ``a``: ``b`` must see the write even
    though it starts from ``a``'s completion, not from the host."""
    from repro.sanitize.hb import happens_before

    sim, stream = _monitored()
    stamps = {}

    def host():
        _enqueue_stamped(stream, "a", 10.0, stamps, kind)
        yield Delay(1.0)
        stamps["host.write"] = _stamp(sim)
        assert not stream.idle
        _enqueue_stamped(stream, "b", 1.0, stamps, kind)

    sim.spawn(host(), name="host")
    sim.run()
    tid, clock = stamps["host.write"]
    assert happens_before(tid, clock, stamps["b.start"][1])
