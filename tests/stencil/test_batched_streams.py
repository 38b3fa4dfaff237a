"""Stream items in batched runs: an item starts at the member-wise max
of its enqueue time and its predecessor's completion, and the joint
total bounds every member's last stream completion even when no
process finishes after it."""

from repro.hw import HGX_A100_8GPU
from repro.runtime import MultiGPUContext
from repro.sim import Delay
from repro.sim.stacked import members, stacked_val
from repro.stencil.batch import joint_total


def test_item_on_pilot_idle_stream_waits_for_a_lagging_member():
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(1))
    sim = ctx.sim
    stream = ctx.stream(0, "s")
    spans = []

    def record(start):
        spans.append((members(start, 2), members(sim.now, 2)))

    def host():
        # a ends at (2, 5); the pilot sees the stream idle at t=3, but
        # member 1 enqueues b at t=4, while a still runs there
        stream.enqueue_op(lambda: stacked_val([2.0, 5.0]), record, name="a")
        yield Delay(stacked_val([3.0, 4.0]))
        assert stream.idle
        stream.enqueue_op(lambda: 1.0, record, name="b")

    def bystander():
        # the pilot's last event; member 1 gets there before b ends
        yield Delay(stacked_val([10.0, 5.5]))

    sim.spawn(host(), name="host")
    sim.spawn(bystander(), name="bystander")
    final = ctx.run()
    assert spans == [((0.0, 0.0), (2.0, 5.0)), ((3.0, 5.0), (4.0, 6.0))]
    assert members(final, 2) == (10.0, 5.5)
    # no process finishes at member 1's t=6: only the stream knows
    assert members(joint_total(ctx, final), 2) == (10.0, 6.0)
