"""Properties of the NVSHMEM delivery path on random put bursts.

Every delivery leg is a chain of engine callbacks, whatever observes
it, and a blocking put waits for its own leg.  Random bursts of
``putmem_signal_nbi`` and blocking ``putmem_signal`` on 3 PEs (each
source writes its own slice of the destination, some puts followed by
a ``fence``) check that

* attaching the sanitizer observes the run without changing it:
  simulated time, memory, signal words and the Chrome trace agree;
* under a jitter + drop fault plan every route stays FIFO: the final
  memory is the issue-order result and every signal update lands once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DeliveryFault, FaultPlan, LinkFault
from repro.hw import HGX_A100_8GPU
from repro.nvshmem import NVSHMEMRuntime, SignalOp
from repro.runtime import MultiGPUContext
from repro.sanitize import attach_sanitizer
from repro.sim import Tracer

PES = 3
SLOT = 64

put_bursts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=PES - 1),  # src pe
        st.integers(min_value=0, max_value=PES - 1),  # dst pe
        st.integers(min_value=1, max_value=SLOT),     # elements
        st.booleans(),                                # fence after the put
        st.booleans(),                                # blocking put
    ).filter(lambda t: t[0] != t[1]),
    min_size=1, max_size=12)

JITTER_DROP = FaultPlan(name="jitter_drop", seed=7, retry_limit=30,
                        links=(LinkFault(jitter_us=2.0),),
                        deliveries=(DeliveryFault(drop_prob=0.3),))


def _burst(puts, *, sanitize=False, plan=None):
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(PES), tracer=Tracer(),
                          faults=plan.injector() if plan is not None else None)
    if sanitize:
        attach_sanitizer(ctx)
    rt = NVSHMEMRuntime(ctx)
    arr = rt.malloc("a", (PES * SLOT,), fill=0.0)
    sig = rt.malloc_signals("sig", PES)

    def sender(pe):
        dev = rt.device(pe)
        for k, (src, dst, n, fence, blocking) in enumerate(puts, start=1):
            if src != pe:
                continue
            lo = src * SLOT
            put = dev.putmem_signal if blocking else dev.putmem_signal_nbi
            yield from put(arr, slice(lo, lo + n), np.full(n, float(k)), sig, src, 1,
                           dest_pe=dst, sig_op=SignalOp.ADD)
            if fence:
                yield from dev.fence()
        yield from dev.quiet()

    for pe in range(PES):
        ctx.sim.spawn(sender(pe), name=f"pe{pe}")
    total = ctx.run()
    memory = tuple(arr.local(pe).tobytes() for pe in range(PES))
    signals = tuple(sig.flag(pe, s).value for pe in range(PES) for s in range(PES))
    return total, memory, signals, ctx.tracer.to_chrome_trace()


def _issue_order_memory(puts):
    """Final memory when every route applies its puts in issue order."""
    memory = [np.zeros(PES * SLOT) for _ in range(PES)]
    for k, (src, dst, n, _, _) in enumerate(puts, start=1):
        memory[dst][src * SLOT:src * SLOT + n] = float(k)
    return tuple(m.tobytes() for m in memory)


@given(put_bursts)
@settings(max_examples=30, deadline=None)
def test_sanitizer_observes_without_changing_the_run(puts):
    assert _burst(puts, sanitize=True) == _burst(puts)


@given(put_bursts)
@settings(max_examples=30, deadline=None)
def test_fault_plan_keeps_every_route_fifo(puts):
    _, memory, signals, _ = _burst(puts, plan=JITTER_DROP)
    assert memory == _issue_order_memory(puts)
    assert signals == _burst(puts)[2]
