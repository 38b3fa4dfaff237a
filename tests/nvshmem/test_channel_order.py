"""Channel sequencing under fault-mode retries.

Fault mode turns each delivery into an independent retry loop, so two
puts on the same ``(src, dst)`` route can *finish their wire legs* out
of order (an early put stuck in backoff while a later one sails
through).  The per-route sequence numbers counted by
``NVSHMEMRuntime.route_issue`` must still force effects to apply in
issue order — FIFO per route, exactly like the fault-free path.
"""

import numpy as np
import pytest

from repro.faults import DeliveryFault, FaultPlan
from repro.hw import HGX_A100_8GPU
from repro.nvshmem import NVSHMEMRuntime, SignalOp, WaitCond
from repro.runtime import MultiGPUContext
from repro.sim import Tracer


def _faulty_rt(plan: FaultPlan, num_gpus: int = 2) -> NVSHMEMRuntime:
    ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(num_gpus), tracer=Tracer(),
                          faults=plan.injector())
    return NVSHMEMRuntime(ctx)


def _retry_heavy_plan(seed: int = 11) -> FaultPlan:
    """Every delivery flips a coin per attempt: drops interleave with
    clean sails, so wire completions reorder across a burst of puts."""
    return FaultPlan(name="retry_heavy", seed=seed, retry_limit=8,
                     deliveries=(DeliveryFault(drop_prob=0.5),))


class TestChannelSeqAllocation:
    def test_seqs_are_per_route_and_monotonic(self):
        rt = _faulty_rt(_retry_heavy_plan(), num_gpus=4)
        # under a fault plan each leg waits for all its predecessors
        assert [rt.route_issue(0, 1), rt.route_issue(0, 1)] == [0, 1]
        assert rt.route_issue(0, 2) == 0
        assert rt._route_issued == {(0, 1): 2, (0, 2): 1}
        assert rt._route_done_flag[(0, 1)] is not rt._route_done_flag[(0, 2)]

    def test_reverse_direction_is_a_distinct_channel(self):
        rt = _faulty_rt(_retry_heavy_plan())
        assert rt.route_issue(0, 1) == 0
        assert rt.route_issue(1, 0) == 0
        rt.route_complete(0, 1)
        assert rt._route_done == {(0, 1): 1}
        assert rt._route_done_flag[(0, 1)] is not rt._route_done_flag[(1, 0)]


class TestInterleavedRetryOrdering:
    def _burst(self, plan, n_puts=6):
        """PE0 issues ``n_puts`` same-slot puts to PE1 back to back;
        the destination observes the value each time the signal
        advances.  Returns (observed values, final value, runtime)."""
        rt = _faulty_rt(plan)
        arr = rt.malloc("slot", (4,), fill=0.0)
        sig = rt.malloc_signals("sig", 1)
        observed = []

        def pe0():
            dev = rt.device(0)
            for i in range(1, n_puts + 1):
                yield from dev.putmem_signal_nbi(
                    arr, slice(None), np.full(4, float(i)), sig, 0, 1,
                    dest_pe=1, sig_op=SignalOp.ADD)
            yield from dev.quiet()

        def pe1():
            dev = rt.device(1)
            for i in range(1, n_puts + 1):
                yield from dev.signal_wait_until(sig, 0, WaitCond.GE, i)
                observed.append(arr.local(1)[0])

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.sim.spawn(pe1(), name="pe1")
        rt.ctx.run()
        return observed, arr.local(1)[0], rt

    def test_effects_apply_in_issue_order(self):
        n = 6
        observed, final, rt = self._burst(_retry_heavy_plan(seed=11), n_puts=n)
        # FIFO channel: by the time the k-th signal lands, writes
        # 1..k have all applied, so the slot holds write >= k (later
        # writes may land between the observer's polls) and never an
        # earlier one (no rollback, no overtaking).
        assert observed == sorted(observed)
        assert all(value >= float(k) for k, value in enumerate(observed, start=1))
        assert all(value <= float(n) for value in observed)
        assert final == float(n)
        assert rt.ctx.faults.total_retries > 0, \
            "plan produced no retries; ordering was never stressed"

    def test_ordering_holds_across_seeds(self):
        """Different retry interleavings (seeds) must all serialize."""
        for seed in (1, 2, 3, 7, 23):
            observed, _, _ = self._burst(_retry_heavy_plan(seed=seed))
            assert observed == sorted(observed), f"overtaking at seed {seed}"

    def test_route_done_counts_every_delivery(self):
        n = 5
        _, _, rt = self._burst(_retry_heavy_plan(seed=4), n_puts=n)
        assert rt._route_issued == {(0, 1): n}
        assert rt._route_done == {(0, 1): n}
        assert rt._route_done_flag[(0, 1)].value == n
        assert rt._route_parked.get((0, 1), []) == []

    def test_fault_free_runs_park_nothing(self):
        rt = NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(2),
                                            tracer=Tracer()))
        arr = rt.malloc("slot", (2,), fill=0.0)

        def pe0():
            dev = rt.device(0)
            yield from dev.putmem_nbi(arr, slice(None), np.full(2, 1.0), dest_pe=1)
            yield from dev.quiet()

        rt.ctx.sim.spawn(pe0(), name="pe0")
        rt.ctx.run()
        assert rt._route_issued == rt._route_done == {(0, 1): 1}
        assert rt._route_parked == {}
        assert rt._route_done_flag == {}

    def test_deterministic_across_reruns(self):
        runs = []
        for _ in range(2):
            observed, final, rt = self._burst(_retry_heavy_plan(seed=9))
            runs.append((tuple(observed), final, rt.ctx.sim.now,
                         rt.ctx.faults.total_retries))
        assert runs[0] == runs[1]
