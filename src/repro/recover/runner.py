"""Rollback recovery for fail-stop PE crashes.

The run is split into *segments* of ``checkpoint_every`` iterations.
Each segment executes on a fresh simulator seeded from the previous
checkpoint's state; at the segment boundary every PE is quiescent (same
iteration count, no in-flight deliveries), so the gathered field plus a
:class:`~repro.nvshmem.heap.HeapSnapshot` forms a consistent global
checkpoint.  When a PE dies mid-segment:

1. **Detection.**  Every PE pumps a heartbeat signal word each
   ``heartbeat_us`` (weak calendar events — they never extend the
   measured timeline).  A crash stops the pump; after
   ``heartbeat_misses`` silent periods the monitor declares the PE dead
   at a *quantised* instant — detection latency is deterministic
   arithmetic on the crash time, not a race.
2. **Rollback.**  The crashed segment's partial state is discarded
   wholesale (survivors quiesce by construction: the whole segment
   simulator is torn down), and the global clock is charged with the
   time the failed attempt consumed up to detection plus the plan's
   ``restart_cost_us`` (checkpoint reload + PE restart).
3. **Restart + resume.**  The segment re-runs from the last checkpoint
   with the crash *consumed* (``use_crash_context``) — the re-run is
   crash-free and therefore byte-identical to a fault-free execution of
   those iterations.  Halos re-sync naturally: the fresh segment
   rescatters the checkpoint into both parities on every PE.

Determinism argument: segment chaining is exact — the gathered field of
``k`` iterations from state ``S`` equals the reference of ``k``
iterations from ``S`` (boundary ring is Dirichlet, interior round-trips
through gather/scatter losslessly) — so the recovered run's final field
is byte-identical to the fault-free reference; only simulated time
grows (detection latency + restart cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.faults.inject import use_crash_context
from repro.faults.plan import FaultPlan
from repro.faults.profiles import get_plan
from repro.nvshmem.heap import SignalArray
from repro.recover.checkpoint import Checkpoint, CheckpointStore

__all__ = [
    "PECrashDetected",
    "RecoveryManager",
    "RecoveryOutcome",
    "UnrecoverableCrashError",
    "run_with_recovery",
]


class PECrashDetected(Exception):
    """Raised out of ``sim.run()`` when the heartbeat monitor declares
    a PE dead.  Carries segment-local times; the recovery runner
    translates them to the global clock."""

    def __init__(self, pe: int, crash_t: float, detect_t: float) -> None:
        super().__init__(
            f"pe{pe} declared dead at t={detect_t:.3f}us "
            f"(crashed fail-stop at t={crash_t:.3f}us, detection latency "
            f"{detect_t - crash_t:.3f}us)")
        self.pe = pe
        self.crash_t = crash_t
        self.detect_t = detect_t


class UnrecoverableCrashError(RuntimeError):
    """A PE died and no recovery is possible (checkpointing disabled or
    the restart budget exhausted).  The message names the dead PE — the
    fail-stop contract is diagnostic-or-recover, never a hang."""


class RecoveryManager:
    """Heartbeat-based crash detection for one segment run.

    Attaches to a constructed (not yet run) variant instance: allocates
    a symmetric heartbeat signal word per PE, pumps each alive PE's
    word every ``heartbeat_us`` via weak calendar events, and — when
    the fault injector reports a crash — schedules a *strong* check at
    the first instant the monitor can have observed ``heartbeat_misses``
    consecutive silent periods.  The check raises
    :class:`PECrashDetected` out of the simulation.
    """

    def __init__(self, instance: Any, plan: FaultPlan) -> None:
        # neither the instance nor the injector: the injector keeps this
        # manager's crash handler, and that cycle would hold a finished
        # segment's heap, simulator and trace
        self.tracer = instance.tracer
        self.plan = plan
        self.sim = instance.ctx.sim
        faults = instance.faults
        #: pe -> crash time, the injector's own record (empty without one)
        self.crashed = faults.crashed if faults is not None else {}
        n = instance.config.num_gpus
        self.heartbeat_us = plan.heartbeat_us
        #: one signal word per PE; standalone (not on the symmetric
        #: heap) so heartbeats never leak into heap checkpoints
        self.signals = SignalArray(self.sim, "recover.heartbeat", n, 1)
        self.beats = [0] * n
        if faults is not None and plan.crashes:
            faults.on_crash(self._on_crash)
        for pe in range(n):
            self._arm_pump(pe)

    def _arm_pump(self, pe: int) -> None:
        self.sim.call_at(self.sim.now + self.heartbeat_us,
                         lambda: self._pump(pe), weak=True)

    def _pump(self, pe: int) -> None:
        if pe in self.crashed:
            return  # dead PEs stop beating — that IS the detection signal
        self.beats[pe] += 1
        self.signals.flag(pe, 0).add(1)
        self._arm_pump(pe)

    def _on_crash(self, pe: int, crash_t: float) -> None:
        # First heartbeat the dead PE misses is the next period boundary
        # after the crash; the monitor declares death once
        # ``heartbeat_misses`` further periods pass in silence.  Strong
        # event: detection must fire even after survivors quiesce.
        hb = self.heartbeat_us
        detect_t = (math.floor(crash_t / hb) + 1 + self.plan.heartbeat_misses) * hb
        self.sim.call_at(detect_t, lambda: self._detect(pe, crash_t, detect_t))

    def _detect(self, pe: int, crash_t: float, detect_t: float) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.add_instant(
                "recover:crash_detected", detect_t, category="recover",
                args={"pe": pe, "crash_t_us": crash_t,
                      "latency_us": detect_t - crash_t,
                      "heartbeats": self.beats[pe]})
        raise PECrashDetected(pe, crash_t, detect_t)


@dataclass
class RecoveryOutcome:
    """Everything a recovered (or clean, segmented) run produced."""

    variant: str
    result: np.ndarray
    total_time_us: float
    iterations: int
    checkpoint_every: int
    store: CheckpointStore
    #: one dict per segment attempt, in execution order
    attempts: list[dict] = field(default_factory=list)
    #: pe -> global crash time, for every crash that fired
    crashed_pes: dict[int, float] = field(default_factory=dict)
    restarts: int = 0
    detect_latency_us: float = 0.0
    lost_time_us: float = 0.0
    #: fault summary of the final (successful) segment's injector
    faults: dict | None = None

    @property
    def recovered(self) -> bool:
        return self.restarts > 0

    def report(self) -> dict:
        """JSON-safe digest (no arrays) for CLI/CI artifacts."""
        return {
            "variant": self.variant,
            "iterations": self.iterations,
            "checkpoint_every": self.checkpoint_every,
            "total_time_us": self.total_time_us,
            "checkpoints": len(self.store),
            "checkpoint_bytes": self.store.total_bytes(),
            "restarts": self.restarts,
            "recovered": self.recovered,
            "crashed_pes": {str(pe): t for pe, t in sorted(self.crashed_pes.items())},
            "detect_latency_us": self.detect_latency_us,
            "lost_time_us": self.lost_time_us,
            "attempts": self.attempts,
            "faults": self.faults,
        }


def _publish_metrics(metrics: Any, outcome: RecoveryOutcome) -> None:
    """Land the ``recover.*`` counters in the final segment's registry
    so they show up in every metrics dump alongside ``faults.*``."""
    if metrics is None:
        return
    metrics.counter("recover.checkpoints").inc(len(outcome.store))
    metrics.counter("recover.checkpoint_bytes").inc(outcome.store.total_bytes())
    metrics.gauge("recover.checkpoint_every").set(outcome.checkpoint_every)
    if outcome.crashed_pes:
        metrics.counter("recover.crashes_detected").inc(len(outcome.crashed_pes))
    if outcome.restarts:
        metrics.counter("recover.restarts").inc(outcome.restarts)
        metrics.counter("recover.detect_latency_us").inc(outcome.detect_latency_us)
        metrics.counter("recover.lost_time_us").inc(outcome.lost_time_us)


def run_with_recovery(
    variant_cls: type,
    config: Any,
    *,
    checkpoint_every: int | None = None,
    plan: FaultPlan | None = None,
) -> RecoveryOutcome:
    """Run a stencil variant under fail-stop recovery.

    ``plan`` defaults to the plan of ``config.fault_profile``;
    ``checkpoint_every`` defaults to the plan's cadence.  With
    checkpointing unavailable, any crash raises
    :class:`UnrecoverableCrashError` naming the dead PE.
    """
    if plan is None:
        plan = get_plan(config.fault_profile) if config.fault_profile else FaultPlan(name="none")
    if not config.with_data:
        raise ValueError("recovery needs field data (config.with_data=False)")
    every = checkpoint_every if checkpoint_every is not None else plan.checkpoint_every

    if every is None:
        return _run_unrecoverable(variant_cls, config, plan)

    segments = [every] * (config.iterations // every)
    if config.iterations % every:
        segments.append(config.iterations % every)

    store = CheckpointStore()
    state: np.ndarray | None = None
    consumed: set[int] = set()
    base_us = 0.0
    attempts: list[dict] = []
    crashed_pes: dict[int, float] = {}
    restarts = 0
    detect_latency_us = 0.0
    lost_time_us = 0.0
    iter_done = 0
    # the last clean segment's metrics registry and fault summary (the
    # segment itself is released before the next one is built)
    last_metrics = last_faults = None
    max_restarts = len(plan.crashes) + 2  # each crash fires at most once

    for seg_index, seg_iters in enumerate(segments):
        while True:
            seg_config = replace(config, iterations=seg_iters)
            with use_crash_context(base_us, frozenset(consumed)):
                instance = variant_cls(seg_config)
            if state is None:
                state = instance.initial  # epoch-0 checkpoint: the scatter
                store.save(0, state, 0.0)
            else:
                instance.initial = state
            manager = RecoveryManager(instance, plan)
            attempt = {"segment": seg_index, "iterations": seg_iters,
                       "start_iteration": iter_done, "base_us": base_us}
            try:
                res = instance.run()
            except PECrashDetected as exc:
                if restarts >= max_restarts:
                    raise UnrecoverableCrashError(
                        f"pe{exc.pe} crashed and the restart budget "
                        f"({max_restarts}) is exhausted; dead PEs so far: "
                        f"{sorted(crashed_pes)}") from exc
                # the crashed segment is discarded: end its run
                instance.ctx.sim.close()
                consumed.add(exc.pe)
                if instance.faults is not None:
                    consumed.update(instance.faults.crashed)
                crashed_pes[exc.pe] = base_us + exc.crash_t
                restarts += 1
                detect_latency_us += exc.detect_t - exc.crash_t
                lost = exc.detect_t + plan.restart_cost_us
                lost_time_us += lost
                base_us += lost
                attempt.update(status="crashed", crashed_pe=exc.pe,
                               crash_t_us=attempt["base_us"] + exc.crash_t,
                               detect_t_us=attempt["base_us"] + exc.detect_t,
                               restart_cost_us=plan.restart_cost_us,
                               lost_time_us=lost)
                attempts.append(attempt)
                if instance.tracer is not None:
                    instance.tracer.add_instant(
                        "recover:restart", exc.detect_t, category="recover",
                        args={"pe": exc.pe, "epoch": store.latest.epoch,
                              "restart_cost_us": plan.restart_cost_us})
                continue  # re-run this segment from the checkpoint
            # clean segment: advance the checkpoint chain
            if instance.faults is not None:
                # a crash that fired but killed nothing (the PE had
                # already finished) is consumed without a restart
                for pe, t in instance.faults.crashed.items():
                    consumed.add(pe)
                    crashed_pes.setdefault(pe, base_us + t)
            state = res.result
            base_us += res.total_time_us
            iter_done += seg_iters
            snap = (instance.nvshmem.heap.snapshot(epoch=len(store))
                    if instance.nvshmem is not None else None)
            store.save(iter_done, state, base_us, heap=snap)
            if instance.tracer is not None:
                instance.tracer.add_instant(
                    "recover:checkpoint", res.total_time_us, category="recover",
                    args={"epoch": len(store) - 1, "iteration": iter_done,
                          "sim_time_us": base_us})
            attempt.update(status="ok", sim_time_us=res.total_time_us)
            attempts.append(attempt)
            last_metrics = instance.ctx.metrics
            last_faults = (instance.faults.summary()
                           if instance.faults is not None else None)
            break
        # Release this segment before the next is built: its context
        # (heap, buffers, trace) is not needed past its checkpoint.
        instance = manager = res = None

    outcome = RecoveryOutcome(
        variant=variant_cls.name,
        result=state,
        total_time_us=base_us,
        iterations=config.iterations,
        checkpoint_every=every,
        store=store,
        attempts=attempts,
        crashed_pes=crashed_pes,
        restarts=restarts,
        detect_latency_us=detect_latency_us,
        lost_time_us=lost_time_us,
        faults=last_faults,
    )
    _publish_metrics(last_metrics, outcome)
    return outcome


def _run_unrecoverable(variant_cls: type, config: Any,
                       plan: FaultPlan) -> RecoveryOutcome:
    """No checkpoints: run whole, convert a detected crash into an
    :class:`UnrecoverableCrashError` naming the dead PE."""
    instance = variant_cls(config)
    manager = RecoveryManager(instance, plan)
    try:
        res = instance.run()
    except PECrashDetected as exc:
        instance.ctx.sim.close()
        raise UnrecoverableCrashError(
            f"pe{exc.pe} crashed fail-stop at t={exc.crash_t:.3f}us and no "
            f"checkpoint exists (checkpointing disabled) — cannot recover; "
            f"detected via missed heartbeats at t={exc.detect_t:.3f}us"
        ) from exc
    outcome = RecoveryOutcome(
        variant=variant_cls.name,
        result=res.result,
        total_time_us=res.total_time_us,
        iterations=config.iterations,
        checkpoint_every=0,
        store=CheckpointStore(),
        faults=instance.faults.summary() if instance.faults is not None else None,
    )
    _publish_metrics(instance.ctx.metrics, outcome)
    return outcome
