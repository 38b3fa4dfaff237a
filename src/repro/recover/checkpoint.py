"""Epoch-tagged checkpoints for fail-stop recovery.

A checkpoint is what a restart reads: the gathered global field (the
logical state of the distributed double buffers) at an iteration
boundary.  The restarted segment rescatters that field into both
parities of every PE's buffers, symmetric ones included, so no copy of
the symmetric heap is kept; its payload size still counts towards a
checkpoint's ``nbytes`` (what a real implementation would write).
Checkpoints are taken at *quiescent* points — segment boundaries where
every PE has passed the same iteration count and no deliveries are in
flight — which is what makes restart-from-checkpoint deterministic: the
restarted segment sees exactly the state a fresh run of the remaining
iterations would.

The store is in-memory: the simulated machine's "NVMe" target.  A
restart only ever reads the latest checkpoint, so only the latest one
holds its field; older records keep their epoch, iteration, time and
byte count.  What would be durable-media cost in a real system is
charged in simulated time by the recovery runner (``restart_cost_us``),
not modeled here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Checkpoint", "CheckpointStore"]


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """One recovery point.

    ``epoch`` counts checkpoints from 0 (the initial scatter —
    restartable by construction); ``iteration`` is the global iteration
    count the state corresponds to; ``sim_time_us`` is the accumulated
    clean simulated time up to this point (global clock, not
    segment-local); ``nbytes`` is the field plus the symmetric heap
    payload.  ``state`` is the field, or None once a newer checkpoint
    superseded this one.
    """

    epoch: int
    iteration: int
    sim_time_us: float
    nbytes: int
    state: np.ndarray | None = None


class CheckpointStore:
    """Sequence of checkpoints, newest last; only the newest holds its
    field."""

    def __init__(self) -> None:
        self._checkpoints: list[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._checkpoints)

    def save(self, iteration: int, state: np.ndarray, sim_time_us: float,
             heap_bytes: int = 0) -> Checkpoint:
        """Record a checkpoint of ``state`` plus ``heap_bytes`` of
        symmetric heap.  The superseded checkpoint's field is released
        first; the new state is deep-copied so later segment runs
        cannot mutate a recovery point in place."""
        if self._checkpoints:
            self._checkpoints[-1] = replace(self._checkpoints[-1], state=None)
        ckpt = Checkpoint(
            epoch=len(self._checkpoints),
            iteration=iteration,
            sim_time_us=sim_time_us,
            nbytes=int(state.nbytes) + heap_bytes,
            state=np.array(state, copy=True),
        )
        self._checkpoints.append(ckpt)
        return ckpt

    @property
    def latest(self) -> Checkpoint | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def epochs(self) -> list[int]:
        return [c.epoch for c in self._checkpoints]

    def total_bytes(self) -> int:
        return sum(c.nbytes for c in self._checkpoints)
