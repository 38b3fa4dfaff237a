"""Fail-stop recovery: checkpoints, crash detection, rollback-restart.

The missing piece of the CPU-free model's robustness story: the paper
moves all control onto the GPUs, so a dead PE takes the whole autonomous
execution graph with it.  This package recovers such runs from periodic
checkpoints of the gathered field, keeping only the latest one's field
— see :mod:`repro.recover.runner` for the protocol and its determinism
argument, and ``python -m repro.recover`` for the CLI that demonstrates
recovered-vs-clean byte-identity.
"""

from repro.recover.checkpoint import Checkpoint, CheckpointStore
from repro.recover.runner import (
    PECrashDetected,
    RecoveryManager,
    RecoveryOutcome,
    UnrecoverableCrashError,
    run_with_recovery,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "PECrashDetected",
    "RecoveryManager",
    "RecoveryOutcome",
    "UnrecoverableCrashError",
    "run_with_recovery",
]
