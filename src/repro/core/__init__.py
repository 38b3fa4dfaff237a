"""The CPU-Free execution model (the paper's primary contribution).

Combines the four techniques of §3.1 into a reusable harness:

1. **Persistent kernels** — :func:`~repro.core.persistent.launch_persistent`
   launches one cooperative kernel for the whole application; the time
   loop lives on the device.
2. **Device-side synchronization** — :class:`~repro.core.sync.GridBarrier`
   models cooperative-groups ``grid.sync()`` across specialized
   thread-block groups; :class:`~repro.core.sync.LocalSpinFlag` models
   busy-waiting on a flag in local device memory (the co-resident
   two-kernel alternative of §4).
3. **Thread-block specialization** —
   :func:`~repro.core.specialization.plan_blocks` implements the §4.1.2
   work-allocation formula splitting blocks between boundary/comm work
   and inner-domain compute.
4. **GPU-initiated data movement** — kernels issue
   :mod:`repro.nvshmem` device operations directly; no host involvement
   after launch.
"""

from repro.core.persistent import PersistentKernel, TBGroup, launch_persistent
from repro.core.specialization import SpecializationPlan, plan_blocks
from repro.core.sync import GridBarrier, LocalSpinFlag

__all__ = [
    "GridBarrier",
    "LocalSpinFlag",
    "PersistentKernel",
    "SpecializationPlan",
    "TBGroup",
    "launch_persistent",
    "plan_blocks",
]
