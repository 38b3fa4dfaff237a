"""Performance infrastructure: parallel sweep execution and caching.

The figure sweeps in :mod:`repro.bench` are embarrassingly parallel —
every (variant, size, GPU-count) point is an independent simulation —
and fully deterministic, so they can be fanned out over worker
processes and their results cached on disk keyed by a content hash of
the configuration and the simulator sources.  See docs/performance.md.
"""

from repro.perf.cache import ResultCache, point_identity, source_digest
from repro.perf.sweep import SweepRunner, active_runner, completed, use_runner

__all__ = [
    "ResultCache",
    "SweepRunner",
    "active_runner",
    "completed",
    "point_identity",
    "source_digest",
    "use_runner",
]
