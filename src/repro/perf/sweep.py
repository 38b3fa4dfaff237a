"""Deterministic parallel sweep execution.

:class:`SweepRunner` maps a top-level worker function over a list of
argument tuples — serially, or fanned out over a
``concurrent.futures.ProcessPoolExecutor`` — with an optional
:class:`~repro.perf.cache.ResultCache` consulted per point.  Results
are always assembled in *submission order*, so the output is
byte-identical no matter how many jobs ran or which points were cache
hits (the determinism contract enforced by ``tests/perf``).

The cache is the only incremental mechanism.  Each point is stored
the moment it completes (pooled points in completion order, not
submission order), so rerunning a killed or finished sweep against the
same cache directory replays every finished point and computes only
the rest; the ``hits`` / ``misses`` tallies are the replay report.

Experiment code never receives a runner explicitly: the figure
sweeps, the paper's ablation and CG runs and the TB-split search all
call :func:`active_runner`, which defaults to a serial, cache-less
runner (plain function calls — the behavior unit tests see).  The CLI
installs one configured runner around the whole figure run and claim
evaluation with :func:`use_runner`.  A caller that cannot use a sweep
with a quarantined point passes the results through :func:`completed`.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Sequence

from repro.obs.metrics import MetricsRegistry, active_metrics, use_metrics
from repro.perf.batch import BatchAdapter, adapter_for
from repro.perf.cache import ResultCache, point_identity

__all__ = ["QuarantinedPoint", "SweepRunner", "active_runner", "completed",
           "use_runner"]


@dataclass(frozen=True)
class QuarantinedPoint:
    """A sweep point whose worker process died (SIGKILL, segfault, OOM)
    on every allowed attempt.  It takes the point's slot in the result
    list and is reported in the sweep summary — one poison point never
    aborts the rest of the sweep."""

    index: int
    identity: str
    attempts: int
    reason: str = "worker process died (BrokenProcessPool)"


def completed(results: list[Any]) -> list[Any]:
    """``results`` unchanged, for a caller that needs every point: a
    :class:`QuarantinedPoint` among them raises, naming the point."""
    for value in results:
        if isinstance(value, QuarantinedPoint):
            raise RuntimeError(
                f"sweep point quarantined after {value.attempts} attempt(s): "
                f"{value.identity} — {value.reason}")
    return results


def _call_with_metrics(fn: Callable, args: tuple) -> tuple[Any, dict]:
    """Top-level (picklable) wrapper: run one sweep point against a
    fresh registry and return ``(result, metrics dump)``.  The caller
    merges dumps in submission order, so the combined registry is
    byte-identical no matter the job count — and identical whether the
    point was computed or replayed from the cache (the dump is cached
    alongside the result)."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        result = fn(*args)
    return result, registry.to_dict()


class SweepRunner:
    """Maps workers over sweep points with optional processes + cache.

    ``jobs``
        Worker process count. 1 (default) runs in-process — no pool,
        no pickling. Workers must be top-level (picklable) functions
        when ``jobs > 1``.
    ``cache``
        A :class:`ResultCache`, or ``None`` to recompute everything.
    ``batch``
        Consult the worker's registered :class:`~repro.perf.batch.
        BatchAdapter` and run compatible cache-miss points fused in one
        simulation (default).  Results and cache entries are
        byte-identical either way — cache keys are shared between the
        two paths — so the switch is purely a performance A/B lever.
        Runs under an active metrics registry never batch (batched
        runs record no metrics, so the per-point dumps are the
        product).
    ``retries``
        Extra single-worker attempts granted to each point stranded by
        a dead pool worker before the point is quarantined (default 2).
        Retries only happen in this post-crash careful mode, so a
        healthy sweep's execution is byte-for-byte unchanged.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 batch: bool = True, retries: int = 2) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = max(1, jobs)
        self.cache = cache
        self.batch = batch
        self.retries = retries
        #: poison points (worker death on every attempt), in index order
        self.quarantined: list[QuarantinedPoint] = []
        self.hits = 0
        self.misses = 0
        #: batched-execution tallies (stdout diagnostics, never metrics)
        self.batch_groups = 0
        self.batch_points = 0
        self.batch_fallbacks = 0

    def _run_batch_groups(self, adapter: BatchAdapter, argtuples: Sequence[tuple],
                          pending: list[int], results: list[Any],
                          store: Callable[[int], None]) -> list[int]:
        """Run groupable cache-miss points fused; returns the indices
        that still need per-point execution (ungroupable points,
        singleton groups, and groups whose fused run diverged)."""
        groups: dict[Any, list[int]] = {}
        rest: list[int] = []
        for i in pending:
            try:
                key = adapter.group_key(argtuples[i])
            except Exception:
                key = None
            if key is None:
                rest.append(i)
            else:
                groups.setdefault(key, []).append(i)
        for idxs in groups.values():
            if len(idxs) < 2:
                rest.extend(idxs)
                continue
            try:
                values = adapter.run([argtuples[i] for i in idxs])
            except Exception:
                # batching is strictly an optimization: divergence (or
                # any adapter failure) reverts the group to per-point
                self.batch_fallbacks += 1
                rest.extend(idxs)
                continue
            for i, value in zip(idxs, values):
                results[i] = value
                store(i)
            self.batch_groups += 1
            self.batch_points += len(idxs)
        rest.sort()
        return rest

    def _careful(self, fn: Callable, args: tuple, with_metrics: bool,
                 variant: str, index: int) -> Any:
        """Post-crash execution of one point: a fresh single-worker
        pool per attempt, so this point's death cannot strand others.
        Exhausting the retry budget quarantines the point."""
        attempts = 1 + self.retries
        for _ in range(attempts):
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    if with_metrics:
                        return pool.submit(_call_with_metrics, fn, args).result()
                    return pool.submit(fn, *args).result()
            except BrokenProcessPool:
                continue
        point = QuarantinedPoint(index=index,
                                 identity=point_identity(fn, args, variant),
                                 attempts=attempts)
        self.quarantined.append(point)
        return point

    def _run_pool(self, fn: Callable, argtuples: Sequence[tuple],
                  pending: list[int], with_metrics: bool, results: list[Any],
                  store: Callable[[int], None], variant: str) -> None:
        """Fan pending points out to a process pool, surviving worker
        death: a :class:`BrokenProcessPool` flips the remaining points
        into careful mode instead of aborting the sweep.  Points are
        stored in completion order, so a slow point never holds back
        the cache entries of points that finished after it."""
        resolved: set[int] = set()
        try:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                if with_metrics:
                    futures = {pool.submit(_call_with_metrics, fn, argtuples[i]): i
                               for i in pending}
                else:
                    futures = {pool.submit(fn, *argtuples[i]): i for i in pending}
                for future in as_completed(futures):
                    i = futures[future]
                    results[i] = future.result()
                    resolved.add(i)
                    store(i)
        except BrokenProcessPool:
            # a worker died (SIGKILL, segfault, OOM) and took the whole
            # pool down; every unresolved point re-runs alone with a
            # bounded retry budget, and a point that keeps killing its
            # worker is quarantined — reported, never fatal
            for i in pending:
                if i in resolved:
                    continue
                results[i] = self._careful(fn, argtuples[i], with_metrics,
                                           variant, i)
                store(i)

    def map(self, fn: Callable, argtuples: Sequence[tuple]) -> list[Any]:
        """``[fn(*args) for args in argtuples]``, accelerated."""
        argtuples = list(argtuples)
        ambient = active_metrics()
        with_metrics = ambient is not None
        variant = "+metrics" if with_metrics else ""
        results: list[Any] = [None] * len(argtuples)
        keys: list[str | None] = [None] * len(argtuples)
        pending: list[int] = []
        for i, args in enumerate(argtuples):
            if self.cache is not None:
                keys[i] = self.cache.key(fn, args, variant=variant)
                hit, value = self.cache.get(keys[i])
                if hit:
                    results[i] = value
                    self.hits += 1
                    continue
                self.misses += 1
            pending.append(i)
        computed = list(pending)
        dup_of: dict[int, int] = {}

        def store(i: int) -> None:
            # persist each point the moment it completes, so a sweep
            # killed mid-flight leaves every finished point replayable
            if self.cache is None or keys[i] is None:
                return
            value = results[i]
            if isinstance(value, QuarantinedPoint):
                return
            self.cache.put(keys[i], value)

        if pending:
            pending, dup_of = _dedupe_pending(argtuples, pending)
            adapter = (adapter_for(fn) if self.batch and not with_metrics
                       else None)
            if adapter is not None:
                pending = self._run_batch_groups(
                    adapter, argtuples, pending, results, store)
        if pending:
            # a single-core host gains nothing from a process pool and
            # pays its spawn + pickle overhead; run the points inline
            if (self.jobs > 1 and len(pending) > 1
                    and (os.cpu_count() or 1) > 1):
                self._run_pool(fn, argtuples, pending, with_metrics, results,
                               store, variant)
            else:
                for i in pending:
                    results[i] = (_call_with_metrics(fn, argtuples[i])
                                  if with_metrics else fn(*argtuples[i]))
                    store(i)
        if computed:
            # duplicate argtuples computed once (deterministic workers
            # produce identical values); copy into the remaining slots
            for i, j in dup_of.items():
                value = results[j]
                if isinstance(value, QuarantinedPoint):
                    results[i] = replace(value, index=i)
                    self.quarantined.append(results[i])
                else:
                    results[i] = copy.deepcopy(value)
        if with_metrics:
            # unwrap (result, dump) pairs; merge in submission order
            unwrapped: list[Any] = []
            for value in results:
                if isinstance(value, QuarantinedPoint):
                    # a quarantined point has no result and no metrics;
                    # it keeps its slot so callers see what was lost
                    unwrapped.append(value)
                    continue
                result, dump = value
                ambient.merge_dict(dump)
                unwrapped.append(result)
            results = unwrapped
            # cache hit/miss tallies stay OFF the registry: they reflect
            # on-disk state, not simulated behavior, and would break the
            # byte-identical-dumps contract (the CLI prints self.hits /
            # self.misses to stdout instead)
            ambient.counter("perf.sweep.points").inc(len(argtuples))
        return results


def _dedupe_pending(
    argtuples: Sequence[tuple], pending: list[int]
) -> tuple[list[int], dict[int, int]]:
    """Collapse pending points with identical argtuples onto the first
    occurrence; returns ``(kept, dup_of)`` where ``dup_of`` maps each
    dropped index to the index whose result it copies.  Unhashable
    argtuples stay unique (no equality scan on the hot path)."""
    seen: dict[Any, int] = {}
    dup_of: dict[int, int] = {}
    kept: list[int] = []
    for i in pending:
        try:
            first = seen.setdefault(argtuples[i], i)
        except TypeError:
            kept.append(i)
            continue
        if first == i:
            kept.append(i)
        else:
            dup_of[i] = first
    return kept, dup_of


#: module-level runner consulted by figure sweeps
_active = SweepRunner()


def active_runner() -> SweepRunner:
    """The runner figure sweeps should map through right now."""
    return _active


@contextmanager
def use_runner(runner: SweepRunner) -> Iterator[SweepRunner]:
    """Install ``runner`` as the active runner for the enclosed block."""
    global _active
    previous = _active
    _active = runner
    try:
        yield runner
    finally:
        _active = previous
