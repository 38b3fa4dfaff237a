"""Sweep survival when worker processes die (SIGKILL -> quarantine)."""

import os
import signal
import time

import pytest

import repro.perf.sweep as sweep_mod
from repro.perf.cache import ResultCache
from repro.obs.progress import ProgressSink
from repro.perf.sweep import QuarantinedPoint, SweepRunner


def _work(x):
    return x * 10


def _poison(x):
    """Top-level worker that SIGKILLs its own process on the marker
    point — the harshest failure a pool worker can produce (no
    exception, no cleanup, the pool just breaks)."""
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


@pytest.fixture
def pool_path(monkeypatch):
    """Force the process-pool path even on single-core CI hosts."""
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 4)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestWorkerDeath:
    def test_poison_point_quarantined_others_survive(self, pool_path):
        runner = SweepRunner(jobs=2, retries=1)
        results = runner.map(_poison, [(1,), (2,), (3,), (4,), (5,)])
        assert results[0] == 10 and results[1] == 20
        assert results[3] == 40 and results[4] == 50
        point = results[2]
        assert isinstance(point, QuarantinedPoint)
        assert point.index == 2
        assert point.attempts == 2  # 1 + retries
        assert "(3,)" in point.identity
        assert runner.quarantined == [point]

    def test_retries_zero_single_attempt(self, pool_path):
        runner = SweepRunner(jobs=2, retries=0)
        results = runner.map(_poison, [(1,), (2,), (3,), (4,)])
        assert isinstance(results[2], QuarantinedPoint)
        assert results[2].attempts == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            SweepRunner(retries=-1)

    def test_healthy_sweep_untouched(self, pool_path):
        runner = SweepRunner(jobs=2)
        assert runner.map(_work, [(1,), (2,), (3,)]) == [10, 20, 30]
        assert runner.quarantined == []

    def test_completed_points_cached_before_the_crash(self, pool_path, cache,
                                                      tmp_path):
        """Worker death must not lose the points that already finished:
        they were stored as they completed, so a rerun replays them."""
        runner = SweepRunner(jobs=2, cache=cache, retries=0)
        results = runner.map(_poison, [(1,), (2,), (3,), (4,), (5,)])
        assert isinstance(results[2], QuarantinedPoint)
        rerun = SweepRunner(jobs=2, cache=cache, retries=0)
        rerun_results = rerun.map(_poison, [(1,), (2,), (4,), (5,)])
        assert rerun_results == [10, 20, 40, 50]
        assert rerun.hits == 4 and rerun.misses == 0

    def test_finished_points_stored_while_earlier_point_runs(
            self, pool_path, cache, tmp_path):
        """Pooled points are stored in completion order: point 1 is
        cached and reported while point 0 is still running, so a parent
        killed in that window loses only point 0."""
        sentinel = tmp_path / "point1-finished"

        class Release(ProgressSink):
            def __init__(self):
                self.cached_at_finish = None

            def point_finished(self, index, identity, wall_s, result=None):
                if index == 1:
                    key = cache.key(_wait_for_sentinel, (str(sentinel), 1))
                    self.cached_at_finish = cache.get(key)[0]
                    sentinel.touch()

        sink = Release()
        runner = SweepRunner(jobs=2, cache=cache, progress=sink)
        results = runner.map(_wait_for_sentinel,
                             [(str(sentinel), i) for i in range(3)])
        # point 0 saw the sentinel: point 1 finished before point 0 did
        assert results == [(0, True), (1, True), (2, True)]
        assert sink.cached_at_finish is True

    def test_worker_exception_still_propagates(self, pool_path):
        """Quarantine is for dead workers only: a worker that *raises*
        keeps the old fail-fast contract."""

        runner = SweepRunner(jobs=2, retries=1)
        with pytest.raises(ZeroDivisionError):
            runner.map(_divzero, [(1,), (0,), (2,), (3,)])


def _divzero(x):
    return 10 // x


def _wait_for_sentinel(path, x):
    """Point 0 waits (at most 10 s) for ``path`` to appear; the others
    return at once.  Returns ``(x, whether path existed)``."""
    if x == 0:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(path) and time.monotonic() < deadline:
            time.sleep(0.01)
    return x, x != 0 or os.path.exists(path)
