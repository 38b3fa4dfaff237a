"""Determinism and caching contracts of the perf sweep runner.

The load-bearing guarantee: fanning sweep points over worker processes
(or replaying them from the cache) must not change a single byte of
the figure report.
"""

import functools

import numpy as np

import repro.perf.sweep as sweep_mod
from repro.bench.figures import _dace_point, _stencil_point
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.perf import (
    ResultCache,
    SweepRunner,
    active_runner,
    use_runner,
)
from repro.perf.cache import source_digest
from repro.sdfg.distributed import SlabDecomposition1D
from repro.stencil import StencilConfig


def _square(x):
    return x * x


def _small_tasks():
    configs = [
        StencilConfig(global_shape=(8, 10), num_gpus=2, iterations=3, with_data=False),
        StencilConfig(global_shape=(10, 10), num_gpus=2, iterations=3, with_data=False),
    ]
    return [("cpufree", c) for c in configs] + [("baseline_copy", c) for c in configs]


class TestRunnerDeterminism:
    def test_serial_matches_plain_calls(self):
        tasks = _small_tasks()
        expected = [_stencil_point(*t) for t in tasks]
        assert SweepRunner(jobs=1).map(_stencil_point, tasks) == expected

    def test_parallel_matches_serial(self):
        """--jobs N must be indistinguishable from --jobs 1."""
        tasks = _small_tasks()
        serial = SweepRunner(jobs=1).map(_stencil_point, tasks)
        parallel = SweepRunner(jobs=4).map(_stencil_point, tasks)
        assert parallel == serial

    def test_parallel_dace_matches_serial(self):
        tasks = [("1d", kind, SlabDecomposition1D(1000 * g, g), 3)
                 for g in (1, 2) for kind in ("baseline", "cpufree")]
        serial = SweepRunner(jobs=1).map(_dace_point, tasks)
        parallel = SweepRunner(jobs=2).map(_dace_point, tasks)
        assert parallel == serial

    def test_pool_path_resolves_every_point(self, monkeypatch):
        """Unbatched points at jobs=2 go through the process pool (even
        on a single-core host) and every slot gets its own result."""
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 4)
        tasks = _small_tasks()
        rows = SweepRunner(jobs=2, batch=False).map(_stencil_point, tasks)
        assert rows == [_stencil_point(*t) for t in tasks]

    def test_results_keep_submission_order(self):
        tasks = _small_tasks()
        rows = SweepRunner(jobs=4).map(_stencil_point, tasks)
        assert [(r.series, r.x) for r in rows] == \
            [(variant, config.num_gpus) for variant, config in tasks]


class TestReportByteIdentity:
    def test_jobs4_report_byte_identical_to_jobs1(self, tmp_path):
        """Acceptance criterion: parallel sweep produces a byte-identical
        report file to the serial sweep."""
        from repro.bench.__main__ import main

        serial, parallel = tmp_path / "j1.txt", tmp_path / "j4.txt"
        assert main(["2.2", "--jobs", "1", "--no-cache", "--out", str(serial)]) == 0
        assert main(["2.2", "--jobs", "4", "--no-cache", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_cached_report_byte_identical_to_fresh(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        cache = tmp_path / "cache"
        fresh, replay = tmp_path / "fresh.txt", tmp_path / "replay.txt"
        assert main(["2.2", "--cache-dir", str(cache), "--out", str(fresh)]) == 0
        capsys.readouterr()
        assert main(["2.2", "--cache-dir", str(cache), "--out", str(replay)]) == 0
        assert fresh.read_bytes() == replay.read_bytes()
        # the rerun replays every point: the same check CI runs
        assert " 0 miss(es)" in capsys.readouterr().out


class TestResultCache:
    def test_replay_hits_and_matches(self, tmp_path):
        tasks = _small_tasks()
        cache = ResultCache(tmp_path / "cache")
        first = SweepRunner(jobs=1, cache=cache)
        fresh = first.map(_stencil_point, tasks)
        assert (first.hits, first.misses) == (0, len(tasks))

        second = SweepRunner(jobs=1, cache=cache)
        replayed = second.map(_stencil_point, tasks)
        assert (second.hits, second.misses) == (len(tasks), 0)
        assert replayed == fresh

    def test_key_depends_on_args(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = cache.key(_stencil_point, _small_tasks()[0])
        b = cache.key(_stencil_point, _small_tasks()[1])
        assert a != b

    def test_key_includes_source_digest(self, tmp_path):
        """Keys embed a hash of the repro sources, so stale entries can
        never survive a source change."""
        cache = ResultCache(tmp_path)
        key = cache.key(_stencil_point, _small_tasks()[0])
        payload = (f"{_stencil_point.__module__}.{_stencil_point.__qualname__}"
                   f"|{_small_tasks()[0]!r}||{source_digest()}")
        import hashlib

        assert key == hashlib.sha256(payload.encode()).hexdigest()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key(_stencil_point, ("x",))
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        hit, value = cache.get(key)
        assert not hit and value is None

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = {"rows": [1, 2, 3], "array": np.arange(3)}
        cache.put("k" * 64, value)
        hit, loaded = cache.get("k" * 64)
        assert hit
        assert loaded["rows"] == value["rows"]
        np.testing.assert_array_equal(loaded["array"], value["array"])


class TestBatchingUnderMetrics:
    """Batched runs record no metrics, so a metered sweep runs per
    point; without a registry the same group still fuses."""

    def _metered(self, batch):
        runner = SweepRunner(jobs=1, batch=batch)
        registry = MetricsRegistry()
        with use_metrics(registry):
            rows = runner.map(_stencil_point, _small_tasks())
        return runner, rows, registry.to_json()

    def test_metered_sweep_fuses_nothing_and_dumps_identically(self):
        on, rows_on, dump_on = self._metered(batch=True)
        off, rows_off, dump_off = self._metered(batch=False)
        assert on.batch_points == on.batch_groups == on.batch_fallbacks == 0
        assert rows_on == rows_off
        assert dump_on == dump_off
        assert "sim.flag.wakeups" in dump_on

    def test_unmetered_sweep_still_fuses(self):
        runner = SweepRunner(jobs=1, batch=True)
        rows = runner.map(_stencil_point, _small_tasks())
        assert (runner.batch_groups, runner.batch_points) == (2, 4)
        assert runner.batch_fallbacks == 0
        assert rows == SweepRunner(jobs=1, batch=False).map(
            _stencil_point, _small_tasks())


    def test_wrapped_worker_still_fuses(self):
        """A profiler's ``functools.wraps`` hook around a worker keeps
        the worker's batch adapter."""
        @functools.wraps(_stencil_point)
        def hooked(*args):
            return _stencil_point(*args)

        runner = SweepRunner(jobs=1, batch=True)
        assert runner.map(hooked, _small_tasks()) == SweepRunner(
            jobs=1, batch=False).map(_stencil_point, _small_tasks())
        assert (runner.batch_groups, runner.batch_points) == (2, 4)


_CALLS = []


def _counted_stencil_point(variant, config):
    _CALLS.append((variant, config))
    return _stencil_point(variant, config)


class TestMeteredDedupe:
    """Every sweep computes a repeated argtuple once;
    under metrics its registry is merged once per occurrence, so the
    dump equals computing the point twice."""

    def test_metered_duplicate_computed_once(self):
        tasks = _small_tasks()
        tasks = tasks + [tasks[0]]
        _CALLS.clear()
        registry = MetricsRegistry()
        with use_metrics(registry):
            rows = SweepRunner(jobs=1, batch=False).map(
                _counted_stencil_point, tasks)
        assert len(_CALLS) == len(tasks) - 1
        assert rows[-1] == rows[0] and rows[-1] is not rows[0]

        twice = MetricsRegistry()
        with use_metrics(twice):
            runner = SweepRunner(jobs=1, batch=False)
            alone = [runner.map(_stencil_point, [args])[0] for args in tasks]
        assert rows == alone
        assert registry.to_json() == twice.to_json()


    def test_unmetered_duplicate_computed_once(self):
        tasks = _small_tasks()
        tasks = tasks + [tasks[0]]
        _CALLS.clear()
        rows = SweepRunner(jobs=1, batch=True).map(_counted_stencil_point, tasks)
        assert len(_CALLS) == len(tasks) - 1
        assert rows[-1] == rows[0] and rows[-1] is not rows[0]


class TestActiveRunner:
    def test_default_runner_is_serial_uncached(self):
        runner = active_runner()
        assert runner.jobs == 1 and runner.cache is None

    def test_use_runner_scopes_and_restores(self):
        special = SweepRunner(jobs=2)
        with use_runner(special):
            assert active_runner() is special
        assert active_runner() is not special
