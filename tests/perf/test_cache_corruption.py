"""Crash-safe persistence: cache integrity footers and quarantine."""

import pickle

import pytest

from repro.perf.cache import ResultCache
from repro.perf.sweep import SweepRunner


def _work(x):
    return x * 10


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _entry_path(cache, key):
    return cache.root / f"{key}.pkl"


class TestCacheCorruption:
    def _seed(self, cache):
        key = cache.key(_work, (3,))
        cache.put(key, 30)
        return key

    def test_round_trip(self, cache):
        key = self._seed(cache)
        assert cache.get(key) == (True, 30)
        assert cache.quarantined == []

    def test_truncated_entry_quarantined(self, cache):
        key = self._seed(cache)
        path = _entry_path(cache, key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        hit, value = cache.get(key)
        assert not hit and value is None
        assert cache.quarantined and cache.quarantined[0][0] == key
        assert (cache.root / "quarantine" / f"{key}.pkl").exists()
        assert not path.exists()

    def test_zero_byte_entry_quarantined(self, cache):
        key = self._seed(cache)
        _entry_path(cache, key).write_bytes(b"")
        hit, _ = cache.get(key)
        assert not hit
        assert "truncated" in cache.quarantined[0][1]

    def test_flipped_byte_quarantined(self, cache):
        key = self._seed(cache)
        path = _entry_path(cache, key)
        blob = bytearray(path.read_bytes())
        blob[3] ^= 0xFF
        path.write_bytes(bytes(blob))
        hit, _ = cache.get(key)
        assert not hit
        assert "sha256 mismatch" in cache.quarantined[0][1]

    def test_missing_footer_quarantined(self, cache):
        key = self._seed(cache)
        _entry_path(cache, key).write_bytes(pickle.dumps(30) + b"x" * 100)
        hit, _ = cache.get(key)
        assert not hit
        assert "footer" in cache.quarantined[0][1]

    def test_corrupt_entry_recomputed_by_sweep(self, cache):
        runner = SweepRunner(cache=cache)
        assert runner.map(_work, [(3,)]) == [30]
        key = cache.key(_work, (3,))
        path = _entry_path(cache, key)
        path.write_bytes(path.read_bytes()[:10])
        runner2 = SweepRunner(cache=cache)
        assert runner2.map(_work, [(3,)]) == [30]
        assert runner2.misses == 1  # quarantined -> miss -> recompute
        # the recompute repaired the entry in place
        runner3 = SweepRunner(cache=cache)
        assert runner3.map(_work, [(3,)]) == [30]
        assert runner3.hits == 1

    def test_quarantine_preserves_evidence(self, cache):
        key = self._seed(cache)
        path = _entry_path(cache, key)
        garbage = b"\x00" * 200
        path.write_bytes(garbage)
        cache.get(key)
        assert (cache.root / "quarantine" / f"{key}.pkl").read_bytes() == garbage

