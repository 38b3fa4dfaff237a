"""Tests for device buffers, storage classes, and peer access."""

import numpy as np
import pytest

from repro.hw import DeviceBuffer, MemoryManager, Storage
from repro.hw.memory import PeerAccessError


@pytest.fixture
def mm():
    return MemoryManager(num_gpus=4)


class TestAllocation:
    def test_alloc_zero_filled_by_default(self, mm):
        buf = mm.alloc(0, "a", (4, 4))
        assert buf.shape == (4, 4)
        assert buf.dtype == np.float64
        assert np.all(buf.data == 0.0)
        assert buf.storage is Storage.GLOBAL

    def test_alloc_with_fill(self, mm):
        buf = mm.alloc(1, "b", 8, fill=3.5)
        assert np.all(buf.data == 3.5)

    def test_alloc_uninitialized(self, mm):
        buf = mm.alloc(1, "c", 8, fill=None)
        assert buf.shape == (8,)

    def test_used_bytes_tracks_allocs(self, mm):
        assert mm.used_bytes(2) == 0
        buf = mm.alloc(2, "x", (10,), dtype=np.float64)
        assert mm.used_bytes(2) == 80
        mm.free(buf)
        assert mm.used_bytes(2) == 0

    def test_capacity_enforced(self):
        mm = MemoryManager(num_gpus=1, capacity_bytes=100)
        mm.alloc(0, "small", (10,), dtype=np.float64)  # 80 bytes
        with pytest.raises(MemoryError):
            mm.alloc(0, "big", (10,), dtype=np.float64)

    def test_double_free_raises(self, mm):
        buf = mm.alloc(0, "a", (2,))
        mm.free(buf)
        with pytest.raises(RuntimeError, match="double free"):
            mm.free(buf)

    def test_invalid_device_rejected(self, mm):
        with pytest.raises(ValueError):
            mm.alloc(4, "x", (1,))
        with pytest.raises(ValueError):
            mm.used_bytes(-1)

    def test_buffers_on_device(self, mm):
        a = mm.alloc(0, "a", (1,))
        b = mm.alloc(1, "b", (1,))
        c = mm.alloc(0, "c", (1,))
        assert list(mm.buffers_on(0)) == [a, c]
        assert list(mm.buffers_on(1)) == [b]

    def test_buffer_identity_not_value_equality(self, mm):
        a = mm.alloc(0, "same", (2,))
        b = mm.alloc(0, "same", (2,))
        assert a != b

    def test_nbytes(self, mm):
        buf = mm.alloc(0, "n", (3, 3), dtype=np.float32)
        assert buf.nbytes == 36

    def test_alloc_adopts_data(self, mm):
        data = np.arange(6.0)
        buf = mm.alloc(1, "adopted", 6, data=data)
        assert buf.data is data
        assert mm.used_bytes(1) == 48

    @pytest.mark.parametrize("data", [np.zeros(5), np.zeros(6, dtype=np.float32)])
    def test_alloc_rejects_mismatched_data(self, mm, data):
        with pytest.raises(ValueError, match="cannot adopt"):
            mm.alloc(0, "a", (6,), data=data)
        assert mm.used_bytes(0) == 0

    def test_capacity_enforced_on_adopted_data(self):
        mm = MemoryManager(num_gpus=1, capacity_bytes=100)
        with pytest.raises(MemoryError):
            mm.alloc(0, "big", (20,), data=np.zeros(20))


class TestPeerAccess:
    def test_local_access_always_ok(self, mm):
        buf = mm.alloc(0, "a", (1,))
        mm.check_peer_access(0, buf)  # no raise

    def test_remote_global_requires_enable(self, mm):
        buf = mm.alloc(1, "a", (1,))
        with pytest.raises(PeerAccessError):
            mm.check_peer_access(0, buf)
        mm.enable_peer_access(0, 1)
        mm.check_peer_access(0, buf)  # now fine

    def test_peer_access_is_directional(self, mm):
        buf0 = mm.alloc(0, "a", (1,))
        mm.enable_peer_access(0, 1)
        with pytest.raises(PeerAccessError):
            mm.check_peer_access(1, buf0)

    def test_symmetric_storage_always_remotely_accessible(self, mm):
        buf = mm.alloc(2, "sym", (4,), storage=Storage.SYMMETRIC)
        mm.check_peer_access(0, buf)  # PGAS contract: no enable needed

    def test_enable_all_peer_access(self, mm):
        mm.enable_all_peer_access()
        for a in range(4):
            for b in range(4):
                if a != b:
                    buf = mm.alloc(b, f"x{a}{b}", (1,))
                    mm.check_peer_access(a, buf)
