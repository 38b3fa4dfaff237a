"""Tests for the symmetric heap and signal arrays."""

import numpy as np
import pytest

from repro.hw import HGX_A100_8GPU, Storage
from repro.nvshmem import NVSHMEMRuntime
from repro.nvshmem.heap import element_range
from repro.runtime import MultiGPUContext


@pytest.fixture
def rt():
    return NVSHMEMRuntime(MultiGPUContext(HGX_A100_8GPU.scaled_to(4)))


class TestSymmetricArray:
    def test_malloc_allocates_on_every_pe(self, rt):
        arr = rt.malloc("grid", (8, 8))
        assert arr.n_pes == 4
        for pe in range(4):
            buf = arr.on(pe)
            assert buf.device == pe
            assert buf.shape == (8, 8)
            assert buf.storage is Storage.SYMMETRIC

    def test_malloc_duplicate_name_rejected(self, rt):
        rt.malloc("a", (2,))
        with pytest.raises(ValueError):
            rt.malloc("a", (2,))

    def test_malloc_adopts_per_pe_data(self, rt):
        data = [np.full(4, pe + 1.0) for pe in range(3)] + [None]
        arr = rt.malloc("grid", (4,), data=data)
        assert [arr.local(pe) is data[pe] for pe in range(3)] == [True] * 3
        assert np.all(arr.local(3) == 0.0)
        assert [rt.ctx.memory.used_bytes(pe) for pe in range(4)] == [32] * 4

    def test_malloc_needs_one_data_entry_per_pe(self, rt):
        with pytest.raises(ValueError, match="2 PE arrays for 4 PEs"):
            rt.malloc("grid", (4,), data=[np.zeros(4), np.zeros(4)])

    def test_local_returns_backing_array(self, rt):
        arr = rt.malloc("grid", (4,), fill=2.0)
        assert np.all(arr.local(1) == 2.0)
        arr.local(1)[0] = 9.0
        assert arr.on(1).data[0] == 9.0

    def test_pe_out_of_range(self, rt):
        arr = rt.malloc("grid", (4,))
        with pytest.raises(ValueError):
            arr.on(4)

    def test_free_releases_all_pes(self, rt):
        before = [rt.ctx.memory.used_bytes(pe) for pe in range(4)]
        arr = rt.malloc("tmp", (1000,))
        rt.heap.free(arr)
        after = [rt.ctx.memory.used_bytes(pe) for pe in range(4)]
        assert before == after

    def test_free_foreign_array_rejected(self, rt):
        arr = rt.malloc("tmp", (4,))
        rt.heap.free(arr)
        with pytest.raises(RuntimeError):
            rt.heap.free(arr)

    def test_get_by_name(self, rt):
        arr = rt.malloc("named", (2,))
        assert rt.heap.get("named") is arr


class TestSignalArray:
    def test_four_signals_per_pe_like_the_paper(self, rt):
        """Paper §4.1.1: pairs of flags for top and bottom neighbors —
        four in total for each PE."""
        sig = rt.malloc_signals("halo_flags", 4)
        for pe in range(4):
            for i in range(4):
                assert sig.value(pe, i) == 0

    def test_signals_are_per_pe_independent(self, rt):
        sig = rt.malloc_signals("s", 2)
        sig.flag(1, 0).set(5)
        assert sig.value(1, 0) == 5
        assert sig.value(0, 0) == 0
        assert sig.value(1, 1) == 0

    def test_out_of_range(self, rt):
        sig = rt.malloc_signals("s", 2)
        with pytest.raises(ValueError):
            sig.flag(4, 0)
        with pytest.raises(ValueError):
            sig.flag(0, 2)

    def test_duplicate_signal_name_rejected(self, rt):
        rt.malloc_signals("s", 1)
        with pytest.raises(ValueError):
            rt.malloc_signals("s", 1)


class TestRuntime:
    def test_more_pes_than_gpus_rejected(self):
        ctx = MultiGPUContext(HGX_A100_8GPU.scaled_to(2))
        with pytest.raises(ValueError):
            NVSHMEMRuntime(ctx, n_pes=3)

    def test_device_handle_range(self, rt):
        rt.device(0)
        rt.device(3)
        with pytest.raises(ValueError):
            rt.device(4)

    def test_host_barrier_all(self, rt):
        times = []

        def host(rank, delay):
            from repro.sim import Delay
            yield Delay(delay)
            yield from rt.host_barrier_all(rank)
            times.append(rt.ctx.sim.now)

        for r in range(4):
            rt.ctx.sim.spawn(host(r, float(r)), name=f"h{r}")
        rt.ctx.run()
        assert len(set(times)) == 1
        assert times[0] >= 3.0 + rt.ctx.cost.nvshmem_host_barrier_us


class TestElementRange:
    """Edge cases of the flat covering-interval computation the
    sanitizer uses to express heap accesses."""

    def test_zero_length_slice_is_empty_interval(self):
        assert element_range((8,), slice(3, 3)) == (0, 0)
        assert element_range((8,), slice(5, 2)) == (0, 0)
        assert element_range((4, 4), (slice(0, 0), slice(None))) == (0, 0)

    def test_end_of_heap_slices(self):
        assert element_range((8,), slice(6, None)) == (6, 8)
        assert element_range((8,), slice(None)) == (0, 8)
        assert element_range((8,), 7) == (7, 8)
        assert element_range((2, 3), (1, 2)) == (5, 6)
        assert element_range((4, 6), (slice(2, 4), slice(None))) == (12, 24)

    def test_negative_index_resolves_to_heap_end(self):
        assert element_range((8,), -1) == (7, 8)
        assert element_range((8,), slice(-2, None)) == (6, 8)

    def test_strided_selection_is_conservative_covering(self):
        lo, hi = element_range((4, 6), (slice(None), 2))
        assert (lo, hi) == (2, 21)  # covers skipped elements
        assert hi - lo >= 4

    def test_ranges_are_element_based_for_any_itemsize(self, rt):
        """Offsets count elements, not bytes: the same index on arrays
        of 4-, 8-, and 16-byte dtypes yields one identical interval,
        and hi never exceeds the element count."""
        import numpy as np

        shape, index = (4, 6), (slice(1, 3), slice(None))
        want = element_range(shape, index)
        for dtype in (np.float32, np.float64, np.complex128):
            arr = rt.malloc(f"er_{np.dtype(dtype).name}", shape, dtype=dtype)
            assert element_range(arr.shape, index) == want
            assert want[1] <= int(np.prod(arr.shape))

    def test_cache_returns_consistent_results(self):
        first = element_range((16,), slice(4, 9))
        second = element_range((16,), slice(4, 9))
        assert first == second == (4, 9)
