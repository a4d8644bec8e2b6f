"""Thrust primitive semantics + properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import thrust
from repro.cuda.device import Device
from repro.errors import DeviceArrayError


class TestGeneration:
    def test_copy(self, device, rng):
        a = device.to_device(rng.random(8))
        b = device.empty(8)
        thrust.copy(a, b)
        assert np.array_equal(a.data, b.data)

    def test_copy_shape_mismatch(self, device, rng):
        with pytest.raises(DeviceArrayError):
            thrust.copy(device.empty(3), device.empty(4))


class TestTransform:
    def test_unary(self, device):
        a = device.to_device(np.array([1.0, 4.0, 9.0]))
        out = thrust.transform(a, "sqrt")
        assert np.allclose(out.data, [1, 2, 3])

    def test_binary_arrays(self, device, rng):
        a = device.to_device(rng.random(6))
        b = device.to_device(rng.random(6))
        out = thrust.transform(a, "plus", b)
        assert np.allclose(out.data, a.data + b.data)

    def test_binary_scalar(self, device, rng):
        a = device.to_device(rng.random(6))
        out = thrust.transform(a, "multiplies", 3.0)
        assert np.allclose(out.data, 3.0 * a.data)

    def test_in_place_via_out(self, device, rng):
        a = device.to_device(rng.random(6))
        expected = np.minimum(a.data, 0.5)
        b = device.full(6, 0.5)
        thrust.transform(a, "minimum", b, out=a)
        assert np.allclose(a.data, expected)

    def test_unknown_functor(self, device):
        with pytest.raises(ValueError, match="unary"):
            thrust.transform(device.zeros(3), "frobnicate")
        with pytest.raises(ValueError, match="binary"):
            thrust.transform(device.zeros(3), "frobnicate", device.zeros(3))


class TestReductionsScans:
    def test_inclusive_scan(self, device):
        a = device.to_device(np.array([1.0, 2.0, 3.0]))
        assert thrust.inclusive_scan(a).data.tolist() == [1.0, 3.0, 6.0]

    def test_exclusive_scan(self, device):
        a = device.to_device(np.array([1.0, 2.0, 3.0]))
        assert thrust.exclusive_scan(a).data.tolist() == [0.0, 1.0, 3.0]

    def test_exclusive_scan_with_init(self, device):
        a = device.to_device(np.array([1.0, 2.0]))
        assert thrust.exclusive_scan(a, init=10).data.tolist() == [10.0, 11.0]

    @pytest.mark.parametrize("init", [0, 10])
    def test_scans_of_empty_array(self, init):
        """Both scans return an empty array and charge one empty launch."""
        charged = {}
        for scan, kw in (
            (thrust.inclusive_scan, {}),
            (thrust.exclusive_scan, {"init": init}),
        ):
            device = Device()
            a = device.to_device(np.empty(0, dtype=np.int64))
            n0, launches0 = len(device.timeline), device.kernel_launches
            out = scan(a, **kw)
            assert out.shape == (0,) and out.dtype == np.int64
            charged[scan.__name__] = (
                [ev.duration for ev in device.timeline.events[n0:]],
                device.kernel_launches - launches0,
            )
        assert charged["exclusive_scan"] == charged["inclusive_scan"]
        assert charged["inclusive_scan"][1] == 1


class TestSortSearch:
    def test_sort_by_key_stable(self, device):
        keys = device.to_device(np.array([1, 0, 1, 0], dtype=np.int64))
        vals = device.to_device(np.array([10.0, 20.0, 30.0, 40.0]))
        thrust.sort_by_key(keys, vals)
        assert keys.data.tolist() == [0, 0, 1, 1]
        assert vals.data.tolist() == [20.0, 40.0, 10.0, 30.0]

    def test_sort_by_key_2d_payload(self, device, rng):
        keys_np = np.array([2, 0, 1], dtype=np.int64)
        vals_np = rng.random((3, 4))
        keys = device.to_device(keys_np)
        vals = device.to_device(vals_np)
        thrust.sort_by_key(keys, vals)
        assert np.array_equal(vals.data, vals_np[np.argsort(keys_np)])

    def test_sort_by_key_length_mismatch(self, device):
        with pytest.raises(DeviceArrayError):
            thrust.sort_by_key(
                device.to_device(np.zeros(3, dtype=np.int64)), device.zeros(4)
            )

    def test_reduce_by_key_segments(self, device):
        keys = device.to_device(np.array([0, 0, 2, 2, 2], dtype=np.int64))
        vals = device.to_device(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        uk, sums = thrust.reduce_by_key(keys, vals)
        assert uk.data.tolist() == [0, 2]
        assert sums.data.tolist() == [3.0, 12.0]

    def test_reduce_by_key_empty(self, device):
        uk, sums = thrust.reduce_by_key(
            device.empty(0, dtype=np.int64), device.empty(0)
        )
        assert uk.size == 0 and sums.size == 0

    def test_lower_upper_bound(self, device):
        arr = device.to_device(np.array([1.0, 2.0, 2.0, 4.0]))
        q = device.to_device(np.array([2.0, 3.0]))
        assert thrust.lower_bound(arr, q).data.tolist() == [1, 3]


class TestProperties:
    @given(
        keys=hnp.arrays(np.int64, st.integers(1, 100), elements=st.integers(0, 10)),
    )
    @settings(max_examples=25, deadline=None)
    def test_reduce_by_key_equals_bincount(self, keys):
        device = Device()
        vals = np.ones(keys.size)
        dk = device.to_device(np.sort(keys))
        dv = device.to_device(vals)
        uk, sums = thrust.reduce_by_key(dk, dv)
        ref = np.bincount(keys)
        nz = np.flatnonzero(ref)
        assert np.array_equal(uk.data, nz)
        assert np.allclose(sums.data, ref[nz])

    @given(
        data=hnp.arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_scan_matches_cumsum(self, data):
        device = Device()
        a = device.to_device(data)
        assert np.allclose(thrust.inclusive_scan(a).data, np.cumsum(data))

    def test_cross_device_rejected(self, rng):
        d1, d2 = Device(), Device()
        a = d1.to_device(rng.random(3))
        b = d2.to_device(rng.random(3))
        with pytest.raises(DeviceArrayError):
            thrust.transform(a, "plus", b)

    def test_host_array_rejected(self, device):
        with pytest.raises(DeviceArrayError):
            thrust.inclusive_scan(np.zeros(3))  # type: ignore[arg-type]


class TestScratchRouting:
    """Thrust temp storage rides the caching allocator (ThrustAllocator
    pattern): radix-sort double buffers and CUB scan state show up as scratch
    traffic in allocator stats, not raw modeled cudaMalloc per call."""

    def test_sort_scratch_hits_after_warmup(self, device):
        import numpy as np
        from repro import thrust

        rng = np.random.default_rng(0)
        keys = device.to_device(rng.integers(0, 8, 1024))
        vals = device.to_device(rng.random(1024))
        thrust.sort_by_key(keys, vals)  # cold: scratch miss reserves the double buffer
        stats0 = device.alloc_stats()
        assert stats0["scratch_requests"] == 1
        thrust.sort_by_key(keys, vals)  # warm: the parked buffer serves it
        stats1 = device.alloc_stats()
        assert stats1["scratch_requests"] == 2
        assert stats1["scratch_hits"] == stats0["scratch_hits"] + 1

    def test_scan_scratch_counted_separately_from_arrays(self, device):
        import numpy as np
        from repro import thrust

        a = device.to_device(np.arange(4096, dtype=np.int64))
        hits0 = device.alloc_stats()["hits"] + device.alloc_stats()["misses"]
        thrust.inclusive_scan(a, out=device.empty(a.shape, dtype=a.dtype))
        stats = device.alloc_stats()
        # one array alloc (the out buffer we made), scratch kept apart
        assert stats["hits"] + stats["misses"] == hits0 + 1
        assert stats["scratch_requests"] == 1

    def test_sort_by_key_scratch_covers_both_buffers(self, device):
        import numpy as np
        from repro import thrust

        keys = device.to_device(np.array([3, 1, 2], dtype=np.int64))
        vals = device.to_device(np.arange(6, dtype=np.float64).reshape(3, 2))
        thrust.sort_by_key(keys, vals)
        stats = device.alloc_stats()
        assert stats["scratch_bytes"] >= keys.nbytes + vals.nbytes
        assert device.allocator.used_bytes == keys.nbytes + vals.nbytes
