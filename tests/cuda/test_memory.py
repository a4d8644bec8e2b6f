"""DeviceArray lifecycle, transfers, and the allocator's capacity guard."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cuda.allocator import CachingAllocator
from repro.errors import DeviceArrayError, DeviceMemoryError
from repro.hw.spec import K20C
from dataclasses import replace


class TestAllocator:
    def test_tracks_usage_and_peak(self):
        a = CachingAllocator(1 << 20)
        a.allocate(400)
        a.allocate(300)
        a.release(400)
        assert a.used_bytes == 300
        assert a.peak_bytes == 700
        # the live 300 B request holds one 512 B block; the freed one is
        # parked and counts as free
        assert a.free_bytes == (1 << 20) - 512

    def test_capacity_enforced(self):
        a = CachingAllocator(1024)
        a.allocate(900)
        with pytest.raises(DeviceMemoryError):
            a.allocate(20)

    def test_oom_message_mentions_sizes(self):
        a = CachingAllocator(100)
        with pytest.raises(DeviceMemoryError, match="101"):
            a.allocate(101)

    def test_negative_rejected(self):
        a = CachingAllocator(100)
        with pytest.raises(ValueError):
            a.allocate(-1)
        with pytest.raises(ValueError):
            a.release(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            CachingAllocator(0)


class TestDeviceArray:
    def test_to_device_round_trip(self, device, rng):
        x = rng.random((10, 3))
        d = device.to_device(x)
        assert d.shape == (10, 3)
        assert np.array_equal(d.copy_to_host(), x)

    def test_transfers_charge_pcie_time(self, device, rng):
        x = rng.random(1000)
        before = device.timeline.communication_time()
        d = device.to_device(x)
        d.copy_to_host()
        assert device.timeline.communication_time() > before
        assert device.timeline.count("h2d") == 1
        assert device.timeline.count("d2h") == 1

    def test_copy_to_host_into_preallocated(self, device, rng):
        x = rng.random(50)
        d = device.to_device(x)
        out = np.empty(50)
        got = d.copy_to_host(out=out)
        assert got is out
        assert np.array_equal(out, x)

    def test_copy_to_host_buffer_mismatch(self, device, rng):
        d = device.to_device(rng.random(50))
        with pytest.raises(DeviceArrayError):
            d.copy_to_host(out=np.empty(51))

    def test_copy_from_host_shape_check(self, device, rng):
        d = device.to_device(rng.random(5))
        with pytest.raises(DeviceArrayError):
            d.copy_from_host(rng.random(6))

    def test_free_releases_memory(self, device, rng):
        used0 = device.allocator.used_bytes
        d = device.to_device(rng.random(1000))
        assert device.allocator.used_bytes == used0 + 8000
        d.free()
        assert device.allocator.used_bytes == used0

    def test_use_after_free_raises(self, device, rng):
        d = device.to_device(rng.random(10))
        d.free()
        with pytest.raises(DeviceArrayError):
            _ = d.shape
        with pytest.raises(DeviceArrayError):
            d.copy_to_host()

    def test_double_free_is_idempotent(self, device, rng):
        d = device.to_device(rng.random(10))
        d.free()
        d.free()  # no raise
        assert not d.is_valid

    def test_device_oom(self):
        tiny = Device(spec=replace(K20C, memory_bytes=1024))
        with pytest.raises(DeviceMemoryError):
            tiny.to_device(np.zeros(1000))

    def test_device_copy_charges_kernel_not_pcie(self, device, rng):
        d = device.to_device(rng.random(100))
        comm0 = device.timeline.communication_time()
        c = d.copy()
        assert np.array_equal(c.data, d.data)
        assert device.timeline.communication_time() == comm0

    def test_zeros_full_empty(self, device):
        z = device.zeros(5)
        f = device.full(5, 3.5)
        e = device.empty(5)
        assert np.all(z.data == 0)
        assert np.all(f.data == 3.5)
        assert e.shape == (5,)

    def test_repr_mentions_freed(self, device, rng):
        d = device.to_device(rng.random(3))
        d.free()
        assert "freed" in repr(d)

    def test_view_rows_is_zero_copy(self, device, rng):
        d = device.to_device(rng.random((10, 4)))
        used = device.allocator.used_bytes
        v = d.view_rows(2, 5)
        assert device.allocator.used_bytes == used  # no allocation
        assert v.shape == (3, 4)
        v.data[0, 0] = 99.0
        assert d.data[2, 0] == 99.0

    def test_view_rows_bounds_checked(self, device, rng):
        d = device.to_device(rng.random((10, 4)))
        with pytest.raises(DeviceArrayError):
            d.view_rows(5, 11)
        with pytest.raises(DeviceArrayError):
            d.view_rows(-1, 3)

    def test_view_rows_of_freed_array(self, device, rng):
        d = device.to_device(rng.random((4, 2)))
        d.free()
        with pytest.raises(DeviceArrayError):
            d.view_rows(0, 2)
