"""Device context: accounting, stage tags, reserve-only buffers."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.hw.spec import K20C


class TestDeviceAccounting:
    def test_charge_kernel_advances_clock(self, device):
        t0 = device.elapsed
        dt = device.charge_kernel("k", flops=1e9, bytes_moved=1e9)
        assert dt > 0
        assert device.elapsed == pytest.approx(t0 + dt)
        assert device.kernel_launches == 1

    def test_charge_cpu_records_cpu_category(self, device):
        device.charge_cpu("host work", 0.5)
        assert device.timeline.total("cpu") == pytest.approx(0.5)

    def test_stage_tags_nest_and_restore(self, device):
        with device.stage("outer"):
            device.charge_kernel("a", 0, 0)
            with device.stage("inner"):
                device.charge_kernel("b", 0, 0)
            device.charge_kernel("c", 0, 0)
        by_tag = device.timeline.by_tag()
        assert by_tag.keys() == {"outer", "inner"}

    def test_memory_info(self, device, rng):
        free0, total = device.memory_info()
        assert total == K20C.memory_bytes
        device.to_device(rng.random(1000))
        free1, _ = device.memory_info()
        # cudaMemGetInfo reports the allocator's rounded footprint: 8000
        # requested bytes occupy one 512 B-granular block (8192)
        assert free1 == free0 - 8192

    def test_reset_clears_state(self, device, rng):
        device.to_device(rng.random(10))
        device.charge_kernel("k", 1, 1)
        device.reset()
        assert device.elapsed == 0.0
        assert device.allocator.used_bytes == 0
        assert device.kernel_launches == 0

    def test_repr(self, device):
        assert "K20c" in repr(device)


class TestReserve:
    #: allocate/free sequence: misses, cache hits, a split and a large block
    SEQUENCE = (("a", (101, 1000)), ("b", 500), ("free", "a"),
                ("c", (101, 1000)), ("d", (3, 7)), ("free", "b"),
                ("e", (4096, 1024)), ("free", "e"), ("f", (2048, 1024)))

    def _replay(self, dev, alloc):
        live = {}
        for name, arg in self.SEQUENCE:
            if name == "free":
                live.pop(arg).free()
            else:
                live[name] = alloc(dev, arg)
        return [(ev.name, ev.category, ev.duration) for ev in dev.timeline]

    def test_same_allocator_and_timeline_as_empty(self):
        empty, reserve = Device(), Device()
        ev_empty = self._replay(empty, lambda d, s: d.empty(s))
        ev_reserve = self._replay(reserve, lambda d, s: d.reserve(s))
        assert ev_reserve == ev_empty
        assert any(name == "cudaMalloc" for name, _, _ in ev_empty)
        assert reserve.alloc_stats() == empty.alloc_stats()
        assert reserve.memory_info() == empty.memory_info()

    def test_holds_no_host_storage_and_refuses_writes(self, device):
        buf = device.reserve((101, 13_536), dtype=np.float32)
        assert buf.shape == (101, 13_536) and buf.dtype == np.float32
        assert buf.nbytes == 101 * 13_536 * 4
        assert buf.data.strides == (0, 0)
        with pytest.raises(ValueError):
            buf.data[...] = 1.0
        with pytest.raises(ValueError):
            buf.data[0, 0] = 1.0
        buf.free()
        assert device.allocator.used_bytes == 0

    def test_is_the_alloc_fault_site(self, device):
        from repro.chaos import FaultPlan, FaultSpec, chaos
        from repro.errors import DeviceMemoryError

        plan = FaultPlan([FaultSpec(site="cuda.alloc", fault="oom", nth=1)])
        with chaos(plan), pytest.raises(DeviceMemoryError):
            device.reserve((64, 64))
        assert plan.n_fired == 1

