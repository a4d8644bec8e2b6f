"""Kernel launch semantics: validation, execution, cost charging."""

import numpy as np
import pytest

from repro.cuda.kernel import Kernel, LaunchConfig, launch
from repro.cuda.launch import grid_1d
from repro.errors import InvalidKernelLaunch

square = Kernel(
    name="square",
    body=lambda tid, x, out: out.__setitem__(tid, x[tid] ** 2),
    cost=lambda nt, x, out: (nt, 2.0 * nt * 8),
)


class TestLaunchConfig:
    def test_n_threads(self):
        assert LaunchConfig(4, 256).n_threads == 1024

    def test_rejects_nonpositive(self, device):
        with pytest.raises(InvalidKernelLaunch):
            LaunchConfig(0, 256).validate(device)
        with pytest.raises(InvalidKernelLaunch):
            LaunchConfig(1, 0).validate(device)

    def test_rejects_oversized_block(self, device):
        with pytest.raises(InvalidKernelLaunch):
            LaunchConfig(1, 2048).validate(device)


class TestLaunch:
    def test_executes_body_over_all_threads(self, device, rng):
        x = device.to_device(rng.random(100))
        out = device.empty(100)
        launch(square, grid_1d(100), x, out, n_threads=100)
        assert np.allclose(out.data, x.data**2)

    def test_charges_time_and_counts(self, device, rng):
        x = device.to_device(rng.random(10))
        out = device.empty(10)
        t0 = device.elapsed
        launches0 = device.kernel_launches
        dt = launch(square, (1, 32), x, out, n_threads=10)
        assert dt > 0
        assert device.elapsed == pytest.approx(t0 + dt)
        assert device.kernel_launches == launches0 + 1

    def test_partial_tail_threads_masked(self, device, rng):
        # grid covers 128 threads but only 100 are live
        x = device.to_device(rng.random(100))
        out = device.zeros(100)
        launch(square, grid_1d(100, 64), x, out, n_threads=100)
        assert np.allclose(out.data, x.data**2)

    def test_n_threads_over_capacity_rejected(self, device, rng):
        x = device.to_device(rng.random(10))
        with pytest.raises(InvalidKernelLaunch):
            launch(square, (1, 4), x, x, n_threads=10)

    def test_requires_device_operand(self):
        with pytest.raises(InvalidKernelLaunch):
            launch(square, (1, 32), np.zeros(4), np.zeros(4))

    def test_mixed_devices_rejected(self, rng):
        from repro.cuda.device import Device

        d1, d2 = Device(), Device()
        a = d1.to_device(rng.random(4))
        b = d2.to_device(rng.random(4))
        with pytest.raises(InvalidKernelLaunch):
            launch(square, (1, 32), a, b)

    def test_negative_n_threads_rejected(self, device, rng):
        x = device.to_device(rng.random(10))
        with pytest.raises(InvalidKernelLaunch):
            launch(square, (1, 32), x, x, n_threads=-1)

    def test_bad_kind_rejected_at_definition(self):
        with pytest.raises(ValueError):
            Kernel("k", lambda tid: None, lambda nt: (0, 0), kind="warp-magic")


class TestBodyContract:
    """Bodies get ``tid = slice(0, n_threads)``: operands index to views."""

    @staticmethod
    def _probe(seen):
        def body(tid, x, out):
            seen.append((np.shares_memory(x[tid], x), x[tid].shape))
            out[tid] = x[tid] + 1.0

        return Kernel("probe", body, lambda nt, x, out: (nt, 16.0 * nt))

    def test_operand_reads_are_views(self, device, rng):
        seen = []
        x = device.to_device(rng.random((40, 3)))
        out = device.empty((40, 3))
        launch(self._probe(seen), grid_1d(40, 16), x, out, n_threads=40)
        assert seen == [(True, (40, 3))]

    def test_views_of_view_rows_operands(self, device, rng):
        seen = []
        base = device.to_device(rng.random(50))
        out = device.zeros(50)
        launch(
            self._probe(seen), grid_1d(20, 16),
            base.view_rows(7, 27), out.view_rows(7, 27), n_threads=20,
        )
        assert seen == [(True, (20,))]
        assert np.array_equal(out.data[7:27], base.data[7:27] + 1.0)
        assert not out.data[:7].any() and not out.data[27:].any()

    def test_trailing_masked_threads_never_touched(self, device, rng):
        # 64 threads launched, 10 live: elements 10.. of each operand are
        # outside the view and keep their sentinel
        seen = []
        x = device.to_device(rng.random(16))
        out = device.full(16, -7.0)
        launch(self._probe(seen), grid_1d(10, 32), x, out, n_threads=10)
        assert seen == [(True, (10,))]
        assert np.array_equal(out.data[:10], x.data[:10] + 1.0)
        assert np.all(out.data[10:] == -7.0)

    def test_zero_threads_runs_body_on_empty_views(self, device, rng):
        seen = []
        x = device.to_device(rng.random(8))
        out = device.full(8, -7.0)
        launches0 = device.kernel_launches
        launch(self._probe(seen), (1, 32), x, out, n_threads=0)
        assert seen == [(False, (0,))]  # an empty view shares no bytes
        assert np.all(out.data == -7.0)
        assert device.kernel_launches == launches0 + 1


class TestGrid1d:
    def test_covers_requested_threads(self):
        g, b = grid_1d(1000, 256)
        assert g * b >= 1000
        assert g == 4

    def test_exact_multiple(self):
        assert grid_1d(512, 256) == (2, 256)

    def test_zero_threads(self):
        g, b = grid_1d(0)
        assert g >= 1

    def test_negative_rejected(self):
        with pytest.raises(InvalidKernelLaunch):
            grid_1d(-1)
