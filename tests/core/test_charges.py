"""The host placement's CPU charge model: scaling relations matching the
paper's complexity expression (10)."""

from types import SimpleNamespace

import pytest

from repro.core.workflow import HostPlacement
from repro.cuda.device import Device
from repro.hw.costmodel import CPUCostModel
from repro.hw.spec import XEON_E5_2690

CPU = CPUCostModel(XEON_E5_2690)


def placement(n: int, k: int = 50) -> HostPlacement:
    """A host placement over a problem of dimension ``n`` (the charges
    read only the device, the CPU model and the problem shape)."""
    return HostPlacement(
        SimpleNamespace(device=Device(), cpu=CPU, n=n, k=k, A_solve=None)
    )


def charged(method: str, n: int, *args, k: int = 50) -> float:
    pl = placement(n, k)
    getattr(pl, method)(*args)
    return pl.s.device.timeline.total("cpu")


def find_eigenvectors(n: int, m: int, k: int) -> float:
    # an IRLM exit with no restarts charges FindEigenvectors alone
    return charged("finish_irlm", n, m, 0, k=k)


class TestChargeScaling:
    def test_takestep_linear_in_n_and_j(self):
        base = charged("charge_step", 10_000, 100.0)
        assert charged("charge_step", 20_000, 100.0) == pytest.approx(2 * base)
        assert charged("charge_step", 10_000, 200.0) == pytest.approx(2 * base)

    def test_restart_cubic_term_in_m(self):
        # with n small, the m^3 tridiagonal eig dominates
        t1 = charged("charge_restart", 100, 200, 100)
        t2 = charged("charge_restart", 100, 400, 200)
        assert 6 < t2 / t1 < 10

    def test_restart_basis_update_scales_with_n(self):
        # with m fixed and n large, the V·Q gemm dominates and is linear in n
        t1 = charged("charge_restart", 10**6, 100, 50)
        t2 = charged("charge_restart", 2 * 10**6, 100, 50)
        assert 1.7 < t2 / t1 < 2.1

    def test_find_eigenvectors_matches_complexity(self):
        # O(n·m·k): doubling any factor doubles the charge
        base = find_eigenvectors(10_000, 100, 50)
        assert find_eigenvectors(20_000, 100, 50) == pytest.approx(2 * base)
        assert find_eigenvectors(10_000, 200, 50) == pytest.approx(2 * base)
        assert find_eigenvectors(10_000, 100, 100) == pytest.approx(2 * base)

    def test_all_charges_land_in_cpu_category(self):
        pl = placement(1000, k=10)
        pl.charge_step(10.0)
        pl.charge_restart(20, 10)
        pl.finish_irlm(20, 0)
        dev = pl.s.device
        assert dev.timeline.total("cpu") == pytest.approx(dev.elapsed)
        assert dev.timeline.total("kernel") == 0.0
