"""Device SpMV (csrmv / coomv): correctness and cost semantics."""

import numpy as np
import pytest

from repro.cusparse.conversions import coo2csr
from repro.cusparse.matrices import coo_to_device, csr_to_device
from repro.cusparse.spmv import coomv, csrmv
from repro.cusparse.substrate import Substrate
from repro.errors import SparseValueError
from repro.precision import as_f64
from repro.sparse.construct import random_sparse


@pytest.fixture
def setup(device, rng):
    host = random_sparse(30, 30, 0.2, rng=rng, symmetric=True)
    dcsr = csr_to_device(device, host.to_csr())
    x = rng.random(30)
    dx = device.to_device(x)
    return host, dcsr, x, dx


class TestCsrmv:
    def test_matches_dense(self, device, setup):
        host, dcsr, x, dx = setup
        y = csrmv(dcsr, dx)
        assert np.allclose(y.data, host.to_dense() @ x)

    def test_alpha_beta(self, device, setup, rng):
        host, dcsr, x, dx = setup
        y0 = rng.random(30)
        dy = device.to_device(y0)
        csrmv(dcsr, dx, dy, alpha=2.0, beta=0.5)
        assert np.allclose(dy.data, 2.0 * (host.to_dense() @ x) + 0.5 * y0)

    def test_plan_cache_gives_same_answer(self, device, setup):
        """The operand plans its row sweep once, expands no row ids, and
        repeat products are bit-identical."""
        host, dcsr, x, dx = setup
        y1 = csrmv(dcsr, dx).data.copy()
        sweep = dcsr.substrate.sweep
        assert dcsr.substrate.rows is None
        y2 = csrmv(dcsr, dx).data
        assert dcsr.substrate.sweep is sweep
        assert y1.tobytes() == y2.tobytes()

    def test_dim_mismatch(self, device, setup):
        _, dcsr, _, _ = setup
        with pytest.raises(SparseValueError):
            csrmv(dcsr, device.zeros(31))

    def test_y_dim_mismatch(self, device, setup):
        _, dcsr, _, dx = setup
        with pytest.raises(SparseValueError):
            csrmv(dcsr, dx, device.zeros(29))

    def test_charges_one_kernel(self, device, setup):
        _, dcsr, _, dx = setup
        k0 = device.kernel_launches
        csrmv(dcsr, dx, device.empty(30))
        assert device.kernel_launches == k0 + 1


class TestCoomv:
    def test_matches_dense(self, device, rng):
        host = random_sparse(25, 25, 0.2, rng=rng)
        dcoo = coo_to_device(device, host)
        x = rng.random(25)
        y = coomv(dcoo, device.to_device(x))
        assert np.allclose(y.data, host.to_dense() @ x)

    def test_slower_than_csrmv(self, device, rng):
        """The format ablation: COO atomics cost more than CSR (why the
        pipeline converts before the eigensolver)."""
        host = random_sparse(200, 200, 0.1, rng=rng)
        dcoo = coo_to_device(device, host.sorted_by_row())
        dcsr = coo2csr(dcoo)
        x = device.to_device(rng.random(200))

        t0 = device.elapsed
        coomv(dcoo, x)
        t_coo = device.elapsed - t0
        t0 = device.elapsed
        csrmv(dcsr, x)
        t_csr = device.elapsed - t0
        assert t_coo > t_csr

    def test_dim_mismatch(self, device, rng):
        host = random_sparse(5, 5, 0.5, rng=rng)
        dcoo = coo_to_device(device, host)
        with pytest.raises(SparseValueError):
            coomv(dcoo, device.zeros(6))


class TestSubstrateSpmv:
    """``Substrate.spmv`` scales its one gathered temporary in place; the
    bytes must be those of the two-temporary expression it replaced."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_bytes_match_the_out_of_place_expression(self, rng, dtype):
        n = 40
        dense = (rng.random((n, n)) < 0.2) * rng.standard_normal((n, n))
        dense[[3, 17, 29]] = 0.0  # empty rows
        dense[5, :2] = 0.0
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        # stored signed zeros in row 5
        rows = np.concatenate([rows, [5, 5]])
        cols = np.concatenate([cols, [0, 1]])
        vals = np.concatenate([vals, [0.0, -0.0]])
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order].astype(dtype)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        x = rng.standard_normal(n).astype(dtype)
        x[[0, 7]] = [-0.0, 0.0]
        got = Substrate(n, cols, vals, indptr=indptr).spmv(x)
        want = np.bincount(
            rows, weights=as_f64(vals) * as_f64(x)[cols], minlength=n
        )
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
