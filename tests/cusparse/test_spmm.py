"""Device sparse x dense products (csrmm)."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.cusparse.formats import csr_to_ell
from repro.cusparse.matrices import csr_to_device
from repro.cusparse.spmm import csrmm, ellmm
from repro.cusparse.substrate import epilogue
from repro.errors import SparseValueError
from repro.sparse.coo import COOMatrix
from repro.sparse.construct import random_sparse


class TestCsrmm:
    def test_matches_dense(self, device, rng):
        host = random_sparse(20, 15, 0.3, rng=rng)
        d = csr_to_device(device, host.to_csr())
        B = rng.random((15, 4))
        C = csrmm(d, device.to_device(B))
        assert np.allclose(C.data, host.to_dense() @ B)

    def test_alpha_beta(self, device, rng):
        host = random_sparse(10, 10, 0.4, rng=rng)
        d = csr_to_device(device, host.to_csr())
        B = rng.random((10, 3))
        C0 = rng.random((10, 3))
        dC = device.to_device(C0)
        csrmm(d, device.to_device(B), dC, alpha=-1.0, beta=2.0)
        assert np.allclose(dC.data, -(host.to_dense() @ B) + 2.0 * C0)

    def test_shape_mismatch(self, device, rng):
        host = random_sparse(10, 10, 0.4, rng=rng)
        d = csr_to_device(device, host.to_csr())
        with pytest.raises(SparseValueError):
            csrmm(d, device.zeros((11, 2)))

    def test_c_shape_mismatch(self, device, rng):
        host = random_sparse(10, 10, 0.4, rng=rng)
        d = csr_to_device(device, host.to_csr())
        with pytest.raises(SparseValueError):
            csrmm(d, device.zeros((10, 2)), device.zeros((10, 3)))

    def test_cost_scales_sublinearly_with_columns(self, device, rng):
        # cusparseDcsrmm streams the matrix structure once and reuses it
        # across the B columns, so cost grows with p but stays well under
        # p independent csrmv sweeps
        n = 2000
        host = random_sparse(n, n, 0.05, rng=rng)
        d = csr_to_device(device, host.to_csr())
        B1 = device.zeros((n, 1))
        B8 = device.zeros((n, 8))
        # warm the output buckets so the timed windows are kernel-only
        # (cache hits skip the cudaMalloc latency charge)
        csrmm(d, B1).free()
        csrmm(d, B8).free()
        t0 = device.elapsed
        csrmm(d, B1)
        t1 = device.elapsed - t0
        t0 = device.elapsed
        csrmm(d, B8)
        t8 = device.elapsed - t0
        assert t8 > 2 * t1, "more columns must cost more"
        assert t8 < 8 * t1, "matrix traffic must amortize across columns"

    def test_cheaper_than_column_sweeps(self, device, rng):
        n = 2000
        host = random_sparse(n, n, 0.05, rng=rng)
        d = csr_to_device(device, host.to_csr())
        B = device.zeros((n, 8))
        csrmm(d, B).free()  # warm the output bucket
        t0 = device.elapsed
        csrmm(d, B)
        t8 = device.elapsed - t0
        assert t8 < 8 * device.cost.spmv_time(n, d.nnz)


class TestFormatSpmm:
    """ELL SpMM path: bit-identical products, dispatch, autotuning."""

    def _operand(self, device, rng, n=60, m=40, density=0.15):
        host = random_sparse(n, m, density, rng=rng)
        return csr_to_device(device, host.to_csr()), host

    @pytest.mark.parametrize("fmt", ["ell"])
    def test_bit_identical_to_csrmm(self, device, rng, fmt):
        from repro.cusparse.formats import convert_for_spmv
        from repro.cusparse.spmm import spmm_any

        d, _ = self._operand(device, rng)
        B = device.to_device(rng.random((40, 5)))
        ref = csrmm(d, B)
        A = convert_for_spmv(d, fmt)
        C = spmm_any(A, B)
        assert C.data.tobytes() == ref.data.tobytes()
        A.free()

    @pytest.mark.parametrize("fmt", ["ell"])
    def test_alpha_beta_accumulate(self, device, rng, fmt):
        from repro.cusparse.formats import convert_for_spmv
        from repro.cusparse.spmm import spmm_any

        d, _ = self._operand(device, rng)
        B = device.to_device(rng.random((40, 3)))
        C0 = rng.random((60, 3))
        ref = device.to_device(C0)
        csrmm(d, B, ref, alpha=0.5, beta=-1.0)
        A = convert_for_spmv(d, fmt)
        C = device.to_device(C0)
        spmm_any(A, B, C, alpha=0.5, beta=-1.0)
        assert C.data.tobytes() == ref.data.tobytes()
        A.free()

    def test_spmm_any_rejects_unknown_operand(self, device, rng):
        from repro.cusparse.spmm import spmm_any

        with pytest.raises(SparseValueError):
            spmm_any(object(), device.zeros((4, 2)))

    def test_kernel_names_recorded(self, device, rng):
        from repro.cusparse.formats import convert_for_spmv
        from repro.cusparse.spmm import spmm_any

        d, _ = self._operand(device, rng)
        B = device.zeros((40, 4))
        spmm_any(convert_for_spmv(d, "ell"), B)
        names = [e.name for e in device.timeline if e.category == "kernel"]
        assert any(n == "cusparseDellmm" for n in names)


class TestSpmmAutotune:
    def test_invalid_args_rejected(self, device, rng):
        from repro.cusparse.formats import autotune_spmm_format
        from repro.errors import SparseFormatError

        host = random_sparse(30, 30, 0.2, rng=rng).to_csr()
        with pytest.raises(SparseFormatError):
            autotune_spmm_format(host.indptr, device.cost, p=0)
        with pytest.raises(SparseFormatError):
            autotune_spmm_format(
                host.indptr, device.cost, p=4, conversion_uses=0
            )

    def test_uniform_rows_favor_ell_when_conversion_free(self, device):
        """One nonzero per row (the k-means membership shape): ELL wins on
        the kernel alone."""
        from repro.cusparse.formats import autotune_spmm_format

        indptr = np.arange(5001, dtype=np.int64)  # exactly 1 nnz per row
        d = autotune_spmm_format(indptr, device.cost, p=16)
        assert d.format == "ell"

    def test_conversion_pricing_shifts_choice_to_csr(self, device):
        """Charging the per-iteration CSR->ELL rebuild flips the same
        matrix back to CSR — the conversion never amortizes at one use."""
        from repro.cusparse.formats import autotune_spmm_format

        indptr = np.arange(2001, dtype=np.int64)
        free = autotune_spmm_format(indptr, device.cost, p=16)
        priced = autotune_spmm_format(
            indptr, device.cost, p=16, conversion_uses=1
        )
        assert free.format == "ell"
        assert priced.format == "csr"

    def test_many_uses_amortize_conversion(self, device):
        from repro.cusparse.formats import autotune_spmm_format

        indptr = np.arange(2001, dtype=np.int64)
        amortized = autotune_spmm_format(
            indptr, device.cost, p=16, conversion_uses=10_000
        )
        assert amortized.format == "ell"

    def test_decision_reports_all_candidates(self, device, rng):
        from repro.cusparse.formats import autotune_spmm_format

        host = random_sparse(200, 200, 0.05, rng=rng).to_csr()
        d = autotune_spmm_format(host.indptr, device.cost, p=8)
        assert set(d.predicted_s) == {"csr", "ell"}
        assert d.format in d.predicted_s


class TestReduceIntoC:
    """An fp64, C-contiguous ``C`` that shares no memory with ``B`` takes
    the row reductions directly when ``alpha == 1, beta == 0``; every
    other call keeps the ``epilogue``.  Both must give the epilogue's
    bytes."""

    @pytest.mark.parametrize("kernel", ["csrmm", "ellmm"])
    @pytest.mark.parametrize("c_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (2.0, 0.0), (1.0, -0.5)])
    def test_bytes_match_the_epilogue(self, device, rng, kernel, c_dtype,
                                      alpha, beta):
        A, B, C0 = self._operands(device, rng)
        want = C0.astype(c_dtype)
        epilogue(want, A.substrate.spmm(B.data), alpha, beta)
        C = device.to_device(C0.astype(c_dtype))
        with self._spy() as calls:
            out = self._kernel(kernel, A)(B, C, alpha=alpha, beta=beta)
        assert out is C
        assert C.data.tobytes() == want.tobytes()
        direct = c_dtype == np.float64 and (alpha, beta) == (1.0, 0.0)
        assert calls == ([] if direct else ["epilogue"])

    @pytest.mark.parametrize("kernel", ["csrmm", "ellmm"])
    def test_c_aliasing_b_takes_the_copy_path(self, device, rng, kernel):
        A, B, _ = self._operands(device, rng)
        want = B.data.copy()
        epilogue(want, A.substrate.spmm(B.data.copy()), 1.0, 0.0)
        with self._spy() as calls:
            self._kernel(kernel, A)(B, B)
        assert calls == ["epilogue"]
        assert B.data.tobytes() == want.tobytes()

    @staticmethod
    def _operands(device, rng):
        n = 30
        dense = (rng.random((n, n)) < 0.25) * rng.standard_normal((n, n))
        dense[[4, 11]] = 0.0  # empty rows
        rows, cols = np.nonzero(dense)
        host = COOMatrix(rows, cols, dense[rows, cols], shape=(n, n))
        A = csr_to_device(device, host.to_csr())
        B = device.to_device(rng.standard_normal((n, 3)))
        return A, B, rng.standard_normal((n, 3))

    @staticmethod
    def _kernel(name, A):
        if name == "ellmm":
            ell = csr_to_ell(A)
            return lambda B, C, **kw: ellmm(ell, B, C, **kw)
        return lambda B, C, **kw: csrmm(A, B, C, **kw)

    @staticmethod
    @contextlib.contextmanager
    def _spy():
        calls = []

        def spy(*args):
            calls.append("epilogue")
            epilogue(*args)

        with mock.patch("repro.cusparse.spmm.epilogue", spy):
            yield calls
