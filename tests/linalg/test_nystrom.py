"""Nyström extension primitives: segment reduce, scaling, traffic plans,
drift."""

import numpy as np
import pytest

from repro.core.model import delta_plan, predict_plan
from repro.linalg.nystrom import (
    csr_row_reduce,
    drift_threshold,
    nystrom_degrees,
    nystrom_product,
    nystrom_scale,
    ritz_drift_bound,
)


def _dense_csr(rng, m, n, density=0.4):
    """Random CSR triple (indptr, indices, vals) plus its dense mirror."""
    dense = rng.random((m, n)) * (rng.random((m, n)) < density)
    indptr = np.zeros(m + 1, dtype=np.int64)
    cols, vals = [], []
    for i in range(m):
        nz = np.nonzero(dense[i])[0]
        indptr[i + 1] = indptr[i] + nz.size
        cols.append(nz.astype(np.int64))
        vals.append(dense[i, nz])
    return (
        indptr,
        np.concatenate(cols) if cols else np.zeros(0, np.int64),
        np.concatenate(vals) if vals else np.zeros(0),
        dense,
    )


class TestRowReduce:
    def test_matches_dense_row_sums_1d(self, rng):
        indptr, _, vals, dense = _dense_csr(rng, 13, 7)
        assert np.allclose(csr_row_reduce(indptr, vals), dense.sum(axis=1))

    def test_empty_rows_stay_zero(self):
        indptr = np.array([0, 0, 2, 2], dtype=np.int64)
        vals = np.array([1.5, 2.5])
        out = csr_row_reduce(indptr, vals)
        assert np.array_equal(out, [0.0, 4.0, 0.0])


class TestNystromProduct:
    def test_sums_gathered_basis_rows(self, rng):
        indptr, cols, vals, _ = _dense_csr(rng, 9, 6)
        U = rng.standard_normal((6, 4))
        expect = np.zeros((9, 4))
        for i in range(9):
            seg = slice(indptr[i], indptr[i + 1])
            expect[i] = (vals[seg, None] * U[cols[seg]]).sum(axis=0)
        assert np.allclose(nystrom_product(indptr, cols, vals, U), expect)

    def test_equals_dense_matmul(self, rng):
        indptr, cols, vals, dense = _dense_csr(rng, 11, 8)
        U = rng.standard_normal((8, 3))
        assert np.allclose(
            nystrom_product(indptr, cols, vals, U), dense @ U
        )

    def test_degrees_are_row_sums(self, rng):
        indptr, _, vals, dense = _dense_csr(rng, 10, 5)
        assert np.allclose(nystrom_degrees(indptr, vals), dense.sum(axis=1))


class TestNystromScale:
    def test_scales_by_degree_and_theta(self, rng):
        prod = rng.standard_normal((6, 3))
        deg = rng.random(6) + 0.5
        theta = rng.random(3) + 0.5
        out = nystrom_scale(prod, deg, theta)
        assert np.allclose(out, prod / deg[:, None] / theta[None, :])

    def test_zero_degree_guard(self, rng):
        prod = rng.standard_normal((3, 2))
        deg = np.array([1.0, 0.0, 2.0])
        theta = np.array([0.5, 0.25])
        out = nystrom_scale(prod, deg, theta)
        # the guarded row divides by 1, not by 0 — finite output
        assert np.all(np.isfinite(out))
        assert np.allclose(out[1], prod[1] / theta)

    def test_tiny_theta_guard(self, rng):
        prod = rng.standard_normal((3, 2))
        deg = np.ones(3)
        theta = np.array([1.0, 1e-15])
        out = nystrom_scale(prod, deg, theta)
        assert np.all(np.isfinite(out))
        assert np.allclose(out[:, 1], prod[:, 1])


class TestPredictLedger:
    """The predict and delta traffic plans: transfer counts and bytes."""

    def test_weights_path_counts(self):
        plan = predict_plan(n_new=10, n_anchor=40, k=3, nnz=25)
        assert plan.count("h2d") == 5
        assert plan.count("d2h") == 2
        assert plan.nbytes("h2d") == (
            25 * 8 + 25 * 8 + 11 * 8 + 40 * 3 * 8 + 3 * 3 * 8
        )
        assert plan.nbytes("d2h") == 10 * 8 + 10 * 3 * 8
        assert plan.p2p == ()

    def test_feature_path_counts(self):
        plan = predict_plan(
            n_new=4, n_anchor=20, k=2, nnz=9, d=6, feature_path=True,
            n_touched=5,
        )
        assert plan.count("h2d") == 7
        # only the 5 touched anchor rows ride H2D, not all 20
        assert dict(plan.h2d)["anchors"] == 5 * 6 * 8
        assert plan.nbytes("h2d") == (
            4 * 6 * 8 + 5 * 6 * 8 + 9 * 8 + 9 * 8 + 5 * 8
            + 20 * 2 * 8 + 2 * 2 * 8
        )

    def test_resident_basis_is_not_charged(self):
        cold = predict_plan(n_new=10, n_anchor=40, k=3, nnz=25)
        warm = predict_plan(
            n_new=10, n_anchor=40, k=3, nnz=25, basis_resident=True
        )
        assert warm.count("h2d") == cold.count("h2d") - 1
        assert warm.nbytes("h2d") == cold.nbytes("h2d") - 40 * 3 * 8
        assert "basis" not in dict(warm.h2d)

    def test_reduced_precision_itemsize(self):
        full = predict_plan(n_new=4, n_anchor=10, k=2, nnz=8)
        half = predict_plan(n_new=4, n_anchor=10, k=2, nnz=8, itemsize=4)
        assert half.nbytes("h2d") == full.nbytes("h2d") - 8 * 4

    def test_delta_ledger(self):
        plan = delta_plan(nnz_delta=12)
        assert plan.count("h2d") == 3 and plan.count("d2h") == 1
        assert plan.nbytes("h2d") == 3 * 12 * 8
        assert plan.nbytes("d2h") == 8


class TestDriftBound:
    def test_zero_delta_zero_bound(self):
        deg = np.ones(5)
        bound = ritz_drift_bound(
            np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0),
            deg, deg,
        )
        assert bound == 0.0

    def test_monotone_in_delta_magnitude(self):
        deg = np.full(6, 4.0)
        rows = np.array([0, 1], dtype=np.int64)
        cols = np.array([1, 0], dtype=np.int64)
        small = ritz_drift_bound(rows, cols, np.array([0.01, 0.01]), deg, deg)
        large = ritz_drift_bound(rows, cols, np.array([1.0, 1.0]), deg, deg)
        assert 0 < small < large

    def test_degree_collapse_dominates(self):
        """Removing most of a vertex's weight moves the scale term."""
        deg_old = np.array([4.0, 4.0])
        deg_new = np.array([0.04, 4.0])
        rows = np.array([0, 1], dtype=np.int64)
        cols = np.array([1, 0], dtype=np.int64)
        bound = ritz_drift_bound(
            rows, cols, np.array([-3.96, -3.96]), deg_old, deg_new,
        )
        assert bound >= 2 * (np.sqrt(4.0 / 0.04) - 1) - 1e-12

    def test_threshold_uses_spectral_gap(self):
        wide = drift_threshold(np.array([1.0, 0.5]), n=100)
        narrow = drift_threshold(np.array([1.0, 0.99]), n=100)
        assert wide > narrow > 0

    def test_threshold_scale_knob(self):
        theta = np.array([1.0, 0.6])
        assert drift_threshold(theta, 50, scale=2.0) == pytest.approx(
            2.0 * drift_threshold(theta, 50)
        )
