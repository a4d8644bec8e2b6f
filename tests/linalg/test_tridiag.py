"""Symmetric tridiagonal eigensolver vs LAPACK/scipy oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg.tridiag import eigh_tridiagonal, tridiag_to_dense


class TestEighTridiagonal:
    def test_lapack_path(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(11)
        w, Z = eigh_tridiagonal(a, b)
        T = tridiag_to_dense(a, b)
        assert np.allclose(T @ Z, Z * w, atol=1e-10)

    def test_no_vectors_mode(self, rng):
        w, Z = eigh_tridiagonal(
            rng.standard_normal(10), rng.standard_normal(9), compute_vectors=False
        )
        assert Z is None
        assert w.size == 10

    def test_empty(self):
        w, Z = eigh_tridiagonal(np.zeros(0), np.zeros(0))
        assert w.size == 0
        assert Z.shape == (0, 0)

    @given(
        a=hnp.arrays(np.float64, st.integers(1, 20),
                     elements=st.floats(-10, 10, allow_nan=False)),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_scipy(self, a, seed):
        n = a.size
        b = np.random.default_rng(seed).uniform(-5, 5, max(0, n - 1))
        w, _ = eigh_tridiagonal(a, b)
        ref = (
            sla.eigh_tridiagonal(a, b, eigvals_only=True)
            if n > 1
            else a.copy()
        )
        assert np.allclose(np.sort(w), np.sort(ref), atol=1e-8)

    def test_beta_length_checked(self):
        with pytest.raises(ValueError):
            eigh_tridiagonal(np.zeros(4), np.zeros(4))

    def test_tridiag_to_dense_symmetry(self, rng):
        T = tridiag_to_dense(rng.standard_normal(6), rng.standard_normal(5))
        assert np.array_equal(T, T.T)
