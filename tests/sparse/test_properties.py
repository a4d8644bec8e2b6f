"""Hypothesis property tests over the sparse formats.

Strategy: generate random COO triples, then assert (a) every format
conversion round-trips through the dense representation, (b) every
format's matvec equals the dense matvec, (c) scipy agrees (scipy is the
oracle here, never a dependency of the library itself).
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.coo import COOMatrix


@st.composite
def coo_matrices(draw):
    n = draw(st.integers(1, 25))
    m = draw(st.integers(1, 25))
    nnz = draw(st.integers(0, min(60, n * m)))
    idx = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
            min_size=nnz, max_size=nnz,
        )
    )
    vals = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=nnz, max_size=nnz,
        )
    )
    rows = np.array([i for i, _ in idx], dtype=np.int64)
    cols = np.array([j for _, j in idx], dtype=np.int64)
    return COOMatrix(rows, cols, np.array(vals), (n, m))


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_format_round_trips_preserve_dense(A):
    d = A.to_dense()
    assert np.allclose(A.to_csr().to_dense(), d)
    assert np.allclose(A.to_csr().to_coo().to_dense(), d)
    assert np.allclose(A.sum_duplicates().to_dense(), d)


@given(coo_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_all_matvecs_agree_with_dense(A, seed):
    x = np.random.default_rng(seed).standard_normal(A.shape[1])
    ref = A.to_dense() @ x
    assert np.allclose(A.matvec(x), ref)
    assert np.allclose(A.to_csr().matvec(x), ref)


@given(coo_matrices())
@settings(max_examples=40, deadline=None)
def test_transpose_involution(A):
    assert np.allclose(A.T.T.to_dense(), A.to_dense())
    assert np.allclose(A.to_csr().T.T.to_dense(), A.to_dense())


@given(coo_matrices())
@settings(max_examples=40, deadline=None)
def test_agrees_with_scipy(A):
    S = sp.coo_matrix((A.data, (A.row, A.col)), shape=A.shape)
    assert np.allclose(A.to_dense(), S.toarray())
    ours = A.to_csr()
    theirs = S.tocsr()
    theirs.sum_duplicates()
    x = np.linspace(-1, 1, A.shape[1])
    assert np.allclose(ours.matvec(x), theirs @ x)


@given(coo_matrices())
@settings(max_examples=40, deadline=None)
def test_row_sums_match_dense(A):
    assert np.allclose(A.row_sums(), A.to_dense().sum(axis=1))
    assert np.allclose(A.to_csr().row_sums(), A.to_dense().sum(axis=1))
