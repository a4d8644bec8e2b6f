"""CSR format semantics — the eigensolver's hot format."""

import numpy as np
import pytest

from repro.errors import SparseFormatError, SparseValueError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def simple_csr():
    # [[1, 2, 0],
    #  [0, 0, 3],
    #  [4, 0, 0]]
    return CSRMatrix([0, 2, 3, 4], [0, 1, 2, 0], [1.0, 2.0, 3.0, 4.0], (3, 3))


class TestValidation:
    def test_indptr_wrong_length(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix([0, 1], [0], [1.0], (3, 3))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix([1, 1, 1, 1], [], [], (3, 3))

    def test_indptr_monotone(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix([0, 2, 1, 3], [0, 1, 2], [1.0, 2.0, 3.0], (3, 3))

    def test_indptr_last_equals_nnz(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix([0, 1, 1, 5], [0], [1.0], (3, 3))

    def test_column_out_of_range(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix([0, 1, 1, 1], [7], [1.0], (3, 3))

    def test_indices_data_mismatch(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix([0, 2, 2, 2], [0, 1], [1.0], (3, 3))


class TestArithmetic:
    def test_matvec(self, rng):
        A = simple_csr()
        x = rng.random(3)
        assert np.allclose(A.matvec(x), A.to_dense() @ x)

    def test_matvec_empty_rows(self):
        A = CSRMatrix([0, 0, 1, 1], [2], [5.0], (3, 3))
        y = A.matvec(np.ones(3))
        assert np.allclose(y, [0.0, 5.0, 0.0])

    def test_matvec_wrong_length(self):
        with pytest.raises(SparseValueError):
            simple_csr().matvec(np.zeros(2))

    def test_row_sums(self):
        assert np.allclose(simple_csr().row_sums(), [3.0, 3.0, 4.0])

    def test_scale_rows_cols(self, rng):
        A = simple_csr()
        r = rng.random(3)
        c = rng.random(3)
        assert np.allclose(
            A.scale_rows(r).to_dense(), np.diag(r) @ A.to_dense()
        )
        assert np.allclose(
            A.scale_cols(c).to_dense(), A.to_dense() @ np.diag(c)
        )

    def test_add(self):
        A = simple_csr()
        B = simple_csr()
        assert np.allclose(A.add(B).to_dense(), 2 * A.to_dense())

    def test_add_shape_mismatch(self):
        with pytest.raises(SparseValueError):
            simple_csr().add(CSRMatrix([0, 0], [], [], (1, 1)))

    def test_scaled(self):
        assert np.allclose(
            simple_csr().scaled(-2.0).to_dense(), -2.0 * simple_csr().to_dense()
        )

    def test_getrow(self):
        idx, vals = simple_csr().getrow(0)
        assert idx.tolist() == [0, 1]
        assert vals.tolist() == [1.0, 2.0]

    def test_getrow_out_of_range(self):
        with pytest.raises(SparseValueError):
            simple_csr().getrow(3)


class TestConversionsStructure:
    def test_transpose(self):
        A = simple_csr()
        assert np.array_equal(A.T.to_dense(), A.to_dense().T)

    def test_to_coo_round_trip(self):
        A = simple_csr()
        assert np.array_equal(A.to_coo().to_csr().to_dense(), A.to_dense())

    def test_row_expansion_cached(self):
        A = simple_csr()
        r1 = A._rows()
        r2 = A._rows()
        assert r1 is r2

    def test_row_lengths(self):
        assert simple_csr().row_lengths().tolist() == [2, 1, 1]

    def test_rectangular_matvec(self, rng):
        coo = COOMatrix([0, 1, 1], [3, 0, 4], [1.0, 2.0, 3.0], (2, 5))
        A = coo.to_csr()
        x = rng.random(5)
        assert np.allclose(A.matvec(x), A.to_dense() @ x)
