"""COO format semantics."""

import numpy as np
import pytest

from repro.errors import SparseFormatError, SparseValueError
from repro.sparse.coo import COOMatrix


def simple_coo():
    # [[1, 2, 0],
    #  [0, 0, 3],
    #  [4, 0, 0]]
    return COOMatrix([0, 0, 1, 2], [0, 1, 2, 0], [1.0, 2.0, 3.0, 4.0], (3, 3))


class TestConstruction:
    def test_basic(self):
        A = simple_coo()
        assert A.nnz == 4
        assert A.shape == (3, 3)

    def test_length_mismatch(self):
        with pytest.raises(SparseFormatError):
            COOMatrix([0, 1], [0], [1.0, 2.0], (2, 2))

    def test_row_out_of_range(self):
        with pytest.raises(SparseFormatError):
            COOMatrix([5], [0], [1.0], (3, 3))

    def test_col_out_of_range(self):
        with pytest.raises(SparseFormatError):
            COOMatrix([0], [-1], [1.0], (3, 3))

    def test_bad_shape(self):
        with pytest.raises(SparseFormatError):
            COOMatrix([], [], [], (3, -1))

    def test_check_skippable(self):
        # trusted internal path can bypass the O(nnz) scan
        A = COOMatrix([9], [9], [1.0], (3, 3), check=False)
        assert A.nnz == 1


class TestOps:
    def test_to_dense(self):
        d = simple_coo().to_dense()
        assert np.array_equal(
            d, [[1, 2, 0], [0, 0, 3], [4, 0, 0]]
        )

    def test_duplicates_sum_in_dense(self):
        A = COOMatrix([0, 0], [0, 0], [1.0, 2.0], (1, 1))
        assert A.to_dense()[0, 0] == 3.0

    def test_matvec(self):
        A = simple_coo()
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(A.matvec(x), A.to_dense() @ x)

    def test_matvec_wrong_length(self):
        with pytest.raises(SparseValueError):
            simple_coo().matvec(np.zeros(4))

    def test_matvec_out_param(self):
        A = simple_coo()
        out = np.empty(3)
        got = A.matvec(np.ones(3), out=out)
        assert got is out

    def test_transpose_swaps(self):
        A = simple_coo()
        assert np.array_equal(A.T.to_dense(), A.to_dense().T)

    def test_row_sums(self):
        assert np.allclose(simple_coo().row_sums(), [3.0, 3.0, 4.0])

    def test_sum_duplicates(self):
        A = COOMatrix([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0], (2, 2))
        B = A.sum_duplicates()
        assert B.nnz == 2
        assert np.array_equal(B.to_dense(), A.to_dense())

    def test_sorted_by_row(self):
        A = COOMatrix([2, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0], (3, 3))
        B = A.sorted_by_row()
        assert np.all(np.diff(B.row) >= 0)
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_copy_independent(self):
        A = simple_coo()
        B = A.copy()
        B.data[0] = 99.0
        assert A.data[0] == 1.0

    def test_repr(self):
        assert "3x3" in repr(simple_coo())


class TestConversions:
    def test_to_csr_round_trip(self):
        A = simple_coo()
        assert np.array_equal(A.to_csr().to_dense(), A.to_dense())

    def test_to_coo_is_self(self):
        A = simple_coo()
        assert A.to_coo() is A

    def test_empty_matrix_conversions(self):
        A = COOMatrix([], [], [], (4, 4))
        assert A.to_csr().nnz == 0
        assert np.array_equal(A.to_dense(), np.zeros((4, 4)))

    def test_rectangular(self, rng):
        A = COOMatrix([0, 1], [4, 2], [1.0, 2.0], (2, 5))
        assert A.to_csr().shape == (2, 5)
        assert np.array_equal(A.to_csr().to_dense(), A.to_dense())
