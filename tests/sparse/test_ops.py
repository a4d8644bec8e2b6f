"""Format-generic operations."""

import numpy as np
import pytest

from repro.errors import SparseValueError
from repro.sparse.construct import random_sparse
from repro.sparse.ops import row_sums


@pytest.fixture
def A(rng):
    return random_sparse(12, 9, 0.3, rng=rng)


class TestGenericOps:
    def test_row_sums_all_formats(self, A):
        ref = A.to_dense().sum(axis=1)
        assert np.allclose(row_sums(A), ref)
        assert np.allclose(row_sums(A.to_csr()), ref)

    def test_unsupported_type_rejected(self):
        with pytest.raises(SparseValueError):
            row_sums(np.zeros((3, 3)))  # type: ignore[arg-type]
