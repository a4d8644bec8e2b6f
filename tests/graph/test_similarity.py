"""The cross-correlation measure (Eq. 7): reference semantics and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph.similarity import cross_correlation


@pytest.fixture
def X(rng):
    return rng.standard_normal((30, 12))


def all_pairs(n):
    i, j = np.triu_indices(n, k=1)
    return np.column_stack([i, j])


class TestCrossCorrelation:
    def test_matches_numpy_corrcoef(self, X):
        pairs = all_pairs(10)
        s = cross_correlation(X[:10], pairs)
        for (i, j), v in zip(pairs, s):
            assert v == pytest.approx(np.corrcoef(X[i], X[j])[0, 1], abs=1e-12)

    def test_shift_invariant(self, X):
        pairs = all_pairs(30)
        assert np.allclose(
            cross_correlation(X, pairs), cross_correlation(X + 100.0, pairs)
        )

    def test_constant_row_gets_zero(self):
        X = np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
        assert cross_correlation(X, np.array([[0, 1]]))[0] == 0.0

    def test_anticorrelated(self):
        X = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert cross_correlation(X, np.array([[0, 1]]))[0] == pytest.approx(-1.0)

    def test_bad_pairs_shape(self, X):
        with pytest.raises(GraphConstructionError):
            cross_correlation(X, np.zeros((3, 3), dtype=np.int64))

    def test_pair_index_out_of_range(self, X):
        with pytest.raises(GraphConstructionError):
            cross_correlation(X, np.array([[0, 99]]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_property(self, seed):
        r = np.random.default_rng(seed)
        X = r.standard_normal((8, 5))
        assert cross_correlation(X, np.array([[1, 4]]))[0] == pytest.approx(
            cross_correlation(X, np.array([[4, 1]]))[0]
        )
