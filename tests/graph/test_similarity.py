"""The cross-correlation measure (Eq. 7): reference semantics and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph import similarity
from repro.graph.build import compute_similarity
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


def _whole_launch(Xc, norms, pairs):
    """Eq. 7 gathering every edge's rows at once (the unblocked form)."""
    i, j = pairs[:, 0], pairs[:, 1]
    dots = np.einsum("ed,ed->e", Xc[i], Xc[j])
    denom = norms[i] * norms[j]
    out = np.zeros(i.size)
    ok = denom > 0
    out[ok] = dots[ok] / denom[ok]
    return out


class TestBlockedGather:
    """Blocking the edge gather changes no bit of the result: each edge
    is one dot product over ``d`` whatever block holds it."""

    @pytest.fixture(params=[7, 90])
    def data(self, request, rng):
        d = request.param
        X = rng.standard_normal((200, d))
        X[3] = 1.5  # a constant row: its edges get similarity 0
        return X

    @staticmethod
    def _pairs(rng, X, nnz):
        pairs = rng.integers(0, X.shape[0], size=(nnz, 2))
        if nnz:
            pairs[0] = (3, 4)
        return pairs

    @pytest.mark.parametrize(
        "blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
        ids=["0", "1", "b-1", "b", "b+1", "3b+5"],
    )
    def test_byte_identical_to_whole_launch(self, rng, data, blocks, extra):
        X = data
        nnz = blocks * (similarity._BLOCK_ELEMS // X.shape[1]) + extra
        pairs = self._pairs(rng, X, nnz)

        # host reference: numpy-centered rows, linalg norms
        Xc = X - X.mean(axis=1, keepdims=True)
        want = _whole_launch(Xc, np.linalg.norm(Xc, axis=1), pairs)
        got = cross_correlation(X, pairs)
        assert got.tobytes() == want.tobytes()

        # device kernel body: the update_data centering and norms
        Xd = X - X.mean(axis=1)[:, None]
        norm = np.sqrt(np.einsum("nd,nd->n", Xd, Xd))
        want = _whole_launch(Xd, norm, pairs)
        val = np.full(nnz, np.nan)
        compute_similarity.body(
            slice(0, nnz), Xd, norm, pairs[:, 0], pairs[:, 1], val
        )
        assert val.tobytes() == want.tobytes()
        if nnz:
            assert val[0] == 0.0  # the constant row's edge
