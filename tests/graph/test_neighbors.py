"""Neighborhood enumeration: grid index vs brute force."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph.neighbors import epsilon_neighbors, epsilon_neighbors_grid


def pair_set(pairs):
    return set(map(tuple, pairs.tolist()))


class TestEpsilonBrute:
    def test_known_line(self):
        P = np.array([[0.0], [1.0], [2.5]])
        pairs = epsilon_neighbors(P, 1.5)
        assert pair_set(pairs) == {(0, 1), (1, 2)}

    def test_pairs_are_i_less_j(self, rng):
        P = rng.random((50, 3))
        pairs = epsilon_neighbors(P, 0.4)
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_blocking_invariant(self, rng):
        P = rng.random((70, 4))
        a = epsilon_neighbors(P, 0.5, block=7)
        b = epsilon_neighbors(P, 0.5, block=1024)
        assert pair_set(a) == pair_set(b)

    def test_boundary_inclusive(self):
        P = np.array([[0.0], [1.0]])
        assert epsilon_neighbors(P, 1.0).shape[0] == 1
        assert epsilon_neighbors(P, 1.0, include_equal=False).shape[0] == 0

    def test_eps_zero_no_self_pairs(self, rng):
        P = rng.random((10, 2))
        assert epsilon_neighbors(P, 0.0).shape[0] == 0

    def test_negative_eps(self, rng):
        with pytest.raises(GraphConstructionError):
            epsilon_neighbors(rng.random((4, 2)), -1.0)

    def test_1d_input_rejected(self):
        with pytest.raises(GraphConstructionError):
            epsilon_neighbors(np.zeros(5), 1.0)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [epsilon_neighbors, epsilon_neighbors_grid])
    def test_non_finite_point_rejected(self, rng, fn, bad):
        P = np.vstack([rng.random((20, 3)), [[0.5, bad, 0.5]]])
        with pytest.raises(GraphConstructionError, match="finite"):
            fn(P, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [epsilon_neighbors, epsilon_neighbors_grid])
    def test_non_finite_eps_rejected(self, rng, fn, bad):
        with pytest.raises(GraphConstructionError, match="finite"):
            fn(rng.random((20, 3)), bad)


class TestEpsilonGrid:
    @given(st.integers(0, 2**31 - 1), st.integers(10, 120))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed, n):
        r = np.random.default_rng(seed)
        P = r.random((n, 3)) * 5.0
        eps = float(r.uniform(0.3, 1.2))
        assert pair_set(epsilon_neighbors(P, eps)) == pair_set(
            epsilon_neighbors_grid(P, eps)
        )

    def test_2d_points(self, rng):
        P = rng.random((80, 2)) * 4.0
        assert pair_set(epsilon_neighbors(P, 0.7)) == pair_set(
            epsilon_neighbors_grid(P, 0.7)
        )

    def test_high_dim_rejected(self, rng):
        with pytest.raises(GraphConstructionError, match="low dimension"):
            epsilon_neighbors_grid(rng.random((10, 8)), 1.0)

    def test_eps_zero_rejected(self, rng):
        with pytest.raises(GraphConstructionError):
            epsilon_neighbors_grid(rng.random((5, 3)), 0.0)

    def test_empty_input(self):
        assert epsilon_neighbors_grid(np.zeros((0, 3)), 1.0).shape == (0, 2)

    def test_cell_id_overflow_rejected(self, rng):
        # 1e8 / 0.01 = 1e10 cells per axis: 1e30 linear ids overflow int64
        P = np.vstack([rng.random((300, 3)) * 0.3, np.full((1, 3), 1e8)])
        with pytest.raises(GraphConstructionError, match="epsilon_neighbors"):
            epsilon_neighbors_grid(P, 0.01)
        assert epsilon_neighbors(P, 0.01).shape[0] > 0

    def test_voxel_grid_4mm(self):
        # the DTI setting: 2 mm voxels, 4 mm radius -> each interior voxel
        # touches the 32 lattice neighbors within distance 2 (in voxels)
        g = np.stack(np.meshgrid(*([np.arange(5)] * 3), indexing="ij"), -1)
        P = g.reshape(-1, 3) * 2.0
        pairs = epsilon_neighbors_grid(P, 4.0)
        counts = np.bincount(pairs.ravel(), minlength=125)
        center = 2 * 25 + 2 * 5 + 2
        assert counts[center] == 32


def _dti_positions(scale):
    """Voxel centres of ``load_dataset("dti", scale)``: the registry's grid
    formula, the generator's ellipsoid mask and 2 mm voxels."""
    base = np.array([60, 72, 60], dtype=np.float64)
    grid = np.maximum(6, np.round(base * scale ** (1 / 3))).astype(int)
    g = np.stack(np.meshgrid(*(np.arange(m) for m in grid), indexing="ij"), -1)
    pos = g.reshape(-1, 3).astype(np.float64)
    center = (grid - 1) / 2.0
    radii = np.maximum(grid / 2.0, 1.0)
    inside = (((pos - center) / radii) ** 2).sum(axis=1) <= 1.0
    return pos[inside] * 2.0


def _random_points(d, eps):
    P = np.random.default_rng(d).random((2000, d)) * 4.0
    return P, eps


def _one_cell():
    # 300 points in one cell: one cross product larger than a block
    return np.random.default_rng(7).random((300, 3)) * 0.5, 1.0


def _flat_first_axis():
    # width-1 first axis: offsets (0, 0, 0), (1, -1, 0) and (-1, 1, 0) share
    # linear displacement 0, so pairs are enumerated more than once before
    # the dedupe
    P = np.random.default_rng(8).random((300, 3)) * 3.0
    P[:, 0] = 0.25
    return P, 0.5


def _lattice_at_eps():
    # unit lattice, eps = 1: axis neighbours sit at exactly eps
    g = np.stack(np.meshgrid(*([np.arange(7.0)] * 2), indexing="ij"), -1)
    return g.reshape(-1, 2), 1.0


#: case -> (points, eps); the digests below were recorded from the
#: per-(cell, offset) loop the offset-vectorized enumeration replaced
GRID_CASES = {
    "dti-0.02": lambda: (_dti_positions(0.02), 4.0),
    "dti-0.1": lambda: (_dti_positions(0.1), 4.0),
    "random-d1": lambda: _random_points(1, 0.02),
    "random-d2": lambda: _random_points(2, 0.2),
    "random-d3": lambda: _random_points(3, 0.5),
    "random-d4": lambda: _random_points(4, 1.0),
    "n1": lambda: (np.array([[1.0, 2.0, 3.0]]), 1.0),
    "one-cell": _one_cell,
    "flat-first-axis": _flat_first_axis,
    "lattice-at-eps": _lattice_at_eps,
}

#: case -> (sha256 of the output bytes, dtype, shape)
GRID_DIGESTS = {
    "dti-0.02": (
        "a977dd44a5eb9ac83a43d53db1b091d1683cd6f1765dc59b625cca205a2dd078",
        "int64",
        (37892, 2),
    ),
    "dti-0.1": (
        "eb60eae4f2832e98338646d7970aa114d4af6bb586bf85e2482efc01373b3ebd",
        "int64",
        (199746, 2),
    ),
    "flat-first-axis": (
        "0f9a4afadcd0552d79b5bb01811e8328d73e35d27bfb55ee5a7342d9ba63e1fd",
        "int64",
        (3578, 2),
    ),
    "lattice-at-eps": (
        "a8233380c3019a607aa9f4463e33edbf6f1daecd73978fbd715437e960d7a3fd",
        "int64",
        (84, 2),
    ),
    "n1": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "int64",
        (0, 2),
    ),
    "one-cell": (
        "dd36a4ccbaba7f86203acc2b1bc9f654922204f9dbd1e1e018cf3be4ceb17a29",
        "int64",
        (44850, 2),
    ),
    "random-d1": (
        "8828962162b5d035263fd15ba7665d857d853663b2cf5cc1ecb053f275bb54d5",
        "int64",
        (19865, 2),
    ),
    "random-d2": (
        "beb78941107e1b7eb27194ab6758fadbeacac64d902dd638ece5566223f4e927",
        "int64",
        (14935, 2),
    ),
    "random-d3": (
        "e35b48dbf6a4710390af69ccb595990379587bfdb42e069648509467d393e4c4",
        "int64",
        (13811, 2),
    ),
    "random-d4": (
        "2add702a907ba4e445ab2b76b58799acc30e6e20812544ba82af6a7a23f13279",
        "int64",
        (26416, 2),
    ),
}


class TestGridParity:
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_matches_recorded_loop_output(self, case):
        P, eps = GRID_CASES[case]()
        out = epsilon_neighbors_grid(P, eps)
        got = (hashlib.sha256(out.tobytes()).hexdigest(), str(out.dtype), out.shape)
        assert got == GRID_DIGESTS[case]
