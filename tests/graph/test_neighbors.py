"""Neighborhood enumeration: grid index vs brute force."""

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

    def test_voxel_grid_4mm(self):
        # the DTI setting: 2 mm voxels, 4 mm radius -> each interior voxel
        # touches the 32 lattice neighbors within distance 2 (in voxels)
        g = np.stack(np.meshgrid(*([np.arange(5)] * 3), indexing="ij"), -1)
        P = g.reshape(-1, 3) * 2.0
        pairs = epsilon_neighbors_grid(P, 4.0)
        counts = np.bincount(pairs.ravel(), minlength=125)
        center = 2 * 25 + 2 * 5 + 2
        assert counts[center] == 32
