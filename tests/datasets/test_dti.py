"""Synthetic DTI volume generator."""

import hashlib

import numpy as np
import pytest

from repro.datasets.dti import make_dti_volume
from repro.datasets.registry import load_dataset
from repro.errors import DatasetError


@pytest.fixture(scope="module")
def vol():
    return make_dti_volume(grid=(12, 12, 12), n_regions=8, seed=0)


class TestDTIVolume:
    def test_profile_dimension_is_90(self, vol):
        assert vol.d == 90

    def test_voxels_inside_ellipsoid(self, vol):
        # an ellipsoid mask keeps < the full box
        assert vol.n < 12 * 12 * 12
        assert vol.n > 0.3 * 12**3

    def test_regions_spatially_contiguous(self, vol):
        """Nearest-seed parcels: each voxel's label matches at least one
        spatial neighbor (no salt-and-pepper labels)."""
        from repro.graph.neighbors import epsilon_neighbors_grid

        pairs = epsilon_neighbors_grid(vol.positions, 2.0)
        agree = vol.labels[pairs[:, 0]] == vol.labels[pairs[:, 1]]
        assert agree.mean() > 0.6

    def test_edges_respect_radius(self, vol):
        d = np.linalg.norm(
            vol.positions[vol.edges[:, 0]] - vol.positions[vol.edges[:, 1]], axis=1
        )
        assert np.all(d <= 4.0 + 1e-9)

    def test_profiles_cluster_by_region(self, vol):
        """Same-region voxels correlate more than cross-region ones."""
        rng = np.random.default_rng(0)
        idx = rng.choice(vol.n, size=(200, 2))
        same = vol.labels[idx[:, 0]] == vol.labels[idx[:, 1]]
        X = vol.profiles - vol.profiles.mean(axis=1, keepdims=True)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        corr = np.einsum("ed,ed->e", X[idx[:, 0]], X[idx[:, 1]])
        if same.any() and (~same).any():
            assert corr[same].mean() > corr[~same].mean() + 0.05

    def test_all_regions_used(self, vol):
        assert np.unique(vol.labels).size == 8

    def test_noise_controls_difficulty(self):
        clean = make_dti_volume(grid=(8, 8, 8), n_regions=4, noise=0.01, seed=1)
        noisy = make_dti_volume(grid=(8, 8, 8), n_regions=4, noise=2.0, seed=1)

        def snr(v):
            X = v.profiles - v.profiles.mean(axis=1, keepdims=True)
            X /= np.linalg.norm(X, axis=1, keepdims=True) + 1e-30
            pairs = v.edges[:500]
            same = v.labels[pairs[:, 0]] == v.labels[pairs[:, 1]]
            c = np.einsum("ed,ed->e", X[pairs[:, 0]], X[pairs[:, 1]])
            return c[same].mean() - (c[~same].mean() if (~same).any() else 0)

        assert snr(clean) > snr(noisy)

    def test_grid_too_small_rejected(self):
        with pytest.raises(DatasetError):
            make_dti_volume(grid=(1, 8, 8), n_regions=2)

    def test_too_many_regions_rejected(self):
        with pytest.raises(DatasetError):
            make_dti_volume(grid=(6, 6, 6), n_regions=10_000)

    def test_bad_params_rejected(self):
        with pytest.raises(DatasetError):
            make_dti_volume(n_regions=0)

    def test_reproducible(self):
        v1 = make_dti_volume(grid=(8, 8, 8), n_regions=4, seed=3)
        v2 = make_dti_volume(grid=(8, 8, 8), n_regions=4, seed=3)
        assert np.array_equal(v1.profiles, v2.profiles)
        assert np.array_equal(v1.edges, v2.edges)

    def test_positions_in_millimetres(self, vol):
        # 2 mm spacing: coordinates are even
        assert np.allclose(vol.positions % 2.0, 0.0)


#: scale -> sha256 of the seed-0 volume's arrays, recorded before the
#: nearest-seed labelling and the ε-grid were blocked
VOLUME_DIGESTS = {
    0.02: {
        "positions": "547ab3dc2381d76a020f8dadbd29480b03d7edfb7aba16c6e83595c38d7721d9",
        "labels": "c305d6acef20eca193970af9050b61191e3bdebb12c90798504727545d61836a",
        "profiles": "0b22b3e9f1e2503d4149e7293f78938e58902fdd37291102009ab864f3faa092",
        "edges": "a977dd44a5eb9ac83a43d53db1b091d1683cd6f1765dc59b625cca205a2dd078",
    },
    0.1: {
        "positions": "5d19781b3b6fe9ba5fb5e5a8f04a252d3e8353aab6e0e68ccdebcc4ef28fe3e2",
        "labels": "45233536a90e11c63fcfea1c780fdc3b3ad6936309b8940faa324780828e268c",
        "profiles": "697bafddb1d417b8be4423e9c4a7058f341051dd9adb8489b019091d56229885",
        "edges": "eb60eae4f2832e98338646d7970aa114d4af6bb586bf85e2482efc01373b3ebd",
    },
}


@pytest.mark.parametrize("scale", sorted(VOLUME_DIGESTS))
def test_registry_volume_digests(scale):
    # positions are not on the Dataset: rebuild the volume with the
    # registry's grid and region-count formulas for "dti"
    base = np.array([60, 72, 60], dtype=np.float64)
    grid = tuple(np.maximum(6, np.round(base * scale ** (1 / 3))).astype(int))
    vol = make_dti_volume(grid=grid, n_regions=max(4, round(500 * scale)), seed=0)
    ds = load_dataset("dti", scale=scale, seed=0)
    got = {
        name: hashlib.sha256(a.tobytes()).hexdigest()
        for name, a in (
            ("positions", vol.positions),
            ("labels", ds.labels),
            ("profiles", ds.points),
            ("edges", ds.edges),
        )
    }
    assert got == VOLUME_DIGESTS[scale]
