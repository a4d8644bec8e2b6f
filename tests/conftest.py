"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.cuda.device import Device

# deterministic property tests: same examples every run (no CI flakes)
settings.register_profile(
    "ci", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")
from repro.datasets.sbm import stochastic_block_model
from repro.sparse.construct import from_edge_list, random_sparse


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def device() -> Device:
    """A fresh simulated K20c per test."""
    return Device()


@pytest.fixture
def small_sym_csr(rng):
    """A random symmetric 80x80 sparse matrix in CSR."""
    return random_sparse(80, 80, 0.15, rng=rng, symmetric=True).to_csr()


@pytest.fixture
def sbm_graph(rng):
    """A 6-community SBM with clear structure: (W, labels)."""
    sizes = [40] * 6
    edges, labels = stochastic_block_model(sizes, p_in=0.5, p_out=0.01, rng=rng)
    W = from_edge_list(edges, n_nodes=sum(sizes))
    return W, labels


@pytest.fixture
def blobs(rng):
    """Well-separated Gaussian blobs: (X, labels, k)."""
    k, per, d = 5, 60, 6
    centers = rng.standard_normal((k, d)) * 8.0
    labels = np.repeat(np.arange(k), per)
    X = centers[labels] + 0.4 * rng.standard_normal((k * per, d))
    return X, labels, k


@pytest.fixture
def dti_volume():
    """A small synthetic DTI volume: 280 voxels with 90-dimensional
    connectivity profiles (the cross-correlation input) and their
    ε-neighbour edges."""
    from repro.datasets.dti import make_dti_volume

    return make_dti_volume(grid=(8, 8, 8), n_regions=4, noise=0.2, seed=0)


@pytest.fixture
def stray_upload(monkeypatch):
    """Arm a transfer no traffic plan lists: after ``arm()``, the next
    ``Device.to_device`` also records one 8-byte host-to-device copy, so
    the meter moves one transfer more than the audited operation plans."""
    to_device = Device.to_device
    armed = []

    def wrapped(self, host, dtype=None):
        if armed:
            armed.clear()
            self._record_h2d(8)
        return to_device(self, host, dtype)

    monkeypatch.setattr(Device, "to_device", wrapped)
    return lambda: armed.append(True)
