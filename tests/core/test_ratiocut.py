"""The RatioCut objective path (Eq. 3 relaxation, unnormalized Laplacian)."""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.cusparse.matrices import coo_to_device
from repro.cuda.device import Device
from repro.errors import ClusteringError
from repro.graph.laplacian import device_shifted_laplacian, laplacian
from repro.metrics.cuts import ratio_cut
from repro.metrics.external import adjusted_rand_index


class TestShiftedLaplacian:
    def test_spectrum_flip(self, sbm_graph):
        W, _ = sbm_graph
        dev = Device()
        dcoo = coo_to_device(dev, W.sorted_by_row())
        dcsr, c = device_shifted_laplacian(dcoo)
        got = dcsr.to_host().to_dense()
        L = laplacian(W).to_dense()
        assert np.allclose(got, c * np.eye(W.shape[0]) - L)

    def test_shift_is_gershgorin_safe(self, sbm_graph):
        W, _ = sbm_graph
        dev = Device()
        dcoo = coo_to_device(dev, W.sorted_by_row())
        _, c = device_shifted_laplacian(dcoo)
        lam_max = np.linalg.eigvalsh(laplacian(W).to_dense())[-1]
        assert c >= lam_max


class TestRatioCutPipeline:
    def test_recovers_sbm(self, sbm_graph):
        W, truth = sbm_graph
        res = SpectralClustering(
            n_clusters=6, objective="ratiocut", seed=0
        ).fit(graph=W)
        assert adjusted_rand_index(res.labels, truth) > 0.9

    def test_eigenvalues_are_smallest_of_l(self, sbm_graph):
        W, _ = sbm_graph
        res = SpectralClustering(
            n_clusters=6, objective="ratiocut", eig_tol=1e-10, seed=0
        ).fit(graph=W)
        lam = np.linalg.eigvalsh(laplacian(W).to_dense())[:6]
        assert np.allclose(np.sort(res.eigenvalues), lam, atol=1e-6)
        # connected graph: exactly one (near-)zero eigenvalue
        assert abs(res.eigenvalues.min()) < 1e-7

    def test_optimizes_its_own_objective(self, sbm_graph, rng):
        W, _ = sbm_graph
        res = SpectralClustering(
            n_clusters=6, objective="ratiocut", seed=0
        ).fit(graph=W)
        ours = ratio_cut(W, res.labels)
        for _ in range(10):
            rand = rng.integers(0, 6, W.shape[0])
            assert ours <= ratio_cut(W, rand) + 1e-12

    def test_ncut_and_ratiocut_agree_on_clean_sbm(self, sbm_graph):
        """Equal-size well-separated communities: both relaxations find
        the same partition."""
        W, _ = sbm_graph
        a = SpectralClustering(n_clusters=6, objective="ncut", seed=0).fit(graph=W)
        b = SpectralClustering(n_clusters=6, objective="ratiocut", seed=0).fit(
            graph=W
        )
        assert adjusted_rand_index(a.labels, b.labels) > 0.9

    def test_bad_objective(self):
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3, objective="maxcut")
