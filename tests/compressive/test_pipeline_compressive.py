"""End-to-end `SpectralClustering(embedding="compressive")` behavior."""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.errors import ClusteringError
from repro.metrics.external import adjusted_rand_index

K = 6


def _fit(W, **kw):
    return SpectralClustering(n_clusters=K, seed=0, **kw).fit(graph=W)


class TestQuality:
    def test_recovers_sbm_communities(self, sbm_graph):
        W, truth = sbm_graph
        res = _fit(W, embedding="compressive")
        assert adjusted_rand_index(res.labels, truth) > 0.95

    def test_within_band_of_exact(self, sbm_graph):
        W, truth = sbm_graph
        exact = _fit(W)
        comp = _fit(W, embedding="compressive")
        ari_exact = adjusted_rand_index(exact.labels, truth)
        ari_comp = adjusted_rand_index(comp.labels, truth)
        assert ari_comp >= 0.9 * ari_exact

    def test_sampled_lift_recovers(self, sbm_graph):
        W, truth = sbm_graph
        res = _fit(W, embedding="compressive", sample_frac=0.5)
        assert adjusted_rand_index(res.labels, truth) > 0.9

    def test_point_input_path(self):
        from repro.datasets.dti import make_dti_volume

        vol = make_dti_volume(grid=(8, 8, 8), n_regions=4, seed=0)
        res = SpectralClustering(
            n_clusters=4, seed=0, embedding="compressive"
        ).fit(X=vol.profiles, edges=vol.edges)
        assert res.labels.shape == (vol.profiles.shape[0],)
        assert len(np.unique(res.labels[res.labels >= 0])) == 4


class TestDeterminism:
    def test_same_seed_identical(self, sbm_graph):
        W, _ = sbm_graph
        a = _fit(W, embedding="compressive")
        b = _fit(W, embedding="compressive")
        assert np.array_equal(a.labels, b.labels)
        assert a.embedding.tobytes() == b.embedding.tobytes()

    def test_different_seed_documented_band(self, sbm_graph):
        """Different request seeds draw different signals/samples — the
        labels may differ, but quality stays inside the ARI band."""
        W, truth = sbm_graph
        for seed in (1, 2):
            res = SpectralClustering(
                n_clusters=K, seed=seed, embedding="compressive"
            ).fit(graph=W)
            assert adjusted_rand_index(res.labels, truth) > 0.9


class TestConfiguration:
    def test_knobs_flow_through(self, sbm_graph):
        W, _ = sbm_graph
        res = _fit(W, embedding="compressive", filter_order=24, n_signals=12)
        assert res.eig_stats["filter_order"] == 24
        assert res.eig_stats["n_signals"] == 12
        assert res.embedding.shape[1] == 12

    def test_trace_has_compressive_stages(self, sbm_graph):
        W, _ = sbm_graph
        res = _fit(W, embedding="compressive", sample_frac=0.5)
        stages = res.profile.by_stage
        for tag in ("eigensolver", "sampling", "lift", "kmeans"):
            assert tag in stages

    def test_full_sample_skips_lift_stage(self, sbm_graph):
        W, _ = sbm_graph
        res = _fit(W, embedding="compressive", sample_frac=1.0)
        assert "lift" not in res.profile.by_stage
        assert "sampling" not in res.profile.by_stage

    def test_requires_ncut(self, sbm_graph):
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=K, embedding="compressive",
                               objective="ratiocut")

    def test_knob_validation(self):
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=K, filter_order=0)
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=K, n_signals=-1)
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=K, sample_frac=0.0)
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=K, sample_frac=1.5)

    def test_exact_path_unchanged_by_new_params(self, sbm_graph):
        """The exact fp64 path must stay bit-identical: the compressive
        knobs are inert outside embedding='compressive'."""
        W, _ = sbm_graph
        base = _fit(W)
        with_knobs = _fit(W, filter_order=8, n_signals=4, sample_frac=0.5)
        assert np.array_equal(base.labels, with_knobs.labels)
        assert base.embedding.tobytes() == with_knobs.embedding.tobytes()

    def test_multi_device_and_fp32(self, sbm_graph):
        W, truth = sbm_graph
        single = _fit(W, embedding="compressive")
        multi = _fit(W, embedding="compressive", devices=2)
        assert single.embedding.tobytes() == multi.embedding.tobytes()
        assert np.array_equal(single.labels, multi.labels)
        reduced = _fit(W, embedding="compressive", precision="fp32")
        assert adjusted_rand_index(reduced.labels, truth) > 0.9
