"""Host reference pipeline: correctness and agreement with the hybrid path."""

import numpy as np
import pytest

from repro.baselines.reference import reference_spectral_clustering
from repro.core.pipeline import SpectralClustering
from repro.datasets.registry import load_dataset
from repro.errors import ClusteringError
from repro.kmeans.cpu import kmeans_cpu
from repro.metrics.external import adjusted_rand_index

#: the workloads of benchmarks/conftest.py's BENCH_SCALES
BENCH_SCALES = {"dti": 0.01, "fb": 0.5, "syn200": 0.1, "dblp": 0.02}


@pytest.fixture(scope="module", params=sorted(BENCH_SCALES))
def bench_pair(request):
    """The reference and hybrid runs of one bench workload with the
    comparison's settings: (k, reference result, hybrid result)."""
    name = request.param
    ds = load_dataset(name, scale=BENCH_SCALES[name], seed=0)
    inputs = (
        dict(X=ds.points, edges=ds.edges) if ds.points is not None
        else dict(graph=ds.graph)
    )
    opts = dict(
        n_clusters=ds.n_clusters, eig_tol=1e-8, kmeans_max_iter=100, seed=0,
    )
    ref = reference_spectral_clustering(**inputs, **opts)
    hyb = SpectralClustering(**opts).fit(**inputs)
    return ds.n_clusters, ref, hyb


class TestReferencePipeline:
    def test_recovers_sbm(self, sbm_graph):
        W, truth = sbm_graph
        ref = reference_spectral_clustering(graph=W, n_clusters=6, seed=0)
        assert adjusted_rand_index(ref.labels, truth) > 0.95

    def test_matches_hybrid_partition(self, bench_pair):
        """Same numerics, same seeds -> the CUDA fit's partition, in the
        same number of Lloyd iterations (k-means++ seeding, sklearn's and
        the CUDA fit's)."""
        _, ref, hyb = bench_pair
        np.testing.assert_array_equal(ref.labels, hyb.labels)
        assert ref.kmeans.n_iter == hyb.kmeans.n_iter

    def test_matches_hybrid_eigenvalues(self, bench_pair):
        _, ref, hyb = bench_pair
        assert np.allclose(
            np.sort(ref.eigenvalues), np.sort(hyb.eigenvalues), atol=1e-8
        )

    def test_matches_hybrid_counters(self, bench_pair):
        """The IRLM history the baseline columns are charged from: the
        host run takes the CUDA fit's restarts, operator applications
        and basis size."""
        _, ref, hyb = bench_pair
        for key in ("n_restarts", "n_op", "m"):
            assert ref.eig_stats[key] == hyb.eig_stats[key], key

    def test_matches_hybrid_random_init_kmeans(self, bench_pair):
        """Matlab's random seeding gives the same labels and iterations
        on the CUDA embedding as on the reference embedding."""
        k, ref, hyb = bench_pair
        on_ref, on_hyb = (
            kmeans_cpu(emb, k, init="random", max_iter=100, seed=0)
            for emb in (ref.embedding, hyb.embedding)
        )
        np.testing.assert_array_equal(on_ref.labels, on_hyb.labels)
        assert on_ref.n_iter == on_hyb.n_iter

    def test_eig_stats_populated(self, sbm_graph):
        W, _ = sbm_graph
        ref = reference_spectral_clustering(graph=W, n_clusters=4, seed=0)
        assert ref.eig_stats["n_op"] > 0
        assert ref.eig_stats["m"] >= 9
        assert ref.eig_stats["converged"]

    def test_wall_times_recorded(self, sbm_graph):
        W, _ = sbm_graph
        ref = reference_spectral_clustering(graph=W, n_clusters=4, seed=0)
        assert set(ref.wall) == {"similarity", "laplacian", "eigensolver", "kmeans"}

    def test_point_input(self):
        from repro.datasets.dti import make_dti_volume

        v = make_dti_volume(grid=(8, 8, 8), n_regions=4, noise=0.2, seed=0)
        ref = reference_spectral_clustering(
            X=v.profiles, edges=v.edges, n_clusters=4, seed=0
        )
        assert adjusted_rand_index(ref.labels, v.labels) > 0.6

    def test_input_validation(self, sbm_graph, rng):
        W, _ = sbm_graph
        with pytest.raises(ClusteringError):
            reference_spectral_clustering(n_clusters=3)
        with pytest.raises(ClusteringError):
            reference_spectral_clustering(X=rng.random((5, 2)), n_clusters=2)
