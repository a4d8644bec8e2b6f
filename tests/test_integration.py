"""Cross-module integration scenarios and failure injection."""

from dataclasses import replace

import numpy as np
import pytest

from repro import SpectralClustering
from repro.cuda.device import Device
from repro.datasets.registry import load_dataset
from repro.errors import ClusteringError, DeviceMemoryError
from repro.hw.spec import K20C
from repro.kmeans.utils import KMeansResult
from repro.metrics.cuts import ncut
from repro.metrics.external import adjusted_rand_index, normalized_mutual_info


class TestEndToEndAllDatasets:
    @pytest.mark.parametrize("name,scale,min_ari", [
        ("fb", 0.2, 0.7),
        ("syn200", 0.05, 0.7),
        ("dti", 0.005, 0.3),
    ])
    def test_registry_dataset_clusters(self, name, scale, min_ari):
        ds = load_dataset(name, scale=scale, seed=0)
        sc = SpectralClustering(n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0)
        if ds.points is not None:
            res = sc.fit(X=ds.points, edges=ds.edges)
        else:
            res = sc.fit(graph=ds.graph)
        clustered = res.labels >= 0
        assert clustered.any()
        ari = adjusted_rand_index(
            res.labels[clustered], ds.labels[clustered]
        )
        assert ari > min_ari, f"{name}: ARI {ari:.3f}"

    def test_dblp_finds_near_zero_cut(self):
        """Scaled DBLP has k (=5) far below its community count, and the
        sparse graph fragments into many components — for the NCut
        objective the pipeline optimizes, zero-cut component groupings
        are *optimal* even though they ignore community labels.  Assert
        the objective, not ARI: the recovered partition's NCut must be at
        least as good as the ground-truth labeling's."""
        ds = load_dataset("dblp", scale=0.003, seed=0)
        res = SpectralClustering(
            n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0
        ).fit(graph=ds.graph)
        clustered = res.labels >= 0
        pred = np.where(clustered, res.labels, ds.n_clusters)
        assert ncut(ds.graph, pred) <= ncut(ds.graph, ds.labels) + 1e-9


class TestSpectralBeatsDirectKMeans:
    def test_nonconvex_structure(self):
        """Two concentric rings: k-means on raw coordinates fails; spectral
        clustering with an ε-graph separates them — the motivating example
        for spectral methods (paper §I: 'able to discover non-convex
        regions')."""
        from repro.graph.neighbors import epsilon_neighbors
        from repro.kmeans.cpu import kmeans_cpu
        from repro.sparse.construct import from_edge_list

        rng = np.random.default_rng(0)
        n_per = 200
        t = rng.uniform(0, 2 * np.pi, 2 * n_per)
        r = np.concatenate([np.full(n_per, 1.0), np.full(n_per, 3.0)])
        r += 0.05 * rng.standard_normal(2 * n_per)
        X = np.column_stack([r * np.cos(t), r * np.sin(t)])
        truth = np.repeat([0, 1], n_per)

        direct = kmeans_cpu(X, 2, seed=0)
        ari_direct = adjusted_rand_index(direct.labels, truth)

        # ε large enough that each ring stays one connected component;
        # Gaussian weights exp(-d²/2σ²) with σ = 0.5 on the ε-edges
        edges = epsilon_neighbors(X, 0.7)
        d2 = ((X[edges[:, 0]] - X[edges[:, 1]]) ** 2).sum(axis=1)
        W = from_edge_list(
            edges, weights=np.exp(-d2 / 0.5), n_nodes=X.shape[0]
        )
        res = SpectralClustering(n_clusters=2, seed=0).fit(graph=W)
        ari_spectral = adjusted_rand_index(res.labels, truth)

        assert ari_direct < 0.5
        assert ari_spectral > 0.95


class TestTimelineConsistency:
    def test_stage_times_sum_to_device_clock(self, sbm_graph):
        W, _ = sbm_graph
        dev = Device()
        res = SpectralClustering(n_clusters=6, seed=0, device=dev).fit(graph=W)
        assert res.timings.total_simulated() == pytest.approx(dev.elapsed, rel=1e-9)
        # summed event durations exceed the clock by exactly the seconds the
        # copy engine hid under concurrent host/device work
        overlap = dev.transfer_stats()["overlap_s"]
        assert res.profile.total == pytest.approx(dev.elapsed + overlap, rel=1e-9)
        assert overlap > 0.0

    def test_device_memory_returns_to_baseline(self, sbm_graph):
        """The pipeline frees its scratch: only the graph, operator and
        embedding-sized residue may remain."""
        W, _ = sbm_graph
        dev = Device()
        SpectralClustering(n_clusters=6, seed=0, device=dev).fit(graph=W)
        # everything not freed is bounded by the persistent matrices
        bound = 4 * (3 * W.nnz * 8) + 8 * W.shape[0] * 8
        assert dev.allocator.used_bytes < bound

    def test_eigensolver_dominates_large_k(self, sbm_graph):
        """The paper's cost structure: for k ≫ 1 the eigensolver stage is
        the most expensive simulated stage."""
        W, _ = sbm_graph
        res = SpectralClustering(n_clusters=12, seed=0).fit(graph=W)
        sim = res.timings.simulated
        assert sim["eigensolver"] == max(sim.values())


class TestFailureInjection:
    def test_device_oom_surfaces_cleanly(self, sbm_graph):
        W, _ = sbm_graph
        tiny = Device(spec=replace(K20C, memory_bytes=W.nnz * 8))
        with pytest.raises(DeviceMemoryError):
            SpectralClustering(n_clusters=6, seed=0, device=tiny).fit(graph=W)

    def test_unconverged_eigensolver_reported_not_hidden(self, sbm_graph):
        W, _ = sbm_graph
        res = SpectralClustering(
            n_clusters=6, seed=0, eig_tol=1e-14, eig_maxiter=1, m=8
        ).fit(graph=W)
        assert res.eig_stats["converged"] in (False, True)
        # labels still produced from the best available approximation
        assert np.all(res.labels >= 0)

    def test_empty_graph_rejected(self):
        from repro.sparse.construct import from_edge_list

        W = from_edge_list(np.empty((0, 2), dtype=np.int64), n_nodes=10)
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3, seed=0).fit(graph=W)


class TestPredict:
    def test_kmeans_result_predict(self, blobs):
        from repro.kmeans.cpu import kmeans_cpu

        V, truth, k = blobs
        res = kmeans_cpu(V, k, seed=0)
        again = res.predict(V)
        assert np.array_equal(again, res.labels)

    def test_predict_new_points_near_centroids(self, blobs):
        from repro.kmeans.cpu import kmeans_cpu

        V, _, k = blobs
        res = kmeans_cpu(V, k, seed=0)
        new = res.centroids + 1e-6
        assert np.array_equal(res.predict(new), np.arange(k))

    def test_predict_dim_check(self, blobs):
        from repro.kmeans.cpu import kmeans_cpu

        V, _, k = blobs
        res = kmeans_cpu(V, k, seed=0)
        with pytest.raises(ClusteringError):
            res.predict(np.zeros((3, V.shape[1] + 1)))


class TestMetricAgreement:
    def test_good_clustering_scores_well_on_all_metrics(self, sbm_graph):
        W, truth = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W)
        assert adjusted_rand_index(res.labels, truth) > 0.9
        assert normalized_mutual_info(res.labels, truth) > 0.9
        assert ncut(W, res.labels) < 6 * 0.25  # well under the trivial bound
