"""End-to-end SpectralClustering estimator."""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.errors import ClusteringError
from repro.metrics.cuts import ncut
from repro.metrics.external import adjusted_rand_index
from repro.sparse.construct import from_edge_list


class TestGraphInput:
    def test_recovers_sbm_communities(self, sbm_graph):
        W, truth = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W)
        assert adjusted_rand_index(res.labels, truth) > 0.95

    def test_ncut_competitive_with_ground_truth(self, sbm_graph):
        W, truth = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W)
        assert ncut(W, res.labels) <= ncut(W, truth) * 1.5 + 1e-6

    def test_csr_input_accepted(self, sbm_graph):
        W, truth = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W.to_csr())
        assert adjusted_rand_index(res.labels, truth) > 0.95

    def test_result_fields(self, sbm_graph):
        W, _ = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W)
        n = W.shape[0]
        assert res.labels.shape == (n,)
        assert res.eigenvalues.shape == (6,)
        assert res.embedding.shape == (n, 6)
        assert res.n_clusters == 6
        assert set(res.timings.simulated) == {
            "similarity", "laplacian", "eigensolver", "kmeans",
        }
        assert res.profile.total > 0
        assert "n_op" in res.eig_stats

    def test_eigenvalues_descending_topped_by_one(self, sbm_graph):
        W, _ = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W)
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)
        assert res.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)

    def test_isolated_nodes_labeled_minus_one(self, sbm_graph):
        W, _ = sbm_graph
        n = W.shape[0]
        # append two isolated nodes
        coo = W
        W2 = from_edge_list(
            np.column_stack([coo.row, coo.col]), weights=coo.data,
            n_nodes=n + 2, symmetrize=False,
        )
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W2)
        assert res.labels[n] == -1 and res.labels[n + 1] == -1
        assert res.kept.size == n

    def test_rw_operator_gives_same_partition(self, sbm_graph):
        W, truth = sbm_graph
        res = SpectralClustering(n_clusters=6, operator="rw", seed=0).fit(graph=W)
        assert adjusted_rand_index(res.labels, truth) > 0.9


class TestPointInput:
    @pytest.fixture
    def dti_like(self):
        from repro.datasets.dti import make_dti_volume

        return make_dti_volume(grid=(10, 10, 10), n_regions=5, noise=0.2, seed=0)

    def test_dti_pipeline_recovers_regions(self, dti_like):
        v = dti_like
        res = SpectralClustering(n_clusters=5, seed=0).fit(
            X=v.profiles, edges=v.edges
        )
        assert adjusted_rand_index(res.labels, v.labels) > 0.7

    def test_similarity_stage_timed(self, dti_like):
        v = dti_like
        res = SpectralClustering(n_clusters=5, seed=0).fit(
            X=v.profiles, edges=v.edges
        )
        assert res.timings.simulated["similarity"] > 0

    def test_point_input_requires_edges(self, dti_like):
        with pytest.raises(ClusteringError, match="edges"):
            SpectralClustering(n_clusters=5).fit(X=dti_like.profiles)


class TestValidation:
    def test_both_inputs_rejected(self, sbm_graph, rng):
        W, _ = sbm_graph
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3).fit(
                X=rng.random((10, 2)), edges=np.array([[0, 1]]), graph=W
            )

    def test_no_input_rejected(self):
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3).fit()

    def test_k_too_small(self):
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=1)

    def test_bad_operator(self):
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3, operator="lazy")

    @pytest.mark.parametrize("field, value", [
        ("n_clusters", 2.5), ("n_clusters", 3.0),
        ("kmeans_max_iter", 2.5), ("kmeans_max_iter", -3),
        ("kmeans_max_iter", 0),
        ("seed", 1.5), ("seed", -1),
        ("m", 10.5), ("m", 0),
        ("devices", True), ("filter_order", True),
        ("eig_maxiter", 2.5), ("eig_maxiter", -1), ("eig_maxiter", 0),
        ("eig_tol", -1.0), ("eig_tol", np.nan), ("eig_tol", np.inf),
    ])
    def test_bad_number_rejected_naming_the_field(self, field, value):
        """Each of these used to end in a bare TypeError/ValueError deep in
        the fit, or to fit silently (``kmeans_max_iter=0`` labelled every
        vertex -1)."""
        with pytest.raises(ClusteringError, match=field):
            SpectralClustering(**{"n_clusters": 3, field: value})

    def test_numpy_integers_accepted(self, sbm_graph):
        W, _ = sbm_graph
        res = SpectralClustering(
            n_clusters=np.int64(6), seed=np.int64(0), devices=np.int32(1),
            kmeans_max_iter=np.int64(50),
        ).fit(graph=W)
        assert len(np.unique(res.labels)) == 6

    def test_k_exceeds_nodes(self):
        W = from_edge_list(np.array([[0, 1], [1, 2]]), n_nodes=3)
        with pytest.raises(ClusteringError, match="non-isolated"):
            SpectralClustering(n_clusters=3).fit(graph=W)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_graph_weight_rejected(self, bad):
        """A NaN degree fails ``deg > 0``, so one bad weight used to drop
        its vertex as isolated (label -1) instead of failing the fit."""
        W = from_edge_list(
            np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]),
            n_nodes=6,
        )
        W.data[np.flatnonzero((W.row == 5) & (W.col == 3))] = bad
        for graph in (W, W.to_csr()):
            with pytest.raises(ClusteringError, match="finite"):
                SpectralClustering(n_clusters=2, seed=0).fit(graph=graph)

    def test_negative_graph_weight_rejected(self):
        """The Laplacian machinery assumes ``W >= 0``; one negative edge
        whose endpoints keep positive degree used to fit silently."""
        blocks = [np.array([[0, 1], [1, 2], [2, 0], [0, 3]]) + 4 * b
                  for b in range(3)]
        W = from_edge_list(np.vstack(blocks), n_nodes=12)
        W.data[np.flatnonzero((W.row + W.col == 1))] = -0.5  # edge 0-1
        assert np.all(np.bincount(W.row, weights=W.data) > 0)
        for graph in (W, W.to_csr()):
            with pytest.raises(ClusteringError, match="non-negative"):
                SpectralClustering(n_clusters=3, seed=0).fit(graph=graph)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, rng, bad):
        X = rng.standard_normal((40, 5))
        X[3, 1] = bad
        edges = np.argwhere(np.triu(np.ones((40, 40)), 1))
        est = SpectralClustering(n_clusters=2, seed=0)
        with pytest.raises(ClusteringError, match="finite"):
            est.fit(X=X, edges=edges)


class TestDeviceSharing:
    def test_external_device_accumulates_timeline(self, sbm_graph):
        W, _ = sbm_graph
        dev = Device()
        SpectralClustering(n_clusters=6, seed=0, device=dev).fit(graph=W)
        assert dev.elapsed > 0
        stages = dev.timeline.by_tag()
        assert "eigensolver" in stages and "kmeans" in stages

    def test_determinism_given_seed(self, sbm_graph):
        W, _ = sbm_graph
        r1 = SpectralClustering(n_clusters=6, seed=42).fit(graph=W)
        r2 = SpectralClustering(n_clusters=6, seed=42).fit(graph=W)
        assert np.array_equal(r1.labels, r2.labels)

    def test_summary_renders(self, sbm_graph):
        W, _ = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0).fit(graph=W)
        text = res.summary()
        assert "eigensolver" in text and "kmeans" in text


class TestMultiDevicePipeline:
    """devices > 1 through the full fit(): the embedding solve is sharded,
    k-means runs on the primary device, and the answer is the
    single-device one.  (The devices x embedding x precision matrix lives
    in tests/core/test_precision_parity.py.)"""

    def test_bit_identical_results_across_device_counts(self, sbm_graph):
        """k-means on the sharded embedding reproduces the single-device
        fit."""
        W, _ = sbm_graph

        def fit(p):
            return SpectralClustering(
                n_clusters=6, seed=0, devices=p
            ).fit(graph=W)

        ref = fit(1)
        for p in (2, 4):
            res = fit(p)
            assert res.labels.tobytes() == ref.labels.tobytes()
            assert res.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
            assert res.embedding.tobytes() == ref.embedding.tobytes()

    def test_eig_stats_expose_partition(self, sbm_graph):
        W, _ = sbm_graph
        res = SpectralClustering(n_clusters=6, seed=0, devices=2).fit(graph=W)
        assert res.eig_stats["n_devices"] == 2
        assert res.eig_stats["partition"] is not None
        assert res.eig_stats["bytes_p2p"] > 0
        assert res.timings.simulated["eigensolver"] > 0

    def test_validation(self, sbm_graph):
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3, devices=0)
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3, devices=2, eig_residency="host")
        with pytest.raises(ClusteringError):
            SpectralClustering(
                n_clusters=3, devices=2, eig_spmv_format="ell"
            )
        with pytest.raises(ClusteringError):
            SpectralClustering(n_clusters=3, eig_spmv_format="hyb")
        # more devices than graph rows is refused, naming the knob, before
        # the Laplacian is built
        six_nodes = from_edge_list(
            np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]),
            n_nodes=6,
        )
        est = SpectralClustering(n_clusters=2, devices=8)
        with pytest.raises(ClusteringError, match=r"devices=8.* 6 non-"):
            est.fit(graph=six_nodes)
