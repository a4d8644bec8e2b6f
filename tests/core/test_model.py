"""FittedSpectralModel: out-of-sample predict and incremental deltas."""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.errors import ClusteringError


def _blob_points(d=5, n_isolated=0):
    """Three blobs with their in-blob (and a few cross-blob) edges; the
    last ``n_isolated`` points have no edge at all."""
    rng = np.random.default_rng(7)
    k, per = 3, 30
    centers = rng.standard_normal((k, d)) * 9.0
    X = centers[np.repeat(np.arange(k), per)] + 0.3 * rng.standard_normal(
        (k * per, d)
    )
    n = k * per
    pairs = [
        (i, j)
        for i in range(n) for j in range(i + 1, n)
        if i // per == j // per or rng.random() < 0.02
    ]
    X = np.vstack([X, rng.standard_normal((n_isolated, d))])
    return X, np.asarray(pairs, dtype=np.int64)


@pytest.fixture(scope="module")
def blob_fit():
    """A point-input fit (feature-path predicts available)."""
    X, edges = _blob_points()
    res = SpectralClustering(n_clusters=3, seed=0).fit(X=X, edges=edges)
    return X, edges, res


@pytest.fixture(scope="module")
def graph_fit():
    """A graph-input fit (weights-path predicts only)."""
    from repro.datasets.sbm import stochastic_block_model
    from repro.sparse.construct import from_edge_list

    rng = np.random.default_rng(3)
    edges, _ = stochastic_block_model([30] * 3, p_in=0.5, p_out=0.02, rng=rng)
    W = from_edge_list(edges, n_nodes=90)
    res = SpectralClustering(n_clusters=3, seed=0).fit(graph=W)
    return W, res


def _clone_payload(model, positions):
    """Weights-path payload cloning each listed anchor's similarity row."""
    rows, cols, vals = [], [], []
    for i, p in enumerate(positions):
        cp, vp = model.graph.getrow(int(p))
        rows.append(np.full(cp.size, i, dtype=np.int64))
        cols.append(model.kept[cp])
        vals.append(vp)
    pairs = np.column_stack([np.concatenate(rows), np.concatenate(cols)])
    return pairs, np.concatenate(vals)


class TestFitReturnsModel:
    def test_model_attached(self, blob_fit):
        _, _, res = blob_fit
        model = res.model
        assert model is not None
        assert model.k == 3
        assert model.basis.shape == (model.n_anchor, 3)
        assert model.centroids.shape == (3, 3)
        assert model.anchors is not None
        assert model.nbytes > 0

    def test_embedding_is_the_basis(self, blob_fit):
        """The exact path clusters the basis itself, so the model keeps
        one array and counts it once."""
        _, _, res = blob_fit
        model = res.model
        assert model.embedding is model.basis
        assert res.embedding is model.basis
        assert model.nbytes - model.basis.nbytes == sum(
            a.nbytes for a in (
                model.eigenvalues, model.degrees, model.centroids,
                model.labels, model.kept, model.graph.indptr,
                model.graph.indices, model.graph.data, model.anchors,
            )
        )

    def test_graph_fit_has_no_anchors(self, graph_fit):
        _, res = graph_fit
        assert res.model is not None
        assert res.model.anchors is None

    def test_ratiocut_has_no_model(self, graph_fit):
        W, _ = graph_fit
        res = SpectralClustering(
            n_clusters=3, objective="ratiocut", seed=0
        ).fit(graph=W)
        assert res.model is None

    def test_compressive_has_no_model(self, graph_fit):
        W, _ = graph_fit
        res = SpectralClustering(
            n_clusters=3, embedding="compressive", seed=0
        ).fit(graph=W)
        assert res.model is None


class TestAnchors:
    """The model's anchor rows are copied from ``X`` when the model is
    built, after k-means, and are the fp64 rows of ``X[kept]``."""

    @pytest.mark.parametrize("case", ["all_kept", "isolated", "float32"])
    def test_anchors_are_the_kept_rows_of_x(self, case):
        X, edges = _blob_points(n_isolated=4 if case == "isolated" else 0)
        if case == "float32":
            X = X.astype(np.float32)
        res = SpectralClustering(n_clusters=3, seed=0).fit(X=X, edges=edges)
        if case == "isolated":
            assert res.kept.size == X.shape[0] - 4
        else:
            assert res.kept.size == X.shape[0]
        want = np.asarray(X[res.kept], dtype=np.float64)
        assert res.model.anchors.dtype == np.float64
        assert res.model.anchors.shape == want.shape
        assert res.model.anchors.tobytes() == want.tobytes()
        assert not np.shares_memory(res.model.anchors, X)

    def test_eigensolver_holds_no_copy_of_x(self, monkeypatch):
        """Traced from the fit's entry (``X`` itself predates the trace),
        the eigensolver stage peaks below ``X.nbytes``: no stage before
        the model is built holds a copy of the points."""
        import tracemalloc

        X, edges = _blob_points(d=6000)
        stage = SpectralClustering._eigensolver_stage
        peaks = []

        def traced(self, *args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return stage(self, *args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(SpectralClustering, "_eigensolver_stage", traced)
        est = SpectralClustering(n_clusters=3, seed=0)
        tracemalloc.start()
        try:
            res = est.fit(X=X, edges=edges)
        finally:
            tracemalloc.stop()
        assert res.model.anchors.nbytes == X.nbytes
        assert len(peaks) == 1
        assert peaks[0] < X.nbytes


class TestPredictFeaturePath:
    def test_anchor_clones_recover_fit_labels(self, blob_fit):
        X, edges, res = blob_fit
        model = res.model
        picks = np.array([0, 5, 40, 80])
        anchor_ids = model.kept[picks]
        # connect each clone exactly as its source vertex connects
        pairs, _ = _clone_payload(model, picks)
        out = model.predict(X_new=X[anchor_ids], pairs_new=pairs)
        assert np.array_equal(out.labels, res.labels[anchor_ids])
        assert out.ledger_ok is None  # host path: nothing to audit
        assert out.embedding.shape == (4, 3)

    def test_values_byte_identical_to_whole_anchor_stack(
        self, blob_fit, monkeypatch
    ):
        """Centering only the touched anchor rows gives the bits the whole
        stacked anchor matrix gives (a row's mean and norm are its own)."""
        import repro.core.model as model_mod
        from repro.graph.similarity import cross_correlation

        X, _, res = blob_fit
        model = res.model
        rng = np.random.default_rng(5)
        X_new = np.vstack([X[model.kept[[2, 47]]], np.full((1, 5), 3.0)])
        X_new[:2] += 0.05 * rng.standard_normal((2, 5))
        # duplicate anchors, a constant new row, anchors in no order
        anchor_ids = model.kept[[61, 3, 3, 88, 40, 12, 61, 0]]
        rows = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        pairs = np.column_stack([rows, anchor_ids])
        seen = []

        def spy(stacked, spairs):
            out = cross_correlation(stacked, spairs)
            seen.append(out)
            return out

        monkeypatch.setattr(model_mod, "cross_correlation", spy)
        model.predict(X_new=X_new, pairs_new=pairs)
        positions = np.searchsorted(model.kept, anchor_ids)
        whole = cross_correlation(
            np.vstack([model.anchors, X_new]),
            np.column_stack([model.n_anchor + rows, positions]),
        )
        assert seen[0].tobytes() == whole.tobytes()

    def test_host_peak_does_not_grow_with_anchor_count(self):
        """A 1-point, 3-pair predict traces about the same bytes against
        2,000 or 20,000 anchor rows of d = 90: no stacked copy of the
        anchor matrix, no per-call id lookup table."""
        import gc
        import tracemalloc

        from repro.core.config import ClusterConfig
        from repro.core.model import FittedSpectralModel
        from repro.sparse.csr import CSRMatrix

        k, d = 4, 90
        rng = np.random.default_rng(0)
        X_new = rng.standard_normal((1, d))
        peaks = []
        for n in (2_000, 20_000):
            kept = np.arange(0, 2 * n, 2, dtype=np.int64)
            model = FittedSpectralModel(
                basis=rng.standard_normal((n, k)),
                eigenvalues=np.linspace(1.0, 0.9, k),
                degrees=rng.random(n) + 1.0,
                centroids=rng.standard_normal((k, k)),
                labels=rng.integers(0, k, 2 * n),
                kept=kept, n_total=2 * n,
                graph=CSRMatrix(np.zeros(n + 1, dtype=np.int64),
                                np.zeros(0, dtype=np.int64), np.zeros(0),
                                (n, n)),
                anchors=np.vstack([X_new + 0.1 * rng.standard_normal((3, d)),
                                   rng.standard_normal((n - 3, d))]),
                config=ClusterConfig(n_clusters=k),
            )
            pairs = np.array([[0, kept[0]], [0, kept[1]], [0, kept[2]]])
            gc.collect()
            tracemalloc.start()
            try:
                model.predict(X_new=X_new, pairs_new=pairs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 64 * 1024, peaks

    def test_device_peak_does_not_grow_with_anchor_count(self):
        """The device path of the same 1-point, 3-pair predict, against a
        basis left resident by an earlier call: it uploads the 3 touched
        anchor rows, not the anchor matrix, and no copy of the basis, so
        its traced bytes stay flat from 2,000 to 20,000 anchors."""
        import gc
        import tracemalloc

        from repro.core.config import ClusterConfig
        from repro.core.model import FittedSpectralModel
        from repro.sparse.csr import CSRMatrix

        k, d = 4, 90
        rng = np.random.default_rng(0)
        X_new = rng.standard_normal((1, d))
        peaks = []
        for n in (2_000, 20_000):
            kept = np.arange(0, 2 * n, 2, dtype=np.int64)
            model = FittedSpectralModel(
                basis=rng.standard_normal((n, k)),
                eigenvalues=np.linspace(1.0, 0.9, k),
                degrees=rng.random(n) + 1.0,
                centroids=rng.standard_normal((k, k)),
                labels=rng.integers(0, k, 2 * n),
                kept=kept, n_total=2 * n,
                graph=CSRMatrix(np.zeros(n + 1, dtype=np.int64),
                                np.zeros(0, dtype=np.int64), np.zeros(0),
                                (n, n)),
                anchors=np.vstack([X_new + 0.1 * rng.standard_normal((3, d)),
                                   rng.standard_normal((n - 3, d))]),
                config=ClusterConfig(n_clusters=k),
            )
            pairs = np.array([[0, kept[0]], [0, kept[1]], [0, kept[2]]])
            device = Device()
            first = model.predict(
                X_new=X_new, pairs_new=pairs, device=device, keep_basis=True
            )
            assert not first.ledger.basis_resident and first.ledger_ok
            gc.collect()
            tracemalloc.start()
            try:
                out = model.predict(
                    X_new=X_new, pairs_new=pairs, device=device,
                    keep_basis=True,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert out.ledger.basis_resident and out.ledger_ok is True
            assert out.ledger.anchors_h2d_bytes() == 3 * d * 8
            assert np.array_equal(out.labels, first.labels)
            model.release()
        assert max(peaks) < 64 * 1024, peaks

    def test_device_matches_host_bitwise(self, blob_fit):
        X, _, res = blob_fit
        model = res.model
        picks = np.array([1, 33, 62])
        pairs, _ = _clone_payload(model, picks)
        host = model.predict(X_new=X[model.kept[picks]], pairs_new=pairs)
        dev = model.predict(
            X_new=X[model.kept[picks]], pairs_new=pairs, device=Device()
        )
        assert np.array_equal(host.labels, dev.labels)
        assert np.array_equal(host.embedding, dev.embedding)
        assert dev.ledger_ok is True
        assert dev.simulated_time > 0

    def test_ledger_plan_is_exact(self, blob_fit):
        """The analytic byte plan equals the device meter, transfer by
        transfer — the serve bench gates on this."""
        X, _, res = blob_fit
        model = res.model
        pairs, _ = _clone_payload(model, np.array([2, 50]))
        device = Device()
        before = device.transfer_stats()
        out = model.predict(
            X_new=X[model.kept[[2, 50]]], pairs_new=pairs, device=device
        )
        after = device.transfer_stats()
        assert out.ledger_ok is True
        assert after["bytes_h2d"] - before["bytes_h2d"] == \
            out.ledger.total_h2d_bytes()
        assert after["n_h2d"] - before["n_h2d"] == out.ledger.n_h2d == 7


class TestPredictWeightsPath:
    def test_row_clone_predicts_same_label(self, graph_fit):
        _, res = graph_fit
        model = res.model
        picks = np.array([0, 10, 45, 70])
        pairs, vals = _clone_payload(model, picks)
        out = model.predict(weights_new=vals, pairs_new=pairs)
        assert np.array_equal(out.labels, res.labels[model.kept[picks]])

    def test_device_ledger_ok(self, graph_fit):
        _, res = graph_fit
        model = res.model
        pairs, vals = _clone_payload(model, np.array([3, 60]))
        out = model.predict(
            weights_new=vals, pairs_new=pairs, device=Device()
        )
        assert out.ledger_ok is True
        assert out.ledger.n_h2d == 5  # weights path skips X/anchor uploads

    def test_predict_embedding_micro_path(self, graph_fit):
        _, res = graph_fit
        model = res.model
        labels = model.predict_embedding(model.embedding[:12])
        assert np.array_equal(labels, res.labels[model.kept[:12]])


class TestPredictValidation:
    def test_feature_path_needs_anchors(self, graph_fit):
        _, res = graph_fit
        with pytest.raises(ClusteringError, match="weights_new instead"):
            res.model.predict(
                X_new=np.zeros((1, 3)), pairs_new=np.array([[0, 0]])
            )

    def test_exactly_one_payload_form(self, blob_fit):
        _, _, res = blob_fit
        with pytest.raises(ClusteringError, match="exactly one"):
            res.model.predict(pairs_new=np.array([[0, 0]]))

    def test_pairs_required(self, blob_fit):
        _, _, res = blob_fit
        with pytest.raises(ClusteringError, match="pairs_new"):
            res.model.predict(X_new=np.zeros((1, 5)))

    def test_out_of_range_anchor_rejected(self, blob_fit):
        X, _, res = blob_fit
        with pytest.raises(ClusteringError, match="outside"):
            res.model.predict(
                X_new=X[:1], pairs_new=np.array([[0, 10_000]])
            )


class TestApplyDelta:
    def _fresh(self):
        from repro.datasets.sbm import stochastic_block_model
        from repro.sparse.construct import from_edge_list

        rng = np.random.default_rng(11)
        edges, _ = stochastic_block_model(
            [25] * 3, p_in=0.6, p_out=0.02, rng=rng
        )
        W = from_edge_list(edges, n_nodes=75)
        res = SpectralClustering(n_clusters=3, seed=0).fit(graph=W)
        return W, res

    def test_small_delta_is_lazy(self):
        _, res = self._fresh()
        model = res.model
        a, b = model.kept[0], model.kept[1]
        out = model.apply_delta(
            edges_added=np.array([[a, b]]), weights_added=1e-4,
            device=Device(),
        )
        assert out.refit is False
        assert out.drift_bound <= out.threshold
        assert out.ledger_ok is True
        assert np.array_equal(out.labels, res.labels)
        assert model._accumulated_drift == out.accumulated_drift > 0

    def test_drift_accumulates_then_refits(self):
        _, res = self._fresh()
        model = res.model
        rng = np.random.default_rng(0)
        refitted = False
        for step in range(200):
            i, j = rng.choice(model.kept, size=2, replace=False)
            try:
                out = model.apply_delta(
                    edges_added=np.array([[i, j]]), weights_added=2.0,
                )
            except Exception:
                continue  # self-loop pick rejected etc.
            if out.refit:
                refitted = True
                break
        assert refitted
        assert model.n_refits == 1
        assert model._accumulated_drift == 0.0

    def test_refit_bit_identical_to_cold_fit(self):
        W, res = self._fresh()
        model = res.model
        picks = model.kept[:6]
        big = np.column_stack([picks[:3], picks[3:]])
        out = model.apply_delta(edges_added=big, weights_added=50.0)
        if not out.refit:
            # force it: drift threshold left some headroom — add more
            out = model.apply_delta(edges_added=big, weights_added=500.0)
        assert out.refit is True
        cold = SpectralClustering(n_clusters=3, seed=0).fit(graph=model.graph)
        np.testing.assert_array_equal(
            out.labels[model.kept], cold.labels[cold.model.kept]
        )

    def test_isolated_endpoint_rejected(self):
        _, res = self._fresh()
        model = res.model
        with pytest.raises(ClusteringError, match="outside"):
            model.apply_delta(
                edges_added=np.array([[0, 100_000]]), weights_added=1.0
            )
