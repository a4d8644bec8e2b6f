"""The fitted spectral model: out-of-sample predict and graph deltas.

:class:`FittedSpectralModel` is what :meth:`SpectralClustering.fit`
hands back alongside the labels (``result.model``): the embedding basis,
Ritz values, degree scaling, k-means centroids and the fitted similarity
graph — everything needed to label *new* points without re-running the
pipeline.

Three serving-tier entry points:

``predict(X_new, pairs_new)``
    Nyström out-of-sample extension (Boutsidis et al.): similarity rows
    against the anchor (training) vertices, one SpMM through the
    existing cusparse substrate — precision, chaos sites and the cost
    model inherited — then the ``(1/θ)(1/d)`` rescale and an
    embedding-space nearest-centroid assignment.  Runs on the device
    under the same resilience ladder as the pipeline stages, with a
    bit-identical host fallback, and pins its transfer plan
    (:class:`~repro.linalg.nystrom.PredictLedger`) against the device
    meter.

``predict_embedding(E_new)``
    The microsecond path: callers who already hold embedding-space rows
    (e.g. replaying a cached predict) get a pure-centroid assignment
    with zero device work.

``apply_delta(edges_added, edges_removed)``
    Incremental graph update.  The edge delta patches the (simulated)
    device-resident CSR in place and is priced as the small H2D/D2H it
    actually costs (:class:`~repro.linalg.nystrom.DeltaLedger`); a full
    refit happens lazily, only when the accumulated Weyl-style Ritz
    drift bound crosses the spectral-gap threshold — at which point the
    refit is a standard ``fit(graph=...)`` and therefore bit-identical
    to a cold fit on the patched graph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.core.config import ClusterConfig
from repro.cusparse.matrices import DeviceCSR
from repro.cusparse.spmm import csrmm
from repro.errors import ClusteringError
from repro.graph.delta import apply_edge_delta
from repro.graph.similarity import cross_correlation
from repro.kmeans.utils import assign_nearest
from repro.linalg.nystrom import (
    DeltaLedger,
    PredictLedger,
    drift_threshold,
    ledger_matches_meter,
    nystrom_degrees,
    nystrom_product,
    nystrom_scale,
    ritz_drift_bound,
)
from repro.precision import PRECISION_DTYPES, quantize
from repro.sparse.csr import CSRMatrix


#: why a predict against a ratiocut or compressive fit cannot run
NO_NYSTROM = (
    "fit parameterization has no Nyström extension "
    "(ratiocut objective or compressive embedding)"
)


def has_nystrom(config: ClusterConfig) -> bool:
    """Whether a fit under ``config`` yields a Nyström-capable model: the
    extension is derived for the normalized adjacency operators (ncut)
    and needs an eigenvector basis, not the compressive sketch."""
    return config.objective == "ncut" and config.embedding != "compressive"


@dataclass
class PredictResult:
    """One out-of-sample predict call.

    ``ledger_ok`` is True when the analytic transfer plan matched the
    device meter exactly, False on a mismatch, and None when the call
    never had a clean device pass to audit (host path, or resilience
    recovery double-charged transfers).
    """

    labels: np.ndarray
    embedding: np.ndarray
    degrees: np.ndarray
    ledger: PredictLedger
    ledger_ok: bool | None
    resilience: dict
    simulated_time: float = 0.0

    @property
    def n_new(self) -> int:
        return int(self.labels.size)


@dataclass
class ApplyDeltaResult:
    """One incremental graph update.

    ``refit`` — whether the drift bound crossed the threshold and the
    model re-fit on the patched graph (``result`` then holds the full
    :class:`~repro.core.result.ClusteringResult`); on the lazy path the
    cached embedding is reused and ``ledger``/``ledger_ok`` price the
    patch transfers.
    """

    refit: bool
    drift_bound: float
    threshold: float
    accumulated_drift: float
    labels: np.ndarray
    ledger: DeltaLedger | None = None
    ledger_ok: bool | None = None
    result: object | None = None
    simulated_time: float = 0.0


@dataclass
class FittedSpectralModel:
    """Everything a fit learned, packaged for predict-many serving.

    It is also the serving layer's one cache entry: a fit request that
    hits it returns its ``labels``, ``eigenvalues`` and ``embedding``,
    and a predict runs the Nyström extension on it.  Ratiocut and
    compressive fits have no Nyström extension; their entries are
    *labels-only* (``graph``, ``degrees`` and ``anchors`` are None, and
    :meth:`predict` refuses them).

    Attributes
    ----------
    basis:
        The ``(n_anchor, k)`` embedding rows k-means clustered.  For a
        Nyström-capable fit this is the fp64 eigenvector block *after*
        the sym→rw back-mapping — the Nyström formula's ``U``.
    eigenvalues:
        The k kept Ritz values ``θ`` (descending).
    degrees:
        Fitted degree vector over the anchor vertices (None for a
        labels-only entry).
    centroids:
        k-means centroids in embedding space.
    labels:
        Fit labels on the original indexing (isolated nodes ``-1``).
    kept:
        Original indices of the anchor (non-isolated) vertices, ascending.
    graph:
        Host mirror of the fitted similarity CSR over the anchors (the
        simulated device-resident copy the delta path patches); None for
        a labels-only entry.
    anchors:
        ``(n_anchor, d)`` feature rows of the anchor vertices, or None
        for graph-input fits (predict then requires precomputed
        weights).
    config:
        The fit's :class:`~repro.core.config.ClusterConfig` — enough to
        re-fit bit-identically.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    degrees: np.ndarray | None
    centroids: np.ndarray
    labels: np.ndarray
    kept: np.ndarray
    n_total: int
    graph: CSRMatrix | None
    anchors: np.ndarray | None
    config: ClusterConfig
    resilience: dict = field(default_factory=dict)
    drift_scale: float = 1.0
    n_refits: int = 0
    _accumulated_drift: float = 0.0

    @classmethod
    def from_stages(
        cls, config, km, theta, embedding, kept, n_total, *,
        degrees=None, graph=None, points=None, resilience=None,
    ) -> "FittedSpectralModel":
        """The model of one fit, from the k-means result ``km`` over the
        ``embedding`` rows of the ``kept`` vertices: the one constructor
        of :meth:`SpectralClustering.fit` and the serving batch path.

        It is labels-only unless ``config`` has a Nyström extension and
        ``graph`` (the host mirror of the fitted similarity CSR) is
        given.  The anchor rows of point input are copied here, after
        k-means, so no stage before holds a second copy of ``points``.
        """
        labels = np.full(n_total, -1, dtype=np.int64)
        labels[kept] = km.labels
        nystrom = graph is not None and has_nystrom(config)
        return cls(
            basis=embedding,
            eigenvalues=theta,
            degrees=degrees if nystrom else None,
            centroids=km.centroids,
            labels=labels,
            kept=kept,
            n_total=n_total,
            graph=graph if nystrom else None,
            anchors=(
                np.asarray(np.asarray(points)[kept], dtype=np.float64)
                if nystrom and points is not None else None
            ),
            config=config,
            resilience=dict(resilience or {}),
        )

    def relabeled(self, config, km, resilience=None) -> "FittedSpectralModel":
        """This solve's model under other label knobs: ``config``'s, with
        its k-means result ``km`` over the same embedding."""
        labels = np.full(self.n_total, -1, dtype=np.int64)
        labels[self.kept] = km.labels
        return replace(
            self, centroids=km.centroids, labels=labels, config=config,
            resilience=dict(resilience or {}),
        )

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def n_anchor(self) -> int:
        return int(self.basis.shape[0])

    @property
    def embedding(self) -> np.ndarray:
        """The ``(n_anchor, k)`` rows k-means clustered: the exact path
        clusters the basis itself, so this is ``basis`` (stored once)."""
        return self.basis

    @property
    def nbytes(self) -> int:
        """Cached host footprint (the cache's accounting unit)."""
        arrays = [
            self.basis, self.eigenvalues, self.degrees, self.centroids,
            self.labels, self.kept, self.anchors,
        ]
        if self.graph is not None:
            arrays += [self.graph.indptr, self.graph.indices, self.graph.data]
        return int(sum(a.nbytes for a in arrays if a is not None))

    @property
    def _resident(self) -> dict:
        """Device -> the copy of ``basis`` a ``keep_basis`` predict left
        resident there (freed by :meth:`release`).  An instance
        attribute, not a field: :func:`dataclasses.replace` and the
        store never carry a device buffer over."""
        return self.__dict__.setdefault("_device_basis", {})

    def release(self) -> None:
        """Free the device-resident basis copies (an evicted entry's)."""
        for dbasis in self.__dict__.pop("_device_basis", {}).values():
            dbasis.free()

    # ------------------------------------------------------------------
    # index mapping helpers
    # ------------------------------------------------------------------
    def _anchor_positions(self, ids: np.ndarray, what: str) -> np.ndarray:
        """Map original vertex ids to anchor-subgraph positions (a binary
        search of the ascending ``kept``, so no ``n_total`` lookup table
        is built per call)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_total):
            raise ClusteringError(
                f"{what}: vertex id outside [0, {self.n_total})"
            )
        pos = np.searchsorted(self.kept, ids)
        hit = self.kept[np.minimum(pos, self.kept.size - 1)] == ids
        if not np.all(hit):
            raise ClusteringError(
                f"{what}: references an isolated vertex dropped at fit time"
            )
        return pos

    def _store_dtype(self):
        return PRECISION_DTYPES[self.config.precision]

    # ------------------------------------------------------------------
    # predict
    # ------------------------------------------------------------------
    def predict(
        self,
        X_new: np.ndarray | None = None,
        pairs_new: np.ndarray | None = None,
        weights_new: np.ndarray | None = None,
        n_new: int | None = None,
        device=None,
        policy=None,
        keep_basis: bool = False,
    ) -> PredictResult:
        """Label new points via the Nyström extension.

        ``pairs_new`` is ``(nnz, 2)`` rows of ``(new_index,
        anchor_vertex_id)`` where anchor ids use the *original* fit
        indexing.  Two input forms:

        * feature path — ``X_new`` given: similarity values are computed
          against the stored anchor feature rows by cross-correlation
          (requires a point-input fit);
        * weights path — ``weights_new`` given: the caller supplies the
          precomputed similarity values (the only form available after a
          graph-input fit).

        Runs on ``device`` under ``policy``'s resilience ladder when a
        device is provided; otherwise on the bit-identical host path.
        ``keep_basis=True`` leaves the uploaded basis resident on
        ``device`` for later calls (a cached model's), so only the first
        call there uploads it; :meth:`release` frees it.
        """
        if self.graph is None or not has_nystrom(self.config):
            raise ClusteringError(NO_NYSTROM)
        if pairs_new is None:
            raise ClusteringError("predict requires pairs_new (new, anchor) pairs")
        pairs = np.asarray(pairs_new, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
            raise ClusteringError(
                f"pairs_new must be a non-empty (nnz, 2) array, got {pairs.shape}"
            )
        feature_path = X_new is not None
        if feature_path == (weights_new is not None):
            raise ClusteringError(
                "provide exactly one of X_new (feature path) or weights_new "
                "(precomputed similarity values)"
            )
        if feature_path and self.anchors is None:
            raise ClusteringError(
                "feature-path predict needs anchor features; this model was "
                "fit from a prebuilt graph — pass weights_new instead"
            )

        rows = pairs[:, 0]
        cols = self._anchor_positions(pairs[:, 1], "pairs_new")
        if feature_path:
            Xn = np.asarray(X_new, dtype=np.float64)
            if Xn.ndim != 2 or Xn.shape[1] != self.anchors.shape[1]:
                raise ClusteringError(
                    f"X_new must be (n_new, {self.anchors.shape[1]}), "
                    f"got {np.asarray(X_new).shape}"
                )
            m = Xn.shape[0]
        else:
            Xn = None
            m = int(rows.max()) + 1
        if n_new is not None:
            if n_new < (int(rows.max()) + 1 if rows.size else 0):
                raise ClusteringError("n_new smaller than pairs_new row range")
            m = int(n_new)
        if rows.min() < 0 or rows.max() >= m:
            raise ClusteringError(f"pairs_new new-index outside [0, {m})")

        # similarity values (host substrate; the device path charges the
        # kernel over the same arithmetic)
        if feature_path:
            # only the anchor rows the pairs touch, then the new rows: a
            # row's mean and norm depend on that row alone, so the values
            # are the bits the whole anchor matrix would give
            touched, at = np.unique(cols, return_inverse=True)
            stacked = np.vstack([self.anchors[touched], Xn])
            spairs = np.column_stack([touched.size + rows, at])
            vals = cross_correlation(stacked, spairs)
            # mirror the fit-time graph build: keep positive-affinity
            # edges only
            pos = vals > 0
            rows, cols, vals = rows[pos], cols[pos], vals[pos]
            if vals.size == 0:
                raise ClusteringError(
                    "no positive-similarity pairs survive; the new points "
                    "are unconnected to the fitted graph"
                )
        else:
            vals = np.asarray(weights_new, dtype=np.float64).ravel()
            if vals.size != pairs.shape[0]:
                raise ClusteringError(
                    f"weights_new length {vals.size} != pairs_new rows "
                    f"{pairs.shape[0]}"
                )
            if np.any(vals <= 0):
                raise ClusteringError("weights_new must be positive")

        # CSR structure of S_new (n_new × n_anchor), rows column-sorted
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])

        store_dtype = self._store_dtype()
        vals_q = quantize(vals, store_dtype)
        nnz = int(vals_q.size)
        d = int(self.anchors.shape[1]) if feature_path else 0
        ledger = PredictLedger(
            n_new=m, n_anchor=self.n_anchor, k=self.k, nnz=nnz, d=d,
            feature_path=feature_path, itemsize=int(np.dtype(store_dtype).itemsize),
            n_touched=int(touched.size) if feature_path else 0,
            basis_resident=device in self._resident,
        )

        def host_path():
            deg = nystrom_degrees(indptr, vals_q)
            emb = nystrom_scale(
                nystrom_product(indptr, cols, vals_q, self.basis),
                deg, self.eigenvalues,
            )
            return assign_nearest(emb, self.centroids), emb, deg, None

        if device is None:
            labels, emb, deg, _ = host_path()
            return PredictResult(
                labels=labels, embedding=emb, degrees=deg, ledger=ledger,
                ledger_ok=None, resilience={},
            )

        def device_path():
            meter0 = device.transfer_stats()
            t0 = device.elapsed
            bufs = []

            def alloc(fn):
                a = fn()
                bufs.append(a)
                return a

            try:
                with device.stage("predict"):
                    if feature_path:
                        alloc(lambda: device.to_device(Xn))
                        # only the anchor rows the pairs touch
                        alloc(lambda: device.to_device(stacked[:touched.size]))
                        alloc(lambda: device.to_device(rows))
                        dcols = alloc(lambda: device.to_device(cols))
                        device.charge_kernel(
                            "predict_similarity",
                            2.0 * nnz * d,
                            2.0 * nnz * d * 8 + nnz * 24.0,
                        )
                        dvals = alloc(
                            lambda: device.empty((nnz,), dtype=store_dtype)
                        )
                        dvals.data[...] = vals_q
                    else:
                        dcols = alloc(lambda: device.to_device(cols))
                        dvals = alloc(lambda: device.to_device(vals_q))
                    dptr = alloc(lambda: device.to_device(indptr))
                    device.charge_kernel(
                        "predict_degrees",
                        1.0 * nnz,
                        nnz * ledger.itemsize + m * 8.0,
                    )
                    deg = nystrom_degrees(indptr, vals_q)
                    dbasis = self._resident.get(device)
                    if dbasis is None:
                        dbasis = device.to_device(self.basis)
                        if keep_basis:
                            self._resident[device] = dbasis
                        else:
                            bufs.append(dbasis)
                    S_dev = DeviceCSR(dptr, dcols, dvals, (m, self.n_anchor))
                    C = alloc(
                        lambda: device.empty((m, self.k), dtype=np.float64)
                    )
                    csrmm(S_dev, dbasis, C=C)
                    device.charge_kernel(
                        "nystrom_scale", 2.0 * m * self.k, 3.0 * m * self.k * 8
                    )
                    C.data[...] = nystrom_scale(C.data, deg, self.eigenvalues)
                    alloc(lambda: device.to_device(self.centroids))
                    dlabels = alloc(
                        lambda: device.empty((m,), dtype=np.int64)
                    )
                    device.charge_kernel(
                        "predict_assign",
                        2.0 * m * self.k * self.k + 3.0 * m * self.k,
                        (m * self.k + self.k * self.k + 2.0 * m) * 8,
                        kind="dense",
                    )
                    dlabels.data[...] = assign_nearest(C.data, self.centroids)
                    emb = C.copy_to_host()
                    labels = dlabels.copy_to_host()
            finally:
                for a in bufs:
                    a.free()
            return labels, emb, deg, (meter0, device.elapsed - t0)

        from repro.core.pipeline import _run_resilient

        if policy is None:
            from repro.chaos.retry import ResiliencePolicy

            policy = ResiliencePolicy()
        (labels, emb, deg, audit), rec = _run_resilient(
            device, policy, "predict", [device_path], host_path
        )

        ledger_ok: bool | None = None
        sim_time = 0.0
        clean = (
            audit is not None
            and not rec["retries"] and not rec["degrade_steps"]
            and rec["fallback"] is None
        )
        if audit is not None:
            meter0, sim_time = audit
        if clean:
            ledger_ok = ledger_matches_meter(
                ledger, meter0, device.transfer_stats()
            )
        resilience = {}
        if any((rec["retries"], rec["degrade_steps"], rec["resumes"],
                rec["fallback"])):
            resilience["predict"] = rec
        return PredictResult(
            labels=labels, embedding=emb, degrees=deg, ledger=ledger,
            ledger_ok=ledger_ok, resilience=resilience,
            simulated_time=sim_time,
        )

    def predict_embedding(self, E_new: np.ndarray) -> np.ndarray:
        """Pure-centroid assignment of precomputed embedding rows.

        The microsecond path: no similarity build, no SpMM, no device —
        one small GEMM-expansion argmin on the host.
        """
        E = np.asarray(E_new, dtype=np.float64)
        if E.ndim != 2 or E.shape[1] != self.k:
            raise ClusteringError(
                f"E_new must be (n, {self.k}), got {np.asarray(E_new).shape}"
            )
        return assign_nearest(E, self.centroids)

    # ------------------------------------------------------------------
    # incremental graph deltas
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        edges_added=None,
        weights_added=None,
        edges_removed=None,
        device=None,
        policy=None,
    ) -> ApplyDeltaResult:
        """Apply an edge delta; refit lazily on Ritz-drift threshold.

        Edges use original vertex ids (both endpoints must be anchor
        vertices — the fitted vertex set is fixed).  The delta patches
        the resident CSR and is priced as its own small transfers; the
        Weyl bound on the resulting Ritz movement accumulates across
        lazy updates, and once it exceeds half the fitted spectral gap a
        full (bit-identical) refit on the patched graph runs instead.
        """
        if self.graph is None:
            raise ClusteringError(
                "apply_delta needs the fitted graph; a labels-only entry "
                "keeps none"
            )

        def map_edges(edges, what):
            if edges is None:
                return None
            e = np.asarray(edges, dtype=np.int64)
            if e.size == 0:
                return e.reshape(0, 2)
            if e.ndim != 2 or e.shape[1] != 2:
                raise ClusteringError(
                    f"{what} must be (m, 2) vertex pairs, got {e.shape}"
                )
            return np.column_stack([
                self._anchor_positions(e[:, 0], what),
                self._anchor_positions(e[:, 1], what),
            ])

        W_new, drows, dcols, dvals, deg_old, deg_new = apply_edge_delta(
            self.graph,
            map_edges(edges_added, "edges_added"),
            weights_added,
            map_edges(edges_removed, "edges_removed"),
        )
        bound = ritz_drift_bound(drows, dcols, dvals, deg_old, deg_new)
        threshold = drift_threshold(
            self.eigenvalues, self.n_anchor, self.drift_scale
        )
        accumulated = self._accumulated_drift + bound

        if accumulated <= threshold:
            ledger = DeltaLedger(nnz_delta=int(dvals.size), n=self.n_anchor)
            ledger_ok: bool | None = None
            sim_time = 0.0
            if device is not None:
                meter0 = device.transfer_stats()
                t0 = device.elapsed
                bufs = []
                try:
                    with device.stage("delta"):
                        bufs.append(device.to_device(drows))
                        bufs.append(device.to_device(dcols))
                        bufs.append(device.to_device(dvals))
                        # in-place scatter into the resident CSR + the
                        # on-device drift statistic (fused reduction)
                        device.charge_kernel(
                            "csr_delta_patch",
                            4.0 * dvals.size,
                            6.0 * dvals.size * 8,
                        )
                        device.charge_scalar_d2h()
                finally:
                    for a in bufs:
                        a.free()
                sim_time = device.elapsed - t0
                ledger_ok = ledger_matches_meter(
                    ledger, meter0, device.transfer_stats()
                )
            self.graph = W_new
            self.degrees = deg_new
            self._accumulated_drift = accumulated
            return ApplyDeltaResult(
                refit=False, drift_bound=bound, threshold=threshold,
                accumulated_drift=accumulated, labels=self.labels,
                ledger=ledger, ledger_ok=ledger_ok, simulated_time=sim_time,
            )

        # threshold crossed: full refit on the patched graph — a plain
        # fit(graph=...), so parity with a cold fit is exact by
        # construction
        from repro.core.pipeline import SpectralClustering

        t0 = device.elapsed if device is not None else 0.0
        res = SpectralClustering(
            **asdict(self.config), device=device, resilience=policy
        ).fit(graph=W_new)
        sim_time = (device.elapsed - t0) if device is not None else 0.0
        refit_model = res.model
        if refit_model is None:  # pragma: no cover - same param family
            raise ClusteringError("refit produced no model")
        labels_global = np.full(self.n_total, -1, dtype=np.int64)
        labels_global[self.kept] = res.labels

        self.release()  # the resident copies hold the old basis
        self.basis = refit_model.basis
        self.eigenvalues = refit_model.eigenvalues
        self.degrees = refit_model.degrees
        self.centroids = refit_model.centroids
        self.graph = refit_model.graph
        if self.anchors is not None:
            self.anchors = self.anchors[refit_model.kept]
        self.kept = self.kept[refit_model.kept]
        self.labels = labels_global
        self.resilience = dict(refit_model.resilience)
        self._accumulated_drift = 0.0
        self.n_refits += 1
        return ApplyDeltaResult(
            refit=True, drift_bound=bound, threshold=threshold,
            accumulated_drift=0.0, labels=labels_global, result=res,
            simulated_time=sim_time,
        )
