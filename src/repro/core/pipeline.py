"""The public estimator: :class:`SpectralClustering`.

Implements the complete Figure 2 workflow on the simulated CPU-GPU
platform:

1. **Preprocessing** (point input only, Algorithm 1): transfer data and
   ε-edge list, build the COO similarity matrix on the device;
2. **Laplacian** (Algorithm 2): degree vector by SpMV, ``ScaleElements``,
   ``coo2csr``;
3. **Eigensolver** (Algorithm 3): ARPACK-style reverse communication on
   the CPU with ``cusparseDcsrmv`` on the GPU;
4. **k-means** (Algorithms 4-5) on the rows of the eigenvector matrix.

Graph input (FB/DBLP/Syn200-style) enters directly at step 2, exactly as
§II notes.

Staged serving
--------------
:meth:`SpectralClustering.fit` runs all four stages.  The serving layer
(:mod:`repro.serve`) shares stages across requests, so it composes the
private stage methods itself (similarity, Laplacian, eigensolver,
k-means) and builds its cache entry through the same
:meth:`~repro.core.model.FittedSpectralModel.from_stages` as ``fit``; the
stages run the same operations in the same order, so a cached model's
labels agree with a cold ``fit`` bit for bit.

Fault injection and resilience
------------------------------
``chaos=`` installs a :class:`~repro.chaos.plan.FaultPlan` (or builds one
from an integer seed) for the duration of the fit, making the simulated
runtime raise typed :class:`~repro.errors.CudaError`\\ s at planned sites.
``resilience=`` selects the :class:`~repro.chaos.retry.ResiliencePolicy`
response: transient faults retry with simulated-clock backoff, device OOM
shrinks the stage's working-set knob (``edge_chunk`` / ``tile_rows``) and
retries, the eigensolver resumes from its latest Lanczos checkpoint, and
as a last resort each stage falls back to its host implementation.  Every
recovery is recorded per-stage in ``result.resilience``.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import replace as _dc_replace

import numpy as np

from repro.chaos.plan import FaultPlan
from repro.chaos.retry import ResiliencePolicy, TRANSIENT_ERRORS, with_retry
from repro.chaos.runtime import chaos as _chaos_scope
from repro.compressive.engine import compressive_embedding
from repro.compressive.lift import lift_labels_device, lift_labels_host
from repro.compressive.sampling import (
    coherence_weights,
    default_sample_frac,
    gather_rows,
    sample_vertices,
)
from repro.core.config import ClusterConfig
from repro.core.model import FittedSpectralModel, has_nystrom
from repro.core.result import ClusteringResult, StageTimings
from repro.core.workflow import hybrid_eigensolver
from repro.cuda.device import Device
from repro.cuda.profiler import Profiler
from repro.cusparse.matrices import coo_to_device, csr_to_device
from repro.errors import ChaosError, ClusteringError, CudaError, DeviceMemoryError
from repro.graph.build import build_similarity_device, build_similarity_graph
from repro.graph.components import remove_isolated
from repro.graph.laplacian import (
    degrees,
    device_rw_normalize,
    device_shifted_laplacian,
    device_sym_normalize,
    rw_normalized_adjacency,
    sym_normalized_adjacency,
)
from repro.kmeans.cpu import kmeans_cpu
from repro.kmeans.gpu import kmeans_device
from repro.linalg.utils import normalize_rows
from repro.sparse.construct import diags
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _run_resilient(device, policy, stage, gpu_attempts, cpu_fn):
    """Run one pipeline stage under a resilience policy.

    ``gpu_attempts`` is the degrade ladder: zero-arg callables tried in
    order, each internally retried for transient faults with backoff.  A
    :class:`DeviceMemoryError` advances to the next (smaller working set)
    rung; exhausted transients or any other device error drop to
    ``cpu_fn`` (the host implementation) when the policy allows it.

    Returns ``(value, record)`` where ``record`` tallies the recovery
    actions taken (all zero/None on a clean first attempt).

    A failure is re-raised from inside its ``except`` clause and never
    bound to a local.  A caught error kept in a local outlives the clause,
    and its traceback holds this frame: a cycle that keeps the whole fit
    (device, timeline, arrays) alive until the cyclic collector runs,
    after a degrade that then succeeds, on the CPU fallback and on the
    re-raise alike.
    """
    rec = {"retries": 0, "degrade_steps": 0, "resumes": 0, "fallback": None}

    def count(_attempt: int) -> None:
        rec["retries"] += 1

    if not policy.enabled:
        return gpu_attempts[0](), rec

    fallback = cpu_fn is not None and policy.cpu_fallback
    for rung, attempt in enumerate(gpu_attempts):
        try:
            value = with_retry(
                attempt, device, policy, site=f"stage.{stage}", on_retry=count
            )
            rec["degrade_steps"] = rung
            return value, rec
        except DeviceMemoryError:
            if policy.oom_degrade and rung + 1 < len(gpu_attempts):
                continue  # the next rung has a smaller working set
            if not fallback:
                raise
        except CudaError:
            if not fallback:
                raise
        break
    rec["fallback"] = "cpu"
    return cpu_fn(), rec


def _note(resilience: dict, stage: str, rec: dict) -> None:
    if any(bool(v) for v in rec.values()):
        resilience[stage] = rec


class SpectralClustering:
    """Hybrid CPU-GPU spectral clustering (normalized cut).

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    **knobs:
        Any other :class:`~repro.core.config.ClusterConfig` field
        (``embedding=``, ``precision=``, ``devices=``, ``seed=`` ...);
        the validated config is kept as :attr:`config`.  Code holding a
        config passes it as ``**dataclasses.asdict(config)``.
    device:
        Supply a :class:`~repro.cuda.device.Device` to share/inspect the
        timeline; a fresh K20c is created per fit otherwise.
    chaos:
        Fault injection: a :class:`~repro.chaos.plan.FaultPlan`, an int
        seed (expanded with :meth:`FaultPlan.from_seed` at each fit, so
        equal seeds give identical schedules), or None (no faults).
    resilience:
        A :class:`~repro.chaos.retry.ResiliencePolicy`; None selects the
        default enabled policy.  Pass
        :data:`~repro.chaos.retry.DISABLED` to let faults propagate.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        device: Device | None = None,
        chaos: FaultPlan | int | None = None,
        resilience: ResiliencePolicy | None = None,
        **knobs,
    ) -> None:
        self.config = ClusterConfig(n_clusters=n_clusters, **knobs)
        if chaos is not None and not isinstance(chaos, (int, FaultPlan)):
            raise ChaosError(
                f"chaos must be a FaultPlan, an int seed or None, "
                f"got {type(chaos).__name__}"
            )
        self.device = device
        self.chaos = chaos
        self.resilience = resilience

    # ------------------------------------------------------------------
    def _fault_plan(self) -> FaultPlan | None:
        if self.chaos is None:
            return None
        if isinstance(self.chaos, FaultPlan):
            return self.chaos
        return FaultPlan.from_seed(self.chaos)

    def _policy(self) -> ResiliencePolicy:
        if self.resilience is None:
            return ResiliencePolicy()
        return self.resilience

    def _check_inputs(self, X, edges, graph) -> None:
        point_input = X is not None
        if point_input == (graph is not None):
            raise ClusteringError(
                "provide either (X, edges) for the point path or graph= for "
                "the graph path, not both"
            )
        if point_input and edges is None:
            raise ClusteringError("point input requires the ε-neighborhood edges")

    def _context(self):
        """(device, policy, plan, chaos-scope) for one top-level entry."""
        device = self.device if self.device is not None else Device()
        policy = self._policy()
        plan = self._fault_plan()
        scope = _chaos_scope(plan) if plan is not None else contextlib.nullcontext()
        return device, policy, plan, scope

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray | None = None,
        edges: np.ndarray | None = None,
        graph: COOMatrix | CSRMatrix | None = None,
    ) -> ClusteringResult:
        """Cluster point data (``X`` + ``edges``) or a prebuilt ``graph``.

        Exactly one input form must be provided.  Returns a
        :class:`~repro.core.result.ClusteringResult`.
        """
        self._check_inputs(X, edges, graph)
        device, policy, plan, scope = self._context()
        with scope:
            return self._fit_under_plan(device, policy, plan, X, edges, graph)

    # ------------------------------------------------------------------
    def _fit_under_plan(
        self, device, policy, plan, X, edges, graph
    ) -> ClusteringResult:
        cfg = self.config
        prof = Profiler(device)
        prof.start()
        timings = StageTimings()
        resilience: dict[str, dict] = {}

        theta, embedding, kept, n_total, stats, graph_host, deg_kept = (
            self._embed_stages(
                device, policy, X, edges, graph, timings, resilience
            )
        )
        km = self._kmeans_stage(device, policy, embedding, timings, resilience)
        model = FittedSpectralModel.from_stages(
            cfg, km, theta, embedding, kept, n_total,
            degrees=deg_kept, graph=graph_host, points=X,
            resilience=resilience,
        )

        return ClusteringResult(
            labels=model.labels,
            eigenvalues=theta,
            embedding=embedding,
            kmeans=km,
            timings=timings,
            profile=prof.stop(),
            eig_stats=stats.as_dict(),
            kept=kept,
            resilience=resilience,
            fault_events=plan.schedule if plan is not None else (),
            # a labels-only model has nothing to offer beyond the result
            model=model if model.graph is not None else None,
        )

    # ------------------------------------------------------------------
    # stages (each charges its own simulated + wall time into `timings`)
    # ------------------------------------------------------------------
    def _embed_stages(self, device, policy, X, edges, graph, timings, resilience):
        """Stages 1-3: similarity graph → operator → eigenvectors.

        Returns ``(eigenvalues, embedding, kept, n_total, stats,
        host graph, kept-degree vector)``; the host graph is None unless
        the fit has a Nyström extension."""
        cfg = self.config
        dcoo, n_total, kept, graph_host = self._similarity_stage(
            device, policy, X, edges, graph, timings, resilience
        )
        n = dcoo.shape[0]
        dcsr = None
        try:
            if n <= cfg.n_clusters:
                raise ClusteringError(
                    f"only {n} non-isolated nodes for k={cfg.n_clusters} clusters"
                )
            if n < cfg.devices:
                raise ClusteringError(
                    f"devices={cfg.devices} exceeds the {n} non-isolated "
                    "nodes to shard"
                )
            dcsr, shift, deg_kept = self._operator_stage(
                device, policy, dcoo, timings, resilience
            )
            dcoo.free()
            theta, embedding, stats = self._eigensolver_stage(
                device, policy, dcsr, shift, deg_kept, timings, resilience
            )
        finally:
            # a fault that escapes resilience must not leak the operator
            dcoo.free()
            if dcsr is not None:
                dcsr.free()
        return theta, embedding, kept, n_total, stats, graph_host, deg_kept

    def _similarity_stage(
        self, device, policy, X, edges, graph, timings, resilience,
        keep_graph: bool | None = None,
    ):
        """Stage 1: build/upload the similarity graph; returns
        ``(device COO, n_total, kept, host graph)``.

        The host graph — a mirror of the resident one over the kept
        vertices, which the fitted model keeps for predict — is built
        when ``keep_graph`` says so; by default only for fits with a
        Nyström extension (None otherwise)."""
        if keep_graph is None:
            keep_graph = has_nystrom(self.config)

        def upload(fn, stage_name: str, rec: dict):
            # uploads are idempotent, so even an injected OOM is retryable
            def bump(_attempt: int) -> None:
                rec["retries"] += 1

            return with_retry(
                fn, device, policy, site=f"{stage_name}.upload",
                errors=TRANSIENT_ERRORS + (DeviceMemoryError,), on_retry=bump,
            )

        t0 = time.perf_counter()
        sim_start = device.elapsed
        point_input = X is not None
        values = np.asarray(X) if point_input else graph.data
        # NaN fails every comparison, so a non-finite value would reach the
        # ``deg > 0`` isolated-node test below as an isolated vertex
        if not np.isfinite(values).all():
            what = "X" if point_input else "graph weights"
            raise ClusteringError(f"{what} must be finite (found NaN or inf)")
        # the Laplacian machinery assumes W >= 0 (correlation graphs drop
        # their non-positive edges in Algorithm 1)
        if not point_input and (values < 0).any():
            raise ClusteringError(
                f"graph weights must be non-negative (found "
                f"{int((values < 0).sum())} negative)"
            )
        if point_input:
            X_arr = values
            edges_arr = np.asarray(edges)
            n_total = X_arr.shape[0]
            n_edges = max(1, int(edges_arr.shape[0]))

            def build_gpu(chunk):
                return lambda: build_similarity_device(
                    device, X_arr, edges_arr, edge_chunk=chunk,
                )

            def build_cpu():
                W = build_similarity_graph(X_arr, edges_arr)
                with device.stage("similarity"):
                    return with_retry(
                        lambda: coo_to_device(device, W.sorted_by_row()),
                        device, policy, site="similarity.upload",
                    )

            dcoo, rec = _run_resilient(
                device, policy, "similarity",
                [build_gpu(None),
                 build_gpu(max(1, n_edges // 8)),
                 build_gpu(max(1, n_edges // 64))],
                build_cpu,
            )
            # isolated-node check on the host mirror of the device graph
            deg = np.bincount(dcoo.row.data, weights=dcoo.val.data, minlength=n_total)
            kept = np.flatnonzero(deg > 0)
            if kept.size < n_total:
                host_coo = COOMatrix(
                    dcoo.row.data, dcoo.col.data, dcoo.val.data,
                    dcoo.shape, check=False,
                )
                W_sub, kept = remove_isolated(host_coo)
                dcoo.free()
                with device.stage("similarity"):
                    dcoo = upload(
                        lambda: coo_to_device(
                            device, W_sub.to_coo().sorted_by_row()
                        ),
                        "similarity", rec,
                    )
            graph_host = None
            if keep_graph:
                graph_host = W_sub if kept.size < n_total else COOMatrix(
                    dcoo.row.data.copy(), dcoo.col.data.copy(),
                    dcoo.val.data.copy(), dcoo.shape, check=False,
                ).to_csr()
            _note(resilience, "similarity", rec)
        else:
            assert graph is not None
            n_total = graph.shape[0]
            csr = graph if isinstance(graph, CSRMatrix) else graph.to_csr()
            W_sub, kept = remove_isolated(csr)
            rec = {"retries": 0, "degrade_steps": 0, "resumes": 0, "fallback": None}
            with device.stage("similarity"):
                dcoo = upload(
                    lambda: coo_to_device(device, W_sub.to_coo().sorted_by_row()),
                    "similarity", rec,
                )
            graph_host = W_sub if keep_graph else None
            _note(resilience, "similarity", rec)
        timings.wall["similarity"] = time.perf_counter() - t0
        timings.simulated["similarity"] = device.elapsed - sim_start
        return dcoo, n_total, kept, graph_host

    def _operator_stage(self, device, policy, dcoo, timings, resilience):
        """Stage 2 (Algorithm 2): normalized operator in device CSR;
        returns ``(device CSR, shift, kept-degree vector)``."""
        cfg = self.config
        t0 = time.perf_counter()
        lap_start = device.elapsed
        # keep degrees for the sym->rw eigenvector back-mapping
        deg_kept = np.bincount(
            dcoo.row.data, weights=dcoo.val.data, minlength=dcoo.shape[0]
        )
        # ScaleElements rescales the COO values in place, so a retried
        # attempt must first restore them from this host mirror
        val0 = dcoo.val.data.copy() if policy.enabled else None

        def lap_gpu():
            if val0 is not None:
                dcoo.val.data[...] = val0
            if cfg.objective == "ratiocut":
                return device_shifted_laplacian(dcoo)
            if cfg.operator == "sym":
                return device_sym_normalize(dcoo), 0.0
            return device_rw_normalize(dcoo), 0.0

        def lap_cpu():
            vals = (val0 if val0 is not None else dcoo.val.data).copy()
            W_host = COOMatrix(
                dcoo.row.data.copy(), dcoo.col.data.copy(), vals,
                dcoo.shape, check=False,
            )
            if cfg.objective == "ratiocut":
                d = degrees(W_host)
                c = 2.0 * float(d.max()) if d.size else 0.0
                host_csr = diags(c - d).add(W_host.to_csr())
                sh = c
            elif cfg.operator == "sym":
                host_csr = sym_normalized_adjacency(W_host)
                sh = 0.0
            else:
                host_csr = rw_normalized_adjacency(W_host)
                sh = 0.0
            with device.stage("laplacian"):
                up = with_retry(
                    lambda: csr_to_device(device, host_csr),
                    device, policy, site="laplacian.upload",
                )
            return up, sh

        (dcsr, shift), rec = _run_resilient(
            device, policy, "laplacian", [lap_gpu], lap_cpu
        )
        _note(resilience, "laplacian", rec)
        timings.wall["laplacian"] = time.perf_counter() - t0
        timings.simulated["laplacian"] = device.elapsed - lap_start
        return dcsr, shift, deg_kept

    def _eigensolver_stage(
        self, device, policy, dcsr, shift, deg_kept, timings, resilience,
        free_operator: bool = True,
    ):
        """Stage 3 (Algorithm 3): k leading eigenpairs + back-mapping;
        returns ``(eigenvalues, embedding, stats)``.

        ``free_operator=False`` keeps the device CSR alive so several
        solves (different k/seed) can share one operator build — the
        serving layer's micro-batching path.  ``devices > 1`` shards the
        solve over a device group; the Ritz block comes back to the
        primary device for the k-means stage.
        """
        cfg = self.config
        t0 = time.perf_counter()
        eig_start = device.elapsed
        if cfg.embedding == "compressive":
            # the compressive tier forms no eigenvectors: the Chebyshev-
            # filtered random signals ARE the embedding; the spectrum
            # probe's Ritz values stand in as the eigenvalue evidence
            F, stats = compressive_embedding(
                device, dcsr, cfg.n_clusters,
                filter_order=cfg.filter_order, n_signals=cfg.n_signals,
                seed=cfg.seed, policy=policy,
                residency=cfg.eig_residency,
                spmv_format=cfg.eig_spmv_format,
                n_devices=cfg.devices, precision=cfg.precision,
            )
            _note(resilience, "eigensolver", {
                "retries": stats.spmv_retries,
                "degrade_steps": 0,
                "resumes": stats.n_resumes,
                "fallback": stats.fallback,
            })
            if free_operator:
                dcsr.free()
            theta = np.sort(np.asarray(stats.spectrum["theta"]))[::-1][
                : cfg.n_clusters
            ]
            U = F
            if cfg.operator == "sym":
                # the filtered signals live in the symmetric operator's
                # eigenbasis; the same D^{-1/2} row scaling as the exact
                # path maps them to the D^{-1}W geometry k-means expects
                inv_sqrt = 1.0 / np.sqrt(np.where(deg_kept > 0, deg_kept, 1.0))
                U = U * inv_sqrt[:, None]
            # row normalization is part of the compressive algorithm, not
            # an option: the sketch preserves the k-band subspace's
            # *angles*, while its row norms mix coherence with vertex
            # degree — on degree-heterogeneous graphs unnormalized sketch
            # norms dominate the k-means distances and bury the cluster
            # structure (measured: 3x ARI on the dblp bench graph)
            embedding = normalize_rows(U)
            timings.wall["eigensolver"] = time.perf_counter() - t0
            timings.simulated["eigensolver"] = device.elapsed - eig_start
            return theta, embedding, stats
        theta, U, stats = hybrid_eigensolver(
            device, dcsr, k=cfg.n_clusters, m=cfg.m,
            tol=cfg.eig_tol, maxiter=cfg.eig_maxiter, seed=cfg.seed,
            policy=policy, residency=cfg.eig_residency,
            spmv_format=cfg.eig_spmv_format, n_devices=cfg.devices,
            precision=cfg.precision, embedding=cfg.embedding,
        )
        _note(resilience, "eigensolver", {
            "retries": stats.spmv_retries,
            "degrade_steps": 0,
            "resumes": stats.n_resumes,
            "fallback": stats.fallback,
        })
        if free_operator:
            dcsr.free()
        if cfg.objective == "ratiocut":
            # top of cI - L == bottom of L: report λ(L) ascending
            order = np.argsort(theta)[::-1]
            theta = shift - theta[order]
            U = U[:, order]
        else:
            # largest k eigenvalues of D^{-1}W == smallest of L_n (§IV.B)
            order = np.argsort(theta)[::-1]
            theta = theta[order]
            U = U[:, order]
            if cfg.operator == "sym":
                # map eigenvectors of D^{-1/2}WD^{-1/2} to those of D^{-1}W
                inv_sqrt = 1.0 / np.sqrt(np.where(deg_kept > 0, deg_kept, 1.0))
                U = U * inv_sqrt[:, None]
        timings.wall["eigensolver"] = time.perf_counter() - t0
        timings.simulated["eigensolver"] = device.elapsed - eig_start
        return theta, U, stats

    def _kmeans_stage(self, device, policy, embedding, timings, resilience):
        """Stage 4 (Algorithms 4-5): cluster the embedding rows."""
        cfg = self.config
        if cfg.embedding == "compressive":
            return self._compressive_kmeans_stage(
                device, policy, embedding, timings, resilience
            )
        t0 = time.perf_counter()
        km_start = device.elapsed
        km = self._lloyd(device, policy, embedding, resilience)
        timings.wall["kmeans"] = time.perf_counter() - t0
        timings.simulated["kmeans"] = device.elapsed - km_start
        return km

    def _lloyd(self, device, policy, V, resilience):
        """k-means on the rows of ``V``: the device solve at full, 1/4
        and 1/16 distance-tile height, then the host solve, as the
        resilience ladder of the ``kmeans`` stage."""
        cfg = self.config
        n = V.shape[0]

        def km_gpu(tile):
            return lambda: kmeans_device(
                device, V, cfg.n_clusters, max_iter=cfg.kmeans_max_iter,
                seed=cfg.seed, tile_rows=tile,
            )

        km, rec = _run_resilient(
            device, policy, "kmeans",
            [km_gpu(None), km_gpu(max(1, n // 4)), km_gpu(max(1, n // 16))],
            lambda: kmeans_cpu(
                V, cfg.n_clusters, max_iter=cfg.kmeans_max_iter, seed=cfg.seed
            ),
        )
        _note(resilience, "kmeans", rec)
        return km

    def _compressive_kmeans_stage(
        self, device, policy, embedding, timings, resilience
    ):
        """Stage 4, compressive tier: coherence-weighted downsampling,
        k-means on the sampled sketch rows, and label lifting back to
        all vertices.  The whole stage is a deterministic function of
        ``(embedding, seed, knobs)``, so the serve cache-hit path
        reproduces a cold :meth:`fit` bit for bit.  On small graphs the
        default sample fraction saturates at 1.0 and the stage
        degenerates to plain k-means (no gather, no lift).  Everything is
        charged inside the ``kmeans`` timing
        window; the Chrome trace separates ``sampling`` / ``kmeans`` /
        ``lift`` stage tags.
        """
        cfg = self.config
        t0 = time.perf_counter()
        km_start = device.elapsed
        n_emb = embedding.shape[0]
        k = cfg.n_clusters
        frac = (
            float(cfg.sample_frac)
            if cfg.sample_frac is not None
            else default_sample_frac(n_emb, k)
        )
        n_s = min(n_emb, max(int(math.ceil(frac * n_emb)), min(n_emb, 2 * k)))

        if n_s >= n_emb:
            idx = np.arange(n_emb, dtype=np.int64)
            F_s = embedding
        else:
            with device.stage("sampling"):
                weights = coherence_weights(device, embedding)
                idx = sample_vertices(n_emb, weights, n_s, seed=cfg.seed)
                F_s, rec = _run_resilient(
                    device, policy, "sampling",
                    [lambda: gather_rows(device, embedding, idx)],
                    lambda: embedding[idx],
                )
                _note(resilience, "sampling", rec)

        km = self._lloyd(device, policy, F_s, resilience)

        if idx.size < n_emb:
            with device.stage("lift"):
                labels_full, rec = _run_resilient(
                    device, policy, "lift",
                    [lambda: lift_labels_device(
                        device, embedding, idx, km.labels, k
                    )],
                    lambda: lift_labels_host(
                        device, embedding, idx, km.labels, k
                    ),
                )
                _note(resilience, "lift", rec)
            # inertia/centroids describe the sampled solve; labels cover
            # every vertex
            km = _dc_replace(km, labels=labels_full)
        timings.wall["kmeans"] = time.perf_counter() - t0
        timings.simulated["kmeans"] = device.elapsed - km_start
        return km
