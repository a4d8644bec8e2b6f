"""Request/response records of the clustering service.

A :class:`ClusterRequest` names a workload either by *reference* (a
registered dataset + scale + generator seed — the JSONL-serializable form
used in replay traces) or by *value* (an in-memory graph or point set).
All estimator parameters ride on the request, so any two requests are
free to differ in ``n_clusters``, seeds, tolerances, or chaos plans while
still sharing a graph.

A :class:`ClusterResponse` carries the clustering output plus the
service-side observability record: admission/queue/batch/cache facts and
the simulated latency breakdown the metrics report aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.plan import FaultPlan
from repro.chaos.retry import DISABLED, ResiliencePolicy
from repro.core.pipeline import SpectralClustering
from repro.core.result import StageTimings
from repro.errors import RequestError
from repro.serve.fingerprint import (
    embedding_key,
    graph_fingerprint,
    model_key,
    operator_key,
    points_fingerprint,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

#: response lifecycle outcomes
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_FAILED = "failed"


@dataclass
class ClusterRequest:
    """One clustering job submitted to the service.

    Exactly one workload source must be set: ``dataset`` (by reference,
    replayable) or ``graph`` / ``X``+``edges`` (by value).
    """

    request_id: str
    #: simulated submission time (seconds on the service clock)
    arrival: float = 0.0

    # -- workload by reference (JSONL-serializable) ---------------------
    dataset: str | None = None
    scale: float = 0.05
    data_seed: int = 0

    # -- workload by value ----------------------------------------------
    graph: COOMatrix | CSRMatrix | None = None
    X: np.ndarray | None = None
    edges: np.ndarray | None = None

    # -- estimator parameters (defaults mirror SpectralClustering) ------
    n_clusters: int = 2
    similarity: str = "crosscorr"
    sigma: float = 1.0
    operator: str = "sym"
    objective: str = "ncut"
    m: int | None = None
    eig_tol: float = 1e-8
    eig_maxiter: int | None = None
    #: GPUs the solve spans (row-partitioned; same output as one device,
    #: so deliberately NOT part of embedding_key — a multi-device solve
    #: can serve a cached single-device embedding and vice versa)
    devices: int = 1
    #: storage precision of the eigensolve ('fp64'/'fp32'/'fp16') — part
    #: of embedding_key: reduced embeddings are tolerance-band accurate,
    #: not bit-identical, so they must not shadow exact ones
    precision: str = "fp64"
    #: spectral embedding algorithm ('lanczos'/'power'/'compressive') —
    #: part of embedding_key for the same reason
    embedding: str = "lanczos"
    #: compressive tier: Chebyshev degree / sketch width (None = engine
    #: defaults).  Both are part of embedding_key — a different filter
    #: polynomial or sketch width is a different embedding.
    filter_order: int | None = None
    n_signals: int | None = None
    #: compressive tier: vertex sample fraction and lift mode — stage-4
    #: knobs (they act after the embedding), so NOT part of embedding_key
    sample_frac: float | None = None
    lift: str = "interp"
    kmeans_init: str = "k-means++"
    kmeans_max_iter: int = 300
    normalize_rows: bool = False
    handle_isolated: str = "remove"
    seed: int | None = 0

    # -- fault injection -------------------------------------------------
    chaos: FaultPlan | int | None = None
    no_resilience: bool = False

    def __post_init__(self) -> None:
        by_ref = self.dataset is not None
        by_graph = self.graph is not None
        by_points = self.X is not None
        if sum((by_ref, by_graph, by_points)) != 1:
            raise RequestError(
                f"request {self.request_id!r}: provide exactly one of "
                "dataset=, graph=, or X=/edges="
            )
        if by_points and self.edges is None:
            raise RequestError(
                f"request {self.request_id!r}: point input requires edges="
            )
        if self.arrival < 0:
            raise RequestError(
                f"request {self.request_id!r}: negative arrival {self.arrival}"
            )

    # ------------------------------------------------------------------
    def estimator(self, device=None) -> SpectralClustering:
        """A fresh estimator configured exactly as this request asks."""
        return SpectralClustering(
            device=device,
            n_clusters=self.n_clusters,
            similarity=self.similarity,
            sigma=self.sigma,
            operator=self.operator,
            objective=self.objective,
            m=self.m,
            eig_tol=self.eig_tol,
            eig_maxiter=self.eig_maxiter,
            devices=self.devices,
            precision=self.precision,
            embedding=self.embedding,
            filter_order=self.filter_order,
            n_signals=self.n_signals,
            sample_frac=self.sample_frac,
            lift=self.lift,
            kmeans_init=self.kmeans_init,
            kmeans_max_iter=self.kmeans_max_iter,
            normalize_rows=self.normalize_rows,
            handle_isolated=self.handle_isolated,
            seed=self.seed,
            chaos=self.chaos,
            resilience=DISABLED if self.no_resilience else None,
        )

    def policy(self) -> ResiliencePolicy:
        return DISABLED if self.no_resilience else ResiliencePolicy()

    def fault_plan(self) -> FaultPlan | None:
        if self.chaos is None:
            return None
        if isinstance(self.chaos, FaultPlan):
            return self.chaos
        return FaultPlan.from_seed(self.chaos)

    # ------------------------------------------------------------------
    def workload_fingerprint(self) -> str:
        """Content fingerprint of the resolved workload (graph or points).

        For by-reference requests the service resolves the dataset first
        and calls the module-level functions itself; this method covers
        the by-value forms.
        """
        if self.graph is not None:
            return graph_fingerprint(self.graph)
        if self.X is not None:
            return points_fingerprint(
                self.X, self.edges, self.similarity, self.sigma
            )
        raise RequestError(
            f"request {self.request_id!r} is by-reference; resolve the "
            "dataset before fingerprinting"
        )

    def operator_key(self, fingerprint: str) -> tuple:
        return operator_key(
            fingerprint, self.operator, self.objective, self.handle_isolated
        )

    def embedding_key(self, fingerprint: str) -> tuple:
        # canonicalize the compressive knobs so explicit-default requests
        # share a slot with engine-default ones, and non-compressive
        # requests always key (None, None)
        if self.embedding == "compressive":
            from repro.compressive.filters import (
                DEFAULT_FILTER_ORDER,
                default_n_signals,
            )

            forder = self.filter_order or DEFAULT_FILTER_ORDER
            nsig = self.n_signals or default_n_signals(self.n_clusters)
        else:
            forder = None
            nsig = None
        return embedding_key(
            fingerprint, self.operator, self.objective, self.handle_isolated,
            self.n_clusters, self.m, self.eig_tol, self.eig_maxiter,
            self.seed, self.normalize_rows,
            precision=self.precision, embedding=self.embedding,
            filter_order=forder, n_signals=nsig,
        )

    def model_key(self, fingerprint: str) -> tuple:
        """Fitted-model cache key (embedding key + k-means knobs)."""
        return model_key(
            self.embedding_key(fingerprint),
            self.kmeans_init, self.kmeans_max_iter,
        )


@dataclass
class PredictRequest:
    """One out-of-sample labeling job for the predict fast lane.

    A predict request names the *fit* whose model should serve it (the
    nested :class:`ClusterRequest` spec — its ``request_id``/``arrival``
    are ignored) plus a payload of new vertices.  Two payload forms:

    * synthetic, by reference (JSONL-serializable): ``n_new`` new
      vertices derived deterministically from the fitted model with
      ``new_seed`` — each new vertex clones the neighborhood of one
      fitted anchor (weights path for graph-input fits, feature path
      for point-input fits);
    * by value: explicit ``pairs_new`` (+ ``X_new`` or ``weights_new``)
      exactly as :meth:`FittedSpectralModel.predict` takes them.

    ``deadline`` (absolute simulated clock) and ``priority`` (higher
    serves first) order the fast lane; neither enters any cache key.
    """

    request_id: str
    fit: ClusterRequest
    arrival: float = 0.0

    # -- payload by reference (JSONL-serializable) ----------------------
    n_new: int = 8
    new_seed: int = 0

    # -- payload by value ------------------------------------------------
    X_new: np.ndarray | None = None
    pairs_new: np.ndarray | None = None
    weights_new: np.ndarray | None = None

    # -- fast-lane ordering ----------------------------------------------
    deadline: float | None = None
    priority: int = 0

    # -- fault injection (predict stage only) ----------------------------
    chaos: FaultPlan | int | None = None
    no_resilience: bool = False

    def __post_init__(self) -> None:
        by_value = self.pairs_new is not None
        if (self.X_new is not None or self.weights_new is not None) and not by_value:
            raise RequestError(
                f"predict {self.request_id!r}: X_new/weights_new require "
                "pairs_new"
            )
        if by_value and (self.X_new is None) == (self.weights_new is None):
            raise RequestError(
                f"predict {self.request_id!r}: provide exactly one of X_new "
                "or weights_new alongside pairs_new"
            )
        if not by_value and self.n_new < 1:
            raise RequestError(
                f"predict {self.request_id!r}: n_new must be >= 1"
            )
        if self.arrival < 0:
            raise RequestError(
                f"predict {self.request_id!r}: negative arrival {self.arrival}"
            )
        if self.deadline is not None and self.deadline < self.arrival:
            raise RequestError(
                f"predict {self.request_id!r}: deadline {self.deadline} "
                f"before arrival {self.arrival}"
            )

    @property
    def synthetic_payload(self) -> bool:
        return self.pairs_new is None

    def policy(self) -> ResiliencePolicy:
        return DISABLED if self.no_resilience else ResiliencePolicy()

    def fault_plan(self) -> FaultPlan | None:
        if self.chaos is None:
            return None
        if isinstance(self.chaos, FaultPlan):
            return self.chaos
        return FaultPlan.from_seed(self.chaos)

    def order_key(self) -> tuple:
        """Fast-lane dispatch order: priority first, then deadline urgency,
        then arrival (FIFO among equals)."""
        return (
            -int(self.priority),
            float("inf") if self.deadline is None else float(self.deadline),
            float(self.arrival),
            self.request_id,
        )


@dataclass
class PredictResponse:
    """The fast lane's answer to one :class:`PredictRequest`."""

    request_id: str
    status: str = STATUS_OK
    labels: np.ndarray | None = None
    embedding: np.ndarray | None = None

    # -- service facts ---------------------------------------------------
    #: the fitted model was already cached (no cold fit charged)
    model_hit: bool = False
    #: this request triggered the cold fit that populated the cache
    cold_fit: bool = False
    #: analytic transfer plan vs device meter (None = no clean device pass)
    ledger_ok: bool | None = None
    n_new: int = 0

    # -- simulated clock breakdown ---------------------------------------
    arrival: float = 0.0
    start: float = 0.0
    completed: float = 0.0
    deadline: float | None = None
    priority: int = 0

    resilience: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def latency(self) -> float:
        """End-to-end simulated seconds from arrival to completion."""
        return max(0.0, self.completed - self.arrival)

    @property
    def service_time(self) -> float:
        """Simulated seconds between dispatch and completion."""
        return max(0.0, self.completed - self.start)

    @property
    def deadline_met(self) -> bool | None:
        """None when no deadline was set or the request was not served."""
        if self.deadline is None or not self.ok:
            return None
        return self.completed <= self.deadline


@dataclass
class ClusterResponse:
    """The service's answer to one request, with observability attached."""

    request_id: str
    status: str = STATUS_OK
    #: -1-filled labels on the original node indexing (None if not served)
    labels: np.ndarray | None = None
    eigenvalues: np.ndarray | None = None
    embedding: np.ndarray | None = None

    # -- service facts ---------------------------------------------------
    cache_hit: bool = False
    batch_id: int | None = None
    batch_size: int = 0

    # -- simulated clock breakdown ---------------------------------------
    arrival: float = 0.0
    #: when the batch containing this request started forming
    batch_start: float = 0.0
    #: when this request's last stage finished on its lane
    completed: float = 0.0

    timings: StageTimings | None = None
    resilience: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def queue_wait(self) -> float:
        """Seconds between arrival and the start of the serving batch."""
        return max(0.0, self.batch_start - self.arrival)

    @property
    def latency(self) -> float:
        """End-to-end simulated seconds from arrival to completion."""
        return max(0.0, self.completed - self.arrival)

    @property
    def service_time(self) -> float:
        """Simulated seconds between batch start and completion."""
        return max(0.0, self.completed - self.batch_start)
