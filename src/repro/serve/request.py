"""Request/response records of the clustering service.

A :class:`ClusterRequest` names a workload either by *reference* (a
registered dataset + scale + generator seed — the JSONL-serializable form
used in replay traces) or by *value* (an in-memory graph or point set).
All estimator parameters ride on the request as one
:class:`~repro.core.config.ClusterConfig`, so any two requests are free
to differ in ``n_clusters``, seeds, tolerances, or chaos plans while
still sharing a graph.

A :class:`ClusterResponse` carries the clustering output plus the
service-side observability record: admission/queue/batch/cache facts and
the simulated latency breakdown the metrics report aggregates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.chaos.plan import FaultPlan
from repro.chaos.retry import DISABLED, ResiliencePolicy
from repro.core.config import ClusterConfig
from repro.core.pipeline import SpectralClustering
from repro.core.result import StageTimings
from repro.errors import RequestError
from repro.serve.fingerprint import (
    embedding_key,
    graph_fingerprint,
    operator_key,
    points_fingerprint,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

#: response lifecycle outcomes
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_FAILED = "failed"

#: the knobs a request gets unless it says otherwise: the estimator's
#: defaults except a two-way split and a 1e-8 eigensolver tolerance
DEFAULT_REQUEST_CONFIG = ClusterConfig(n_clusters=2, eig_tol=1e-8)


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

    #: the estimator knobs (:class:`~repro.core.config.ClusterConfig`)
    config: ClusterConfig = DEFAULT_REQUEST_CONFIG

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
            **asdict(self.config),
            device=device,
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
            return points_fingerprint(self.X, self.edges)
        raise RequestError(
            f"request {self.request_id!r} is by-reference; resolve the "
            "dataset before fingerprinting"
        )

    def operator_key(self, fingerprint: str) -> tuple:
        cfg = self.config
        return operator_key(fingerprint, cfg.operator, cfg.objective)

    def embedding_key(self, fingerprint: str) -> tuple:
        """The cache key of this fit, shared with every predict against
        it."""
        return embedding_key(fingerprint, self.config)


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

    # -- fault injection (its fit's units too, unless the fit spec has one)
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
    #: the fit's solve was already cached (no cold fit charged)
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
