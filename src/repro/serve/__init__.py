"""repro.serve — clustering-as-a-service on the simulated platform.

A replay-driven serving layer over the spectral clustering pipeline:
bounded admission, micro-batching of fingerprint-compatible requests,
an LRU cache of fitted models with bit-identical hits, shared by fit and
predict requests (optionally spilled to an on-disk cross-process store),
a predict fast lane that serves out-of-sample requests from the cached
models under deadline/priority dispatch with
EDF preemption at stage boundaries, and a multi-stream / multi-device
scheduler that charges queueing and overlap to the simulated clock.  See
``docs/serving.md`` for the model.
"""

from repro.serve.batcher import (
    Batch,
    BatcherStats,
    MicroBatcher,
)
from repro.serve.cache import CacheStats, EmbeddingCache
from repro.serve.fingerprint import (
    embedding_key,
    graph_fingerprint,
    operator_key,
    points_fingerprint,
)
from repro.serve.metrics import (
    LatencyStats,
    ServiceReport,
    build_report,
    percentile,
)
from repro.serve.persist import FORMAT_VERSION, PersistentStore, StoreStats
from repro.serve.queue import AdmissionQueue, QueueStats
from repro.serve.request import (
    DEFAULT_REQUEST_CONFIG,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    ClusterRequest,
    ClusterResponse,
    PredictRequest,
    PredictResponse,
)
from repro.serve.scheduler import (
    CTX_SWITCH_S,
    ScheduledUnit,
    SchedulerStats,
    StreamScheduler,
)
from repro.serve.service import (
    ClusterService,
    ServiceConfig,
    run_sequential,
    verify_against_cold,
)
from repro.serve.traceio import (
    predict_from_dict,
    predict_to_dict,
    read_trace,
    request_from_dict,
    request_to_dict,
    synthetic_predict_trace,
    synthetic_trace,
    write_trace,
)

__all__ = [
    "AdmissionQueue",
    "Batch",
    "BatcherStats",
    "CacheStats",
    "ClusterRequest",
    "ClusterResponse",
    "ClusterService",
    "CTX_SWITCH_S",
    "DEFAULT_REQUEST_CONFIG",
    "EmbeddingCache",
    "FORMAT_VERSION",
    "LatencyStats",
    "MicroBatcher",
    "PersistentStore",
    "PredictRequest",
    "PredictResponse",
    "QueueStats",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ScheduledUnit",
    "SchedulerStats",
    "ServiceConfig",
    "ServiceReport",
    "StoreStats",
    "StreamScheduler",
    "build_report",
    "embedding_key",
    "graph_fingerprint",
    "operator_key",
    "percentile",
    "points_fingerprint",
    "predict_from_dict",
    "predict_to_dict",
    "read_trace",
    "request_from_dict",
    "request_to_dict",
    "run_sequential",
    "synthetic_predict_trace",
    "synthetic_trace",
    "verify_against_cold",
    "write_trace",
]
