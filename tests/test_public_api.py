"""Public API surface contract: exports resolve, carry docs, and the
advertised entry points exist."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.cuda",
    "repro.cublas",
    "repro.cusparse",
    "repro.thrust",
    "repro.sparse",
    "repro.linalg",
    "repro.graph",
    "repro.kmeans",
    "repro.baselines",
    "repro.datasets",
    "repro.metrics",
    "repro.bench",
    "repro.hw",
    "repro.serve",
]


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
def test_all_exports_resolve(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__, f"{modname} lacks a module docstring"
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name, None)
        assert obj is not None, f"{modname}.{name} in __all__ but missing"


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
def test_public_callables_documented(modname):
    mod = importlib.import_module(modname)
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{modname}.{name} lacks a docstring"


def test_top_level_surface():
    import repro

    assert repro.__version__
    assert callable(repro.SpectralClustering)


def test_estimator_signature_stability():
    """The documented constructor arguments exist (downstream code relies
    on keyword names): each is a named parameter or a ClusterConfig field
    the constructor accepts by keyword."""
    import dataclasses

    import repro

    params = inspect.signature(repro.SpectralClustering).parameters
    knobs = {
        f.name: f.default for f in dataclasses.fields(repro.ClusterConfig)
    }
    for expected in (
        "n_clusters", "operator", "objective", "m", "eig_tol",
        "kmeans_max_iter", "seed", "device",
    ):
        assert expected in params or expected in knobs, expected
        if expected in knobs and expected != "n_clusters":
            est = repro.SpectralClustering(2, **{expected: knobs[expected]})
            assert getattr(est.config, expected) == knobs[expected]


def test_fit_signature_stability():
    import repro

    params = inspect.signature(repro.SpectralClustering.fit).parameters
    assert {"X", "edges", "graph"} <= set(params)


#: the exact export table of each library layer, so that re-adding an
#: alternate implementation is a deliberate edit here
PINNED_SURFACES = {
    "repro": {
        "ClusterConfig", "ClusteringResult", "ReproError",
        "SpectralClustering", "StageTimings", "__version__",
    },
    "repro.core": {
        "ApplyDeltaResult", "ClusterConfig", "ClusteringResult", "EigStats",
        "FittedSpectralModel", "PredictResult",
        "SpectralClustering", "StageTimings", "hybrid_eigensolver",
    },
    "repro.graph": {
        "apply_edge_delta", "build_similarity_device",
        "build_similarity_graph", "connected_components",
        "cross_correlation", "degrees", "device_rw_normalize",
        "device_shifted_laplacian", "device_sym_normalize",
        "epsilon_neighbors", "epsilon_neighbors_grid", "laplacian",
        "remove_isolated", "rw_normalized_adjacency",
        "sym_normalized_adjacency",
    },
    "repro.linalg": {
        "IRLMResult", "LanczosCheckpoint", "LanczosState", "MatvecRequest",
        "RCIStatus", "SymEigProblem", "TransferLedger", "dgks_orthogonalize",
        "eigh_tridiagonal", "eigsh", "givens", "irlm_generator",
        "normalize_columns",
    },
    "repro.sparse": {
        "COOMatrix", "CSRMatrix", "diags", "from_edge_list", "identity",
        "random_sparse", "row_sums",
    },
    "repro.baselines": {
        "InterpreterProfile", "MATLAB_2015A", "PYTHON_27", "ReferenceResult",
        "baseline_stages", "eigensolver_time", "kmeans_time",
        "reference_spectral_clustering", "similarity_serial_time",
        "similarity_vectorized_time",
    },
    "repro.cublas": {"gemm"},
    "repro.thrust": {
        "copy", "exclusive_scan", "inclusive_scan", "lower_bound",
        "reduce_by_key", "sort_by_key", "transform",
    },
    "repro.cusparse": {
        "CSRShard", "DeviceCOO", "DeviceCSR", "DeviceELL", "FormatDecision",
        "PartitionedCSR", "RowStats", "autotune_format",
        "autotune_spmm_format", "convert_for_spmv", "coo2csr", "coo_to_device",
        "coomv", "csr2coo", "csr_to_device", "csr_to_ell", "csrmm", "csrmv",
        "ellmm", "ellmv", "partition_csr", "row_stats", "spmm_any",
        "spmv_any", "spmv_partitioned",
    },
    "repro.serve": {
        "AdmissionQueue", "Batch", "BatcherStats", "CTX_SWITCH_S",
        "CacheStats", "ClusterRequest", "ClusterResponse", "ClusterService",
        "DEFAULT_REQUEST_CONFIG", "EmbeddingCache", "FORMAT_VERSION",
        "LatencyStats", "MicroBatcher", "PersistentStore", "PredictRequest",
        "PredictResponse", "QueueStats", "STATUS_FAILED", "STATUS_OK",
        "STATUS_REJECTED", "ScheduledUnit", "SchedulerStats",
        "ServiceConfig", "ServiceReport", "StoreStats", "StreamScheduler",
        "build_report", "embedding_key", "graph_fingerprint",
        "operator_key", "percentile", "points_fingerprint",
        "predict_from_dict", "predict_to_dict", "read_trace",
        "request_from_dict", "request_to_dict", "run_sequential",
        "synthetic_predict_trace", "synthetic_trace", "verify_against_cold",
        "write_trace",
    },
}


@pytest.mark.parametrize("modname", sorted(PINNED_SURFACES))
def test_library_surface_is_pinned(modname):
    exported = importlib.import_module(modname).__all__
    assert sorted(exported) == sorted(PINNED_SURFACES[modname])


def test_serving_knobs_are_pinned():
    """The service and scheduler take exactly these knobs; the
    context-switch cost is the constant ``CTX_SWITCH_S``."""
    import dataclasses

    from repro.serve import ServiceConfig, StreamScheduler

    assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
        "queue_capacity", "max_batch", "n_devices", "streams_per_device",
        "cache_entries", "spec", "pcie", "preemption", "cache_dir",
    ]
    assert list(inspect.signature(StreamScheduler).parameters) == [
        "n_devices", "streams_per_device", "spec", "pcie", "preemption",
    ]
