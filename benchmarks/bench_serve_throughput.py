"""Serving-layer throughput: batched + cached service vs sequential.

The serving claim in ISSUE terms: on a replayed workload with repeated
graph fingerprints, micro-batching (shared operator builds and Lanczos
solves) plus the embedding cache must deliver at least 2x the simulated
throughput of a one-at-a-time service, while returning bit-identical
responses.  This bench measures the simulated axis on the standard
synthetic trace and pins the speedup; the wall-time axis rides along via
pytest-benchmark on the batched path.
"""

import gc

import numpy as np
import pytest

from repro.serve import (
    ClusterService,
    ServiceConfig,
    run_sequential,
    synthetic_trace,
)

N_REQUESTS = 16


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(n_requests=N_REQUESTS, mean_interarrival=0.001,
                           seed=0)


@pytest.fixture(scope="module")
def served(trace):
    """One batched+cached service run, shared by the module's tests."""
    service = ClusterService(ServiceConfig(
        max_batch=8, cache_entries=32, n_devices=1, streams_per_device=2,
        queue_capacity=64,
    ))
    return service.process(trace)


@pytest.fixture(scope="module")
def sequential(trace):
    return run_sequential(trace)


def _replays(trace):
    """The batched and the one-at-a-time reports of ``trace``; the
    services and their responses are dropped on return."""
    service = ClusterService(ServiceConfig(
        max_batch=8, cache_entries=32, n_devices=1, streams_per_device=2,
    ))
    _, rep = service.process(trace)
    _, seq = run_sequential(trace)
    return rep, seq


def serve_summary(trace=None) -> dict:
    """Machine-readable serving summary (consumed by BENCH_regression.json).

    ``cyclic_garbage_objects`` is what a collection finds after both
    replays ran with the collector disabled: state that reference
    counting could not free once the services were dropped, and that a
    process replaying back to back would hold until the collector runs.
    """
    trace = trace if trace is not None else synthetic_trace(
        n_requests=N_REQUESTS, mean_interarrival=0.001, seed=0
    )
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep, seq = _replays(trace)
        cyclic = gc.collect()
    finally:
        if enabled:
            gc.enable()
    return {
        "cyclic_garbage_objects": cyclic,
        "n_requests": len(trace),
        "makespan_s": rep.makespan,
        "sequential_makespan_s": seq.makespan,
        "speedup": seq.makespan / rep.makespan,
        "throughput_rps": rep.throughput_rps,
        "sequential_throughput_rps": seq.throughput_rps,
        "cache_hit_rate": rep.cache["hit_rate"],
        "mean_batch_size": rep.batches["mean_batch_size"],
        "latency_p95_s": rep.latency.p95,
    }


def test_speedup_at_least_2x(served, sequential):
    _, rep = served
    _, seq = sequential
    assert rep.n_ok == seq.n_ok == N_REQUESTS
    speedup = seq.makespan / rep.makespan
    assert speedup >= 2.0, f"batched+cached service only {speedup:.2f}x"


def test_cache_and_batching_engaged(served):
    _, rep = served
    assert rep.n_cache_hits > 0
    assert rep.batches["max_batch"] > 1


def test_fast_path_is_bit_identical(served, sequential):
    fast, _ = served
    slow, _ = sequential
    for a, b in zip(fast, slow):
        assert a.ok and b.ok
        assert np.array_equal(a.labels, b.labels), a.request_id
        assert np.array_equal(a.embedding, b.embedding), a.request_id


def test_report_table(served, write_table):
    _, rep = served
    write_table("serve_throughput", rep.format_report())


def test_serve_wall_time(benchmark, trace):
    """Wall-clock cost of the batched service path (regression axis)."""

    def run():
        service = ClusterService(ServiceConfig(max_batch=8, cache_entries=32))
        return service.process(trace)

    responses, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.ok for r in responses)
