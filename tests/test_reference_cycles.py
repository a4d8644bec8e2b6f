"""Every public entry point frees its state by reference counting.

A call that leaves a reference cycle behind keeps everything hanging off
that cycle (timelines, models, device arrays) alive until the cyclic
collector happens to run; a process that makes several calls in a row
then holds all of their state at once.  Each cell runs one entry point
with the collector disabled, drops the result, and asserts that a
collection finds nothing to free.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import DISABLED, FaultPlan, FaultSpec, ResiliencePolicy
from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.errors import ReproError
from repro.serve.persist import PersistentStore
from repro.serve.request import (
    DEFAULT_REQUEST_CONFIG,
    ClusterRequest,
    PredictRequest,
)
from repro.serve.service import (
    ClusterService,
    ServiceConfig,
    run_sequential,
    verify_against_cold,
)


def cyclic_garbage(fn) -> int:
    """Objects a collection finds after ``fn()`` ran with the collector off.

    ``fn``'s return value is dropped before the collection, so a
    non-zero count is state that only the cyclic collector could free.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def assert_freed_by_refcount(fn) -> None:
    found = cyclic_garbage(fn)
    assert found == 0, f"{found} objects left in reference cycles"


@pytest.fixture(scope="module")
def graph():
    from repro.datasets.sbm import stochastic_block_model
    from repro.sparse.construct import from_edge_list

    rng = np.random.default_rng(11)
    edges, _ = stochastic_block_model([30] * 4, p_in=0.5, p_out=0.02, rng=rng)
    return from_edge_list(edges, n_nodes=120)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    k, per, d = 3, 30, 5
    centers = rng.standard_normal((k, d)) * 9.0
    X = centers[np.repeat(np.arange(k), per)] + 0.3 * rng.standard_normal(
        (k * per, d)
    )
    n = k * per
    edges = np.asarray(
        [(i, j) for i in range(n) for j in range(i + 1, n)
         if i // per == j // per or rng.random() < 0.02],
        dtype=np.int64,
    )
    return X, edges


#: a persistent fault on the Laplacian's scaling kernel: the stage ends
#: on the host implementation
_CPU_FALLBACK = FaultSpec(
    site="cuda.kernel:ScaleElements*", fault="transient", prob=1.0,
    max_fires=None,
)
#: one device OOM in the similarity stage: a smaller rung succeeds
_DEGRADE = FaultSpec(site="cuda.alloc", fault="oom", nth=1, stage="similarity")


def _fit(graph, points, on="graph", **knobs):
    """One fit of the graph (k=4) or of the points (k=3)."""
    if on == "graph":
        est = SpectralClustering(n_clusters=4, seed=0, **knobs)
        return est.fit(graph=graph)
    est = SpectralClustering(n_clusters=3, seed=0, **knobs)
    return est.fit(X=points[0], edges=points[1])


#: cell -> the keyword arguments of one ``_fit``, built fresh for each
#: call (a fault plan counts the faults it has fired)
FIT_CELLS = {
    "graph": lambda: {},
    "points": lambda: {"on": "points"},
    "compressive": lambda: {"embedding": "compressive"},
    "devices2": lambda: {"devices": 2},
    "host-residency": lambda: {"eig_residency": "host"},
    "fp32": lambda: {"precision": "fp32"},
    "chaos5-resilient": lambda: {"chaos": 5},
    "oom-degrade": lambda: {"on": "points", "chaos": FaultPlan([_DEGRADE])},
    "cpu-fallback": lambda: {"chaos": FaultPlan([_CPU_FALLBACK])},
    "chaos5-disabled": lambda: {"chaos": 5, "resilience": DISABLED},
    "no-fallback-reraise": lambda: {
        "chaos": FaultPlan([_CPU_FALLBACK]),
        "resilience": ResiliencePolicy(cpu_fallback=False),
    },
}
#: cells whose fit ends in a typed error
RAISES = {"chaos5-disabled", "no-fallback-reraise"}


@pytest.mark.parametrize("cell", sorted(FIT_CELLS))
def test_fit(cell, graph, points):
    def call():
        if cell in RAISES:
            with pytest.raises(ReproError):
                _fit(graph, points, **FIT_CELLS[cell]())
        else:
            _fit(graph, points, **FIT_CELLS[cell]())

    assert_freed_by_refcount(call)


def test_resilience_paths_are_taken(graph, points):
    """The chaos cells reach the paths they name."""
    degraded = _fit(graph, points, **FIT_CELLS["oom-degrade"]())
    assert degraded.resilience["similarity"]["degrade_steps"] >= 1
    fallback = _fit(graph, points, **FIT_CELLS["cpu-fallback"]())
    assert fallback.resilience["laplacian"]["fallback"] == "cpu"
    responses, _ = ClusterService().process(_trace(graph, chaos_every=3))
    assert any(
        rec["degrade_steps"] for resp in responses
        for rec in (getattr(resp, "resilience", None) or {}).values()
    )


@pytest.fixture(scope="module")
def point_model(points):
    X, edges = points
    return SpectralClustering(n_clusters=3, seed=0).fit(X=X, edges=edges).model


@pytest.mark.parametrize("on_device", [False, True], ids=["host", "device"])
def test_predict(on_device, point_model, points):
    X, _ = points
    picks = np.array([0, 40, 80])
    pairs = np.array([[0, 1], [1, 41], [2, 81]], dtype=np.int64)

    def call():
        point_model.predict(
            X_new=X[point_model.kept[picks]], pairs_new=pairs,
            device=Device() if on_device else None,
        )

    assert_freed_by_refcount(call)


def test_apply_delta(graph):
    def call():
        model = SpectralClustering(n_clusters=4, seed=0).fit(graph=graph).model
        a, b = model.kept[0], model.kept[1]
        model.apply_delta(
            edges_added=np.array([[a, b]]), weights_added=1e-4,
            device=Device(),
        )

    assert_freed_by_refcount(call)


def _trace(graph, chaos_every=0):
    """Two fit specs, repeated, plus predicts against one of them.  A
    chaos fit gets a solver seed of its own, so it misses the cache and
    its faults fire in a solve and a k-means (a hit runs neither)."""

    def chaos(i):
        return chaos_every and (i + 1) % chaos_every == 0

    fits = [
        ClusterRequest(
            request_id=f"r{i}", arrival=0.001 * i, graph=graph,
            config=replace(
                DEFAULT_REQUEST_CONFIG, n_clusters=3 + i % 2,
                seed=i if chaos(i) else 0,
            ),
            chaos=(1010 + i) if chaos(i) else None,
        )
        for i in range(6)
    ]
    predicts = [
        PredictRequest(
            request_id=f"p{i}", arrival=0.0105 + 0.001 * i, fit=fits[0],
            n_new=4,
        )
        for i in range(2)
    ]
    return fits + predicts


SERVE_CELLS = {
    "default": ({}, 0),
    "n_devices2": ({"n_devices": 2}, 0),
    "cache_dir": (None, 0),
    "chaos_every3": ({}, 3),
    "no-preemption": ({"preemption": False}, 0),
}


@pytest.mark.parametrize("cell", sorted(SERVE_CELLS))
def test_service_process(cell, graph, tmp_path):
    knobs, chaos_every = SERVE_CELLS[cell]
    if knobs is None:
        knobs = {"cache_dir": str(tmp_path / "store")}
    trace = _trace(graph, chaos_every)
    assert_freed_by_refcount(
        lambda: ClusterService(ServiceConfig(**knobs)).process(trace)
    )


def test_run_sequential(graph):
    trace = _trace(graph)[:4]
    assert_freed_by_refcount(lambda: run_sequential(trace))


def test_verify_against_cold(graph):
    trace = _trace(graph)[:3]
    responses, _ = ClusterService().process(trace)
    assert_freed_by_refcount(
        lambda: verify_against_cold(responses, trace)
    )


def test_persistent_store_round_trip(graph, tmp_path):
    """Save then load adds no cycle beyond numpy's own archive reads.

    numpy parses each ``.npy`` member header with ``ast.literal_eval``,
    which on some Python versions leaves a few closures in a cycle per
    call; reading every member of the same archive with ``np.load``
    measures that share, and the store may add nothing to it.
    """
    model = SpectralClustering(n_clusters=4, seed=0).fit(graph=graph).model
    key = ("model", "fp", 4)
    store = PersistentStore(tmp_path)

    def round_trip():
        store.save(key, model)
        assert store.load(key) is not None

    def read_members():
        with np.load(store.path_for(key), allow_pickle=False) as npz:
            for name in npz.files:
                npz[name]

    found = cyclic_garbage(round_trip)
    assert found == cyclic_garbage(read_members)
