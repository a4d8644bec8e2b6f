"""Fixtures for the serving-layer tests: small by-value workloads."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.datasets.sbm import stochastic_block_model
from repro.serve.request import (
    DEFAULT_REQUEST_CONFIG,
    ClusterRequest,
    PredictRequest,
)
from repro.sparse.construct import from_edge_list


@pytest.fixture
def small_graph(rng):
    """A 4-community SBM graph small enough for many service runs."""
    sizes = [25] * 4
    edges, _ = stochastic_block_model(sizes, p_in=0.6, p_out=0.02, rng=rng)
    return from_edge_list(edges, n_nodes=sum(sizes))


@pytest.fixture
def other_graph(rng):
    """A second, structurally different graph (distinct fingerprint)."""
    sizes = [20] * 3
    edges, _ = stochastic_block_model(sizes, p_in=0.7, p_out=0.03, rng=rng)
    return from_edge_list(edges, n_nodes=sum(sizes))


@pytest.fixture
def make_request(small_graph):
    """Factory for by-value requests against the shared small graph;
    keyword arguments naming a ClusterConfig field set that knob."""
    counter = {"n": 0}
    knob_names = {f.name for f in fields(ClusterConfig)}

    def factory(arrival=0.0, graph=None, **kw):
        counter["n"] += 1
        knobs = {"n_clusters": 4}
        knobs.update({k: kw.pop(k) for k in knob_names & set(kw)})
        return ClusterRequest(
            request_id=kw.pop("request_id", f"q{counter['n']:03d}"),
            arrival=arrival,
            graph=graph if graph is not None else small_graph,
            config=replace(DEFAULT_REQUEST_CONFIG, **knobs),
            **kw,
        )

    return factory


@pytest.fixture
def make_predict(make_request):
    """Factory for synthetic-payload predicts sharing one fit spec."""
    counter = {"n": 0}
    shared = {}

    def factory(arrival=0.0, fit=None, **kw):
        counter["n"] += 1
        if fit is None:
            fit = shared.setdefault(
                "fit", make_request(request_id="fitspec")
            )
        return PredictRequest(
            request_id=kw.pop("request_id", f"p{counter['n']:03d}"),
            fit=fit,
            arrival=arrival,
            **kw,
        )

    return factory
