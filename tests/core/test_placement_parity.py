"""Parity matrix over ``placement x embedding x precision``.

The drivers (IRLM, power iteration, compressive probe + filter, fp64
refinement) never know where the operator product ran: the host round
trip, the device-resident loop, the row-partitioned two-device loop and
the CPU fallback all perform the same arithmetic.  Every cell must
reproduce the device-resident cell's labels and embedding bit for bit,
and the compressive cells must close their analytic byte plan against
the traffic meter.
"""

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.core.pipeline import SpectralClustering

PLACEMENTS = ("device", "host", "devices2", "fallback")
EMBEDDINGS = ("lanczos", "power", "compressive")
PRECISIONS = ("fp64", "fp32")


def _placement_kwargs(placement: str) -> dict:
    if placement == "host":
        return {"eig_residency": "host"}
    if placement == "devices2":
        return {"devices": 2}
    if placement == "fallback":
        # every sparse kernel in the eigensolver stage dies: the solve
        # exhausts its resumes and finishes host-side
        return {"chaos": FaultPlan([
            FaultSpec(site="cusparse.*", fault="transient", prob=1.0,
                      max_fires=None, stage="eigensolver")
        ])}
    return {}


def _fit(graph, placement, embedding, precision):
    return SpectralClustering(
        n_clusters=6, seed=0, embedding=embedding, precision=precision,
        **_placement_kwargs(placement),
    ).fit(graph=graph)


_DEVICE_CELLS: dict = {}


def _device_cell(graph, embedding, precision):
    key = (embedding, precision)
    if key not in _DEVICE_CELLS:
        _DEVICE_CELLS[key] = _fit(graph, "device", embedding, precision)
    return _DEVICE_CELLS[key]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("embedding", EMBEDDINGS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_placement_matches_device_cell(
    sbm_graph, placement, embedding, precision
):
    W, _ = sbm_graph
    ref = _device_cell(W, embedding, precision)
    res = _fit(W, placement, embedding, precision)
    assert np.array_equal(res.labels, ref.labels)
    assert res.embedding.tobytes() == ref.embedding.tobytes()
    if placement == "fallback":
        assert res.eig_stats["fallback"] == "cpu"
    if embedding == "compressive":
        assert res.eig_stats["ledger_bytes"] == res.eig_stats["spmv_bytes"]
