"""Predict fast path: the fit-once-predict-many serving claim.

The acceptance shape of the predict tier, all on the simulated clock:

* a 90%-predict workload through the fast lane sustains >=3x the
  throughput of the all-cold-fit baseline (``run_sequential`` with the
  cache disabled pays one full fit per predict);
* a warm predict's service time sits >=100x below a cold fit's latency
  at the median;
* every audited predict transfer ledger equals the device meter exactly;
* a delta-forced refit reproduces a cold fit on the patched graph bit
  for bit, on every bench dataset.

``serve_predict_summary()`` is consumed by ``bench_regression.py`` into
the ``serve_predict`` section of ``BENCH_regression.json``, which
``check_regression.py`` gates in CI.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.datasets import load_dataset
from repro.serve import (
    ClusterService,
    ServiceConfig,
    run_sequential,
    synthetic_predict_trace,
)

from conftest import BENCH_SCALES

N_REQUESTS = 40
PREDICT_FRACTION = 0.9
MIN_THROUGHPUT_WIN = 3.0
MIN_WARM_COLD_RATIO = 100.0


def _trace():
    return synthetic_predict_trace(
        n_requests=N_REQUESTS, predict_fraction=PREDICT_FRACTION, seed=0,
    )


@pytest.fixture(scope="module")
def served():
    service = ClusterService(ServiceConfig(
        max_batch=8, cache_entries=32, n_devices=1, streams_per_device=2,
        queue_capacity=64,
    ))
    return service.process(_trace())


@pytest.fixture(scope="module")
def all_cold():
    """The no-serving-tier baseline: cache off, one lane, one at a time."""
    return run_sequential(_trace())


def _refit_parity(name: str, scale: float) -> dict:
    """Force a delta refit on one bench dataset; compare to a cold fit."""
    ds = load_dataset(name, scale=scale, seed=0)
    est = dict(n_clusters=ds.n_clusters, seed=0)
    if ds.graph is not None:
        res = SpectralClustering(**est).fit(graph=ds.graph)
    else:
        res = SpectralClustering(**est).fit(X=ds.points, edges=ds.edges)
    model = res.model
    picks = model.kept[:6]
    big = np.column_stack([picks[:3], picks[3:]])
    weight, out = 10.0, None
    for _ in range(12):  # escalate until the drift bound crosses the gap
        out = model.apply_delta(edges_added=big, weights_added=weight)
        if out.refit:
            break
        weight *= 10.0
    cold = SpectralClustering(**asdict(model.config)).fit(graph=model.graph)
    identical = bool(
        out.refit
        and np.array_equal(
            out.labels[model.kept], cold.labels[cold.model.kept]
        )
    )
    return {
        "n": int(ds.n),
        "k": int(ds.n_clusters),
        "refit_triggered": bool(out.refit),
        "labels_bit_identical": identical,
    }


def serve_predict_summary() -> dict:
    """Machine-readable predict-tier summary for BENCH_regression.json."""
    service = ClusterService(ServiceConfig(
        max_batch=8, cache_entries=32, n_devices=1, streams_per_device=2,
    ))
    _, rep = service.process(_trace())
    _, cold = run_sequential(_trace())
    warm_p50 = rep.predict["warm_service_s"]["p50"]
    cold_p50 = rep.predict["cold_latency_s"]["p50"]
    return {
        "n_requests": N_REQUESTS,
        "predict_fraction": PREDICT_FRACTION,
        "min_throughput_win": MIN_THROUGHPUT_WIN,
        "min_warm_cold_ratio": MIN_WARM_COLD_RATIO,
        "throughput_rps": rep.throughput_rps,
        "all_cold_throughput_rps": cold.throughput_rps,
        "throughput_win": rep.throughput_rps / cold.throughput_rps,
        "model_hits": rep.predict["model_hits"],
        "cold_fits": rep.predict["cold_fits"],
        "warm_predict_p50_s": warm_p50,
        "cold_fit_p50_s": cold_p50,
        "warm_cold_ratio": cold_p50 / warm_p50 if warm_p50 > 0 else 0.0,
        "ledger_checked": rep.predict["ledger_checked"],
        "ledger_mismatches": rep.predict["ledger_mismatches"],
        "deadline_misses": rep.predict["deadline_misses"],
        "refit_parity": {
            name: _refit_parity(name, scale)
            for name, scale in sorted(BENCH_SCALES.items())
        },
    }


def test_all_requests_served(served):
    responses, rep = served
    assert all(r.ok for r in responses), [
        (r.request_id, r.error) for r in responses if not r.ok
    ]
    assert rep.predict["total"] == round(N_REQUESTS * PREDICT_FRACTION)


def test_throughput_win_at_least_3x(served, all_cold):
    _, rep = served
    _, cold = all_cold
    win = rep.throughput_rps / cold.throughput_rps
    assert win >= MIN_THROUGHPUT_WIN, (
        f"predict-heavy mix only {win:.2f}x over the all-cold baseline"
    )


def test_warm_predict_100x_below_cold_fit(served):
    _, rep = served
    warm = rep.predict["warm_service_s"]["p50"]
    cold = rep.predict["cold_latency_s"]["p50"]
    assert cold >= MIN_WARM_COLD_RATIO * warm, (
        f"warm p50 {warm:.6f}s vs cold p50 {cold:.6f}s: "
        f"only {cold / warm:.1f}x"
    )


def test_every_ledger_exact(served):
    _, rep = served
    assert rep.predict["ledger_checked"] > 0
    assert rep.predict["ledger_mismatches"] == 0


def test_refit_parity_on_bench_datasets():
    for name, scale in sorted(BENCH_SCALES.items()):
        parity = _refit_parity(name, scale)
        assert parity["refit_triggered"], name
        assert parity["labels_bit_identical"], name


def test_report_table(served, write_table):
    _, rep = served
    write_table("serve_predict", rep.format_report())


def test_serve_predict_wall_time(benchmark):
    """Wall-clock cost of the predict-heavy path (regression axis)."""

    def run():
        service = ClusterService(ServiceConfig(max_batch=8, cache_entries=32))
        return service.process(_trace())

    responses, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.ok for r in responses)
