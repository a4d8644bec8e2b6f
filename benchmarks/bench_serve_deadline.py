"""Deadline-driven serving: preemption and the disk cache.

Two serving-tier claims on the simulated clock, each measured against
its own observational baseline on the identical trace:

* **preemption** — on a deadline-heavy workload (background fit batches
  plus movable background predicts, with urgent warm predicts landing
  mid-burst) preemptive EDF converts every baseline miss into a meet
  (>=30% miss reduction gated) at equal throughput, and the arithmetic
  is bit-identical because preemption only rewrites placement;
* **persistence** — a restarted service warms from the on-disk cache:
  zero cold fits the second time around, bit-identical labels.

``serve_deadline_summary()`` is consumed by ``bench_regression.py`` into
the ``serve_deadline`` section of ``BENCH_regression.json``, which
``check_regression.py`` gates in CI.
"""

import tempfile
from dataclasses import replace

import numpy as np
import pytest

from repro.datasets.sbm import stochastic_block_model
from repro.serve import (
    DEFAULT_REQUEST_CONFIG,
    ClusterService,
    ClusterRequest,
    PredictRequest,
    ServiceConfig,
)
from repro.sparse.construct import from_edge_list

_K4 = replace(DEFAULT_REQUEST_CONFIG, n_clusters=4)

N_FITS = 6
N_BG_PREDICTS = 8
MIN_MISS_REDUCTION = 0.30
MIN_THROUGHPUT_RATIO = 0.95


def _graph():
    rng = np.random.default_rng(7)
    sizes = [30] * 4
    edges, _ = stochastic_block_model(sizes, p_in=0.6, p_out=0.02, rng=rng)
    return from_edge_list(edges, n_nodes=sum(sizes))


def _config(preemption=True, cache_dir=None):
    return ServiceConfig(
        n_devices=1, streams_per_device=1, max_batch=4, cache_entries=32,
        preemption=preemption, cache_dir=cache_dir,
    )


def _fit_spec(graph):
    return ClusterRequest(
        request_id="fitspec", arrival=0.0, graph=graph, config=_K4
    )


def _background(graph, shared):
    """One model-warming predict, then a stream of fit batches whose
    k-means tails are the preemption victims.  Each fit has a solver
    seed of its own: a fit of the warmed spec would be a cache hit,
    which runs no k-means and so offers no victim."""
    trace = [PredictRequest(request_id="pwarm", fit=shared, arrival=0.0)]
    for i in range(N_FITS):
        trace.append(ClusterRequest(
            request_id=f"f{i}", arrival=0.005 + i * 1e-4,
            graph=graph, config=replace(_K4, seed=i + 1),
        ))
    return trace


def _deadline_trace(graph, shared):
    """The deadline-heavy workload, calibrated by a probe run.

    A probe (preemption off) locates the k-means spans and the warm
    predict duration; urgent warm predicts are then timed to land inside
    busy windows with deadlines that FIFO placement misses but a
    boundary split or queue-jump insert meets.  Both runs (preemption on
    and off) replay this identical trace.
    """
    probe = ClusterService(_config(preemption=False))
    probe.process(_background(graph, shared))
    events = list(probe.scheduler.schedule.events)
    # the fits' k-means spans (the warming predict runs one of its own)
    kwin = sorted((e.start, e.end) for e in events if ":kmeans[f" in e.name)
    pdur = next(e.duration for e in events if e.name == "predict[pwarm]")
    fifo_free = max(e.end for e in events)

    trace = _background(graph, shared)
    # urgent predicts inside alternating k-means spans: a FIFO placement
    # queues behind the whole backlog, a split at the next Lloyd
    # boundary meets the deadline
    prev_end, n_urgent = 0.0, 0
    for i, (lo, hi) in enumerate(kwin):
        if i % 2 == 0:
            continue  # space the urgents so their placements stay apart
        arrival = max(lo + 0.25 * (hi - lo), prev_end)
        if arrival >= hi:
            continue
        fifo_end = fifo_free + (n_urgent + 1) * pdur
        trace.append(PredictRequest(
            request_id=f"u{i}", fit=shared, arrival=arrival,
            deadline=arrival + 0.5 * (fifo_end - arrival),
        ))
        prev_end = hi + pdur
        n_urgent += 1
    # a burst of movable no-deadline predicts, then an urgent
    # queue-jumper that inserts ahead of them
    t0 = fifo_free + N_BG_PREDICTS * pdur
    for b in range(N_BG_PREDICTS):
        trace.append(PredictRequest(
            request_id=f"bg{b}", fit=shared, arrival=t0,
        ))
    arrival = t0 + 1.5 * pdur
    trace.append(PredictRequest(
        request_id="uburst", fit=shared, arrival=arrival,
        deadline=arrival + 3.0 * pdur,
    ))
    return trace


def _labels_by_id(responses):
    return {
        r.request_id: (
            None if getattr(r, "labels", None) is None else r.labels.tobytes()
        )
        for r in responses
    }


def _preemption_section(graph, shared):
    trace = _deadline_trace(graph, shared)
    runs = {}
    for flag in (False, True):
        service = ClusterService(_config(preemption=flag))
        responses, report = service.process(trace)
        assert all(r.ok for r in responses), [
            (r.request_id, r.error) for r in responses if not r.ok
        ]
        runs[flag] = (responses, report)
    r_off, off = runs[False]
    r_on, on = runs[True]
    misses_off = off.predict["deadline_misses"]
    misses_on = on.predict["deadline_misses"]
    reduction = (
        (misses_off - misses_on) / misses_off if misses_off > 0 else 0.0
    )
    return {
        "n_requests": len(trace),
        "with_deadline": misses_off + off.predict["deadlines_met"],
        "min_miss_reduction": MIN_MISS_REDUCTION,
        "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
        "deadline_misses_baseline": misses_off,
        "deadline_misses_preemptive": misses_on,
        "miss_reduction": reduction,
        "preemptions": on.scheduler["preemptions"],
        "preemption_splits": on.scheduler["preemption_splits"],
        "preemption_inserts": on.scheduler["preemption_inserts"],
        "saved_misses": on.scheduler["saved_misses"],
        "ctx_switch_s": on.scheduler["ctx_switch_s"],
        "throughput_rps": on.throughput_rps,
        "baseline_throughput_rps": off.throughput_rps,
        "throughput_ratio": on.throughput_rps / off.throughput_rps,
        "labels_bit_identical": _labels_by_id(r_on) == _labels_by_id(r_off),
    }


def _persistence_section(graph, shared):
    trace = _background(graph, shared)
    with tempfile.TemporaryDirectory() as root:
        first_r, first = ClusterService(
            _config(cache_dir=root)
        ).process(trace)
        second_r, second = ClusterService(
            _config(cache_dir=root)
        ).process(trace)
    return {
        "disk_writes_first": first.cache["disk_writes"],
        "disk_bytes_written_first": first.cache["disk_bytes_written"],
        "disk_hits_restarted": second.cache["disk_hits"],
        "cold_fits_first": first.predict["cold_fits"],
        "cold_fits_restarted": second.predict["cold_fits"],
        "labels_bit_identical": (
            _labels_by_id(first_r) == _labels_by_id(second_r)
        ),
    }


_SUMMARY_CACHE: dict = {}


def serve_deadline_summary() -> dict:
    """Machine-readable deadline-tier summary for BENCH_regression.json."""
    if "summary" not in _SUMMARY_CACHE:
        graph = _graph()
        shared = _fit_spec(graph)
        _SUMMARY_CACHE["summary"] = {
            "preemption": _preemption_section(graph, shared),
            "persistence": _persistence_section(graph, shared),
        }
    return _SUMMARY_CACHE["summary"]


@pytest.fixture(scope="module")
def summary():
    return serve_deadline_summary()


def test_preemption_reduces_misses(summary):
    pre = summary["preemption"]
    assert pre["deadline_misses_baseline"] > 0, (
        "workload produced no baseline misses — nothing to save"
    )
    assert pre["miss_reduction"] >= MIN_MISS_REDUCTION, (
        f"preemption only cut misses by {pre['miss_reduction']:.0%} "
        f"({pre['deadline_misses_baseline']} -> "
        f"{pre['deadline_misses_preemptive']})"
    )
    assert pre["preemptions"] > 0
    assert pre["saved_misses"] > 0


def test_preemption_exercises_both_kinds(summary):
    pre = summary["preemption"]
    assert pre["preemption_splits"] > 0, "no boundary split fired"
    assert pre["preemption_inserts"] > 0, "no queue-jump insert fired"


def test_preemption_throughput_equal(summary):
    pre = summary["preemption"]
    assert pre["throughput_ratio"] >= MIN_THROUGHPUT_RATIO, (
        f"preemption cost {1 - pre['throughput_ratio']:.1%} throughput"
    )


def test_preemption_results_bit_identical(summary):
    assert summary["preemption"]["labels_bit_identical"] is True


def test_restart_warms_from_disk(summary):
    per = summary["persistence"]
    assert per["disk_writes_first"] > 0
    assert per["disk_hits_restarted"] > 0
    assert per["cold_fits_first"] > 0
    assert per["cold_fits_restarted"] == 0
    assert per["labels_bit_identical"] is True


def test_report_table(summary, write_table):
    pre = summary["preemption"]
    per = summary["persistence"]
    lines = [
        "deadline-driven serving",
        "=======================",
        f"misses baseline -> preemptive : "
        f"{pre['deadline_misses_baseline']} -> "
        f"{pre['deadline_misses_preemptive']} "
        f"({pre['miss_reduction']:.0%} reduction)",
        f"preemptions                   : {pre['preemptions']} "
        f"({pre['preemption_splits']} splits, "
        f"{pre['preemption_inserts']} inserts)",
        f"throughput ratio (on/off)     : {pre['throughput_ratio']:.3f}",
        f"restart disk hits             : {per['disk_hits_restarted']} "
        f"(cold fits {per['cold_fits_first']} -> "
        f"{per['cold_fits_restarted']})",
    ]
    write_table("serve_deadline", "\n".join(lines))


def test_serve_deadline_wall_time(benchmark):
    """Wall-clock cost of the deadline-heavy path (regression axis)."""
    graph = _graph()
    shared = _fit_spec(graph)
    trace = _deadline_trace(graph, shared)

    def run():
        return ClusterService(_config()).process(trace)

    responses, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.ok for r in responses)
