"""The benchmark's workloads: inputs from a seed, one op, output checks.

Each workload has a ``setup(seed)`` that builds the inputs through the
public API (``load_dataset``, ``synthetic_predict_trace``) and a
``run(inputs, seed)`` that performs one op and returns an :class:`Op`.
The library only ever sees the generated inputs and the estimator or
service configuration fixed here.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

#: fit-dti caps Lloyd at 25 iterations.  At the default cap (300) the
#: iteration count ranges 26-123 across seeds, which alone moves one
#: op's wall time by 1.5x between seeds; 25 sits below every seed's
#: natural count, so every seed does the same k-means work.
DTI_KMEANS_MAX_ITER = 25

SERVE_REQUESTS = 400
SERVE_PREDICT_FRACTION = 0.5
#: mean inter-arrival gap of the open-loop trace (the generator default)
SERVE_GAP_S = 0.002
#: p95 limit on modeled request latency for ``max_rps_at_slo``
SLO_P95_S = 0.010
#: ``max_rps_at_slo`` bisects log2(rate / default rate) over [0, 1.5] ...
RPS_SEARCH_MAX_LOG2 = 1.5
#: ... in this many replays (resolution 2**(1.5/8), about 14%)
RPS_SEARCH_STEPS = 3


@dataclass
class Op:
    """One op's outcome: timings, output digest and checks."""

    wall_s: float
    modeled_s: float
    digest: str
    ari: float
    #: units of work attempted and failed (fits, or serve requests)
    attempted: int = 1
    failed: int = 0
    #: human-readable reasons for every failed check
    problems: list = field(default_factory=list)
    #: workload-specific end-to-end figures (printed, not in the JSON gate)
    extra: dict = field(default_factory=dict)
    #: per-layer facts read off the op's result (cuda/serve/modeled)
    layer: dict = field(default_factory=dict)
    #: serve only: the replay met the latency limit without a backlog
    meets_slo: bool = False


def labels_digest(labels) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels).tobytes()).hexdigest()


def adjusted_rand(a, b) -> float:
    """Adjusted Rand index (Hubert & Arabie) from the contingency table.

    Computed here rather than taken from the library, so the quality
    check does not depend on the code it checks.
    """
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        x = x.astype(np.float64)
        return float(np.sum(x * (x - 1) / 2.0))

    n = ai.size
    total = n * (n - 1) / 2.0
    s_ij = pairs(table)
    s_a = pairs(table.sum(axis=1))
    s_b = pairs(table.sum(axis=0))
    expected = s_a * s_b / total if total else 0.0
    top = 0.5 * (s_a + s_b)
    if top == expected:
        return 1.0
    return (s_ij - expected) / (top - expected)


def _device_layer(profile) -> dict:
    alloc = profile.allocator
    requests = alloc.get("hits", 0) + alloc.get("misses", 0)
    transfers = profile.transfers
    return {
        "cuda.kernel_launches": profile.kernel_launches,
        "cuda.pcie_bytes": transfers.get("bytes_h2d", 0)
        + transfers.get("bytes_d2h", 0),
        "cuda.alloc_hit_ratio": alloc.get("hits", 0) / requests if requests else 0.0,
        "cuda.alloc_requests": requests,
        "modeled.communication_s": profile.communication,
    }


MODELED_STAGES = ("similarity", "laplacian", "eigensolver", "kmeans")


# ----------------------------------------------------------------------
# fit workloads
# ----------------------------------------------------------------------
class FitWorkload:
    """A closed loop of ``SpectralClustering.fit`` on one dataset."""

    def __init__(self, dataset, scale, estimator, paper_table=None,
                 check_ledger=False):
        self.dataset = dataset
        self.scale = scale
        self.estimator = estimator
        self.paper_table = paper_table
        self.check_ledger = check_ledger

    def setup(self, seed: int):
        import repro.datasets

        return repro.datasets.load_dataset(self.dataset, scale=self.scale, seed=seed)

    def run(self, ds, seed: int) -> Op:
        from repro import SpectralClustering

        inputs = (
            {"X": ds.points, "edges": ds.edges} if ds.points is not None
            else {"graph": ds.graph}
        )
        t0 = time.perf_counter()
        res = SpectralClustering(
            n_clusters=ds.n_clusters, seed=seed, **self.estimator
        ).fit(**inputs)
        wall = time.perf_counter() - t0

        op = Op(
            wall_s=wall,
            modeled_s=res.timings.total_simulated(),
            digest=labels_digest(res.labels),
            ari=adjusted_rand(res.labels, ds.labels),
        )
        if self.check_ledger:
            stats = res.eig_stats
            if stats["spmv_bytes"] != stats["ledger_bytes"]:
                op.problems.append(
                    f"spmv_bytes {stats['spmv_bytes']} != "
                    f"ledger_bytes {stats['ledger_bytes']}"
                )
        if self.paper_table is not None:
            op.extra["paper_log_err"] = self._paper_log_err(res)
        op.layer = _device_layer(res.profile)
        for stage in MODELED_STAGES:
            op.layer[f"modeled.{stage}_s"] = res.timings.simulated.get(stage, 0.0)
        op.failed = int(bool(op.problems))
        return op

    def _paper_log_err(self, res) -> float:
        """|ln(projected CUDA total / paper CUDA total)| at paper scale."""
        from repro.bench.paperdata import PAPER_TABLES
        from repro.bench.runner import project_paper_scale

        iters = res.kmeans.n_iter
        # only the CUDA column is read; the baseline columns' iteration
        # counts are required by the signature and set to the same value
        proj = project_paper_scale(self.dataset, {
            "n_restarts": res.eig_stats["n_restarts"],
            "cuda_kmeans_iters": iters,
            "matlab_kmeans_iters": iters,
            "python_kmeans_iters": iters,
        })
        paper = PAPER_TABLES[self.paper_table]
        projected = sum(proj[s]["cuda"] for s in paper if s in proj)
        published = sum(paper[s]["cuda"] for s in paper if s in proj)
        return abs(math.log(projected / published))


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------
def _serve_trace(seed: int, gap: float = SERVE_GAP_S):
    from repro.serve import synthetic_predict_trace

    return synthetic_predict_trace(
        n_requests=SERVE_REQUESTS, predict_fraction=SERVE_PREDICT_FRACTION,
        mean_interarrival=gap, seed=seed,
    )


def _replay(trace):
    from repro.serve import ClusterService, ServiceConfig

    t0 = time.perf_counter()
    responses, report = ClusterService(ServiceConfig()).process(trace)
    return responses, report, time.perf_counter() - t0


def _quarter_waits(trace, responses) -> tuple[float, float]:
    """Mean wait before service of the first and last quarter of the
    requests, in arrival order (fits: queue wait; predicts: dispatch
    minus arrival)."""
    from repro.serve import PredictResponse

    waits = [
        r.start - r.arrival if isinstance(r, PredictResponse) else r.queue_wait
        for _, r in sorted(
            zip(trace, responses), key=lambda pair: pair[0].arrival
        )
    ]
    q = max(1, len(waits) // 4)
    return sum(waits[:q]) / q, sum(waits[-q:]) / q


def _meets_slo(report, first_wait: float, last_wait: float) -> bool:
    """Within the latency limit, nothing refused, and no growing backlog."""
    return (
        report.n_rejected == 0
        and report.n_ok == report.n_requests
        and report.latency.p95 <= SLO_P95_S
        and last_wait <= first_wait
    )


class ServeWorkload:
    """Open-loop replays of a mixed fit/predict trace on the modeled clock.

    One op is one ``ClusterService.process`` of the whole trace on a
    fresh service.  Arrivals are replayed at their scheduled modeled
    times, so the generator is never late: latency counts from each
    request's due time.
    """

    def setup(self, seed: int):
        import repro.datasets

        trace = _serve_trace(seed)
        # the datasets the trace refers to: generated here, as part of
        # set-up, and memoized for the service's own lookups
        truth = {}
        for req in trace:
            fit = getattr(req, "fit", req)
            key = (fit.dataset, fit.scale, fit.data_seed)
            if key not in truth:
                ds = repro.datasets.load_dataset(
                    fit.dataset, scale=fit.scale, seed=fit.data_seed
                )
                truth[key] = ds.labels
        return trace, truth

    def run(self, inputs, seed: int) -> Op:
        from repro.serve import ClusterResponse, PredictResponse

        trace, truth = inputs
        responses, report, wall = _replay(trace)

        h = hashlib.sha256()
        failed = 0
        problems = []
        aris = []
        for req, r in zip(trace, responses):
            labels = b"" if r.labels is None else np.ascontiguousarray(r.labels)
            h.update(f"{r.request_id}|{r.status}|".encode())
            h.update(labels)
            bad = not r.ok or (
                isinstance(r, PredictResponse) and r.ledger_ok is False
            )
            if bad:
                failed += 1
                problems.append(f"{r.request_id}: {r.status} {r.error or ''}")
            elif isinstance(r, ClusterResponse):
                aris.append(adjusted_rand(
                    r.labels, truth[(req.dataset, req.scale, req.data_seed)]
                ))

        pred = report.predict
        first, last = _quarter_waits(trace, responses)
        cold = sum(
            1 for r in responses
            if (isinstance(r, ClusterResponse) and r.ok and not r.cache_hit)
            or (isinstance(r, PredictResponse) and r.cold_fit)
        )
        op = Op(
            wall_s=wall,
            modeled_s=report.makespan,
            digest=h.hexdigest(),
            ari=sum(aris) / len(aris) if aris else 0.0,
            attempted=len(responses),
            failed=failed,
            problems=problems[:10],
            meets_slo=_meets_slo(report, first, last),
            extra={
                "modeled_latency_p50_s": report.latency.p50,
                "modeled_latency_p95_s": report.latency.p95,
                "deadline_miss_frac": (
                    pred["deadline_misses"] / pred["with_deadline"]
                    if pred.get("with_deadline") else 0.0
                ),
                "wait_first_quarter_s": first,
                "wait_last_quarter_s": last,
                "generator_late_s": 0.0,
            },
        )
        cache = report.cache
        batches = report.batches
        op.layer = _device_layer(report.profile)
        by_stage = report.profile.by_stage
        for stage in MODELED_STAGES:
            op.layer[f"modeled.{stage}_s"] = by_stage.get(stage, 0.0)
        op.layer.update({
            "serve.cache_hit_ratio": cache.get("hit_rate", 0.0),
            "serve.cache_lookups": cache.get("hits", 0) + cache.get("misses", 0),
            "serve.mean_batch_size": batches.get("mean_batch_size", 0.0),
            "serve.n_batches": batches.get("n_batches", 0),
            "serve.queue_wait_p95_s": report.queue_wait.p95,
            "serve.cold_fits": cold,
            "serve.preemptions": report.scheduler.get("preemptions", 0),
            "serve.deadline_misses": pred.get("deadline_misses", 0),
            "serve.deadline_predicts": pred.get("with_deadline", 0),
        })
        return op

    def max_rps_at_slo(self, seed: int, default_meets: bool) -> tuple[float, list]:
        """Highest offered rate (requests per modeled second) whose replay
        meets the p95 limit without a growing backlog.

        Bisects ``log2(rate / default rate)`` over ``[0, 1.5]`` with the
        same seed; the default rate's result comes from the timed ops.
        Returns the rate and one record per replay made.
        """
        steps = []
        if not default_meets:
            return 0.0, steps
        lo, hi = 0.0, RPS_SEARCH_MAX_LOG2
        for _ in range(RPS_SEARCH_STEPS):
            mid = (lo + hi) / 2.0
            gap = SERVE_GAP_S / 2.0 ** mid
            trace = _serve_trace(seed, gap)
            responses, report, _wall = _replay(trace)
            meets = _meets_slo(report, *_quarter_waits(trace, responses))
            steps.append({
                "rate_rps": 1.0 / gap, "p95_s": report.latency.p95,
                "rejected": report.n_rejected, "meets": meets,
            })
            if meets:
                lo = mid
            else:
                hi = mid
        return 2.0 ** lo / SERVE_GAP_S, steps


WORKLOADS = {
    "fit-dti": FitWorkload(
        "dti", 0.1, {"kmeans_max_iter": DTI_KMEANS_MAX_ITER},
        paper_table="table3_dti",
    ),
    "fit-sbm50k-compressive": FitWorkload(
        "sbm50k", 0.1, {"embedding": "compressive"},
        check_ledger=True,
    ),
    "serve-mixed": ServeWorkload(),
}
