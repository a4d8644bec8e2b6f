"""Service-level metrics: the structured observability report.

Aggregates per-request facts (queue wait, batch size, cache hits,
latency) and scheduler facts (makespan, device occupancy) into a
:class:`ServiceReport` that renders as a fixed-width table and serializes
to JSON — the artifact the CI smoke job and the throughput bench consume.

All times are *simulated* seconds on the service clock; percentile
definitions use the nearest-rank method so reports are deterministic and
comparable across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.cuda.profiler import ProfileReport


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty input."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class LatencyStats:
    """Distribution summary of one latency-like quantity (seconds)."""

    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    @classmethod
    def from_values(cls, values) -> "LatencyStats":
        vals = [float(v) for v in values]
        if not vals:
            return cls()
        return cls(
            mean=sum(vals) / len(vals),
            p50=percentile(vals, 50),
            p95=percentile(vals, 95),
            p99=percentile(vals, 99),
            max=max(vals),
        )

    def as_dict(self) -> dict:
        return {
            "mean": self.mean, "p50": self.p50, "p95": self.p95,
            "p99": self.p99, "max": self.max,
        }


@dataclass
class ServiceReport:
    """Everything one service run produced, aggregated."""

    n_requests: int = 0
    n_ok: int = 0
    n_rejected: int = 0
    n_failed: int = 0
    n_cache_hits: int = 0

    queue: dict = field(default_factory=dict)
    batches: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    #: fast-lane facts (empty when the trace carried no predicts)
    predict: dict = field(default_factory=dict)
    #: deadline / preemption counters (:class:`SchedulerStats`)
    scheduler: dict = field(default_factory=dict)

    latency: LatencyStats = field(default_factory=LatencyStats)
    queue_wait: LatencyStats = field(default_factory=LatencyStats)

    #: simulated completion time of the last unit of work
    makespan: float = 0.0
    #: completed (ok) requests per simulated second
    throughput_rps: float = 0.0
    #: per-device busy fraction of the makespan, in [0, 1]
    occupancy: dict = field(default_factory=dict)
    #: summed device activity (communication vs computation, Table VII axis)
    profile: ProfileReport | None = None

    #: chaos bookkeeping: requests that recovered / terminally failed
    n_degraded: int = 0

    def as_dict(self) -> dict:
        d = {
            "requests": {
                "total": self.n_requests,
                "ok": self.n_ok,
                "rejected": self.n_rejected,
                "failed": self.n_failed,
                "cache_hits": self.n_cache_hits,
                "degraded": self.n_degraded,
            },
            "queue": dict(self.queue),
            "batches": dict(self.batches),
            "cache": dict(self.cache),
            "predict": dict(self.predict),
            "scheduler": dict(self.scheduler),
            "latency_s": self.latency.as_dict(),
            "queue_wait_s": self.queue_wait.as_dict(),
            "makespan_s": self.makespan,
            "throughput_rps": self.throughput_rps,
            "occupancy": dict(self.occupancy),
        }
        if self.profile is not None:
            d["profile"] = {
                "communication_s": self.profile.communication,
                "computation_s": self.profile.computation,
                "kernel_launches": self.profile.kernel_launches,
            }
            if self.profile.allocator:
                d["profile"]["allocator"] = dict(self.profile.allocator)
            if self.profile.transfers:
                d["profile"]["transfers"] = dict(self.profile.transfers)
            if self.profile.kernels:
                d["profile"]["kernels"] = {
                    name: dict(slot)
                    for name, slot in self.profile.kernels.items()
                }
        return d

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def format_report(self) -> str:
        """Fixed-width text rendering, in the house table style."""
        lines = [
            f"{'metric':<28}{'value':>16}",
            "-" * 44,
            f"{'requests':<28}{self.n_requests:>16}",
            f"{'  ok':<28}{self.n_ok:>16}",
            f"{'  rejected':<28}{self.n_rejected:>16}",
            f"{'  failed':<28}{self.n_failed:>16}",
            f"{'  degraded (recovered)':<28}{self.n_degraded:>16}",
            f"{'cache hits':<28}{self.n_cache_hits:>16}",
            f"{'cache hit rate':<28}{self.cache.get('hit_rate', 0.0):>16.3f}",
            f"{'batches':<28}{self.batches.get('n_batches', 0):>16}",
            f"{'mean batch size':<28}{self.batches.get('mean_batch_size', 0.0):>16.2f}",
            f"{'queue max occupancy':<28}{self.queue.get('max_occupancy', 0):>16}",
            f"{'makespan (sim s)':<28}{self.makespan:>16.4f}",
            f"{'throughput (req/sim s)':<28}{self.throughput_rps:>16.2f}",
            f"{'latency p50 (sim s)':<28}{self.latency.p50:>16.4f}",
            f"{'latency p95 (sim s)':<28}{self.latency.p95:>16.4f}",
            f"{'latency p99 (sim s)':<28}{self.latency.p99:>16.4f}",
            f"{'queue wait p95 (sim s)':<28}{self.queue_wait.p95:>16.4f}",
        ]
        if self.scheduler:
            lines.extend([
                f"{'deadline misses':<28}"
                f"{self.scheduler.get('deadline_misses', 0):>16}",
                f"{'deadlines met':<28}"
                f"{self.scheduler.get('deadlines_met', 0):>16}",
                f"{'preemptions':<28}"
                f"{self.scheduler.get('preemptions', 0):>16}",
                f"{'  saved misses':<28}"
                f"{self.scheduler.get('saved_misses', 0):>16}",
                f"{'  ctx switch (sim s)':<28}"
                f"{self.scheduler.get('ctx_switch_s', 0.0):>16.6f}",
            ])
        if self.cache.get("disk_hits") or self.cache.get("disk_writes"):
            lines.extend([
                f"{'cache disk hits':<28}{self.cache.get('disk_hits', 0):>16}",
                f"{'cache disk writes':<28}"
                f"{self.cache.get('disk_writes', 0):>16}",
            ])
        if self.predict.get("total"):
            warm = self.predict.get("warm_service_s", {})
            cold = self.predict.get("cold_latency_s", {})
            lines.extend([
                f"{'predicts':<28}{self.predict.get('total', 0):>16}",
                f"{'  model hits':<28}{self.predict.get('model_hits', 0):>16}",
                f"{'  cold fits':<28}{self.predict.get('cold_fits', 0):>16}",
                f"{'  ledger mismatches':<28}"
                f"{self.predict.get('ledger_mismatches', 0):>16}",
                f"{'  deadline misses':<28}"
                f"{self.predict.get('deadline_misses', 0):>16}",
                f"{'  warm p50 (sim s)':<28}{warm.get('p50', 0.0):>16.6f}",
                f"{'  cold p50 (sim s)':<28}{cold.get('p50', 0.0):>16.6f}",
            ])
        for dev, occ in sorted(self.occupancy.items()):
            lines.append(f"{f'occupancy {dev}':<28}{occ:>16.3f}")
        if self.profile is not None:
            lines.append(
                f"{'device comm (sim s)':<28}{self.profile.communication:>16.4f}"
            )
            lines.append(
                f"{'device compute (sim s)':<28}{self.profile.computation:>16.4f}"
            )
            alloc = self.profile.allocator
            if alloc:
                lines.append(
                    f"{'alloc cache hit rate':<28}"
                    f"{alloc.get('hit_rate', 0.0):>16.3f}"
                )
                lines.append(
                    f"{'alloc bytes reserved':<28}"
                    f"{alloc.get('bytes_reserved', 0):>16}"
                )
            tr = self.profile.transfers
            if tr:
                lines.append(
                    f"{'pcie bytes moved':<28}"
                    f"{tr.get('bytes_h2d', 0) + tr.get('bytes_d2h', 0):>16}"
                )
                lines.append(
                    f"{'transfers elided':<28}"
                    f"{tr.get('transfers_elided', 0):>16}"
                )
                lines.append(
                    f"{'transfer overlap (sim s)':<28}"
                    f"{tr.get('overlap_s', 0.0):>16.4f}"
                )
            if self.profile.kernels:
                top = sorted(
                    self.profile.kernels.items(),
                    key=lambda kv: kv[1]["seconds"],
                    reverse=True,
                )[:5]
                for name, slot in top:
                    label = f"kernel {name}"[:27]
                    lines.append(
                        f"{label:<28}"
                        f"{slot['seconds']:>10.4f} x{slot['count']:>4}"
                    )
        return "\n".join(lines)


def build_report(responses, scheduler, queue_stats, batch_stats, cache_stats,
                 profile: ProfileReport | None = None) -> ServiceReport:
    """Assemble a :class:`ServiceReport` from the service's components.

    ``responses`` may mix fit (:class:`ClusterResponse`) and fast-lane
    (:class:`PredictResponse`) records; top-level counts, latency and
    throughput cover both, queue/batch/cache-hit facts are fit-only, and
    the ``predict`` section isolates the fast lane (warm service time vs
    cold-fit latency is the fit-once-predict-many win the bench gates).
    """
    from repro.serve.request import PredictResponse

    cluster = [r for r in responses if not isinstance(r, PredictResponse)]
    predicts = [r for r in responses if isinstance(r, PredictResponse)]
    ok = [r for r in cluster if r.ok]
    pok = [r for r in predicts if r.ok]
    rejected = [r for r in responses if r.status == "rejected"]
    failed = [r for r in responses if r.status == "failed"]
    makespan = scheduler.makespan()
    predict_section: dict = {}
    if predicts:
        warm = [r.service_time for r in pok if r.model_hit]
        cold = [r.latency for r in pok if r.cold_fit]
        predict_section = {
            "total": len(predicts),
            "ok": len(pok),
            "failed": len(predicts) - len(pok),
            "model_hits": sum(1 for r in pok if r.model_hit),
            "cold_fits": sum(1 for r in pok if r.cold_fit),
            "ledger_checked": sum(1 for r in pok if r.ledger_ok is not None),
            "ledger_mismatches": sum(1 for r in pok if r.ledger_ok is False),
            "with_deadline": sum(
                1 for r in predicts if r.deadline is not None
            ),
            # derived from the responses, not the scheduler counter, so
            # merged multi-service reports sum consistently (the
            # scheduler section keeps the unit-level counters, which
            # also cover failed units that burned lane time)
            "deadline_misses": sum(
                1 for r in predicts if r.deadline_met is False
            ),
            "deadlines_met": sum(
                1 for r in predicts if r.deadline_met is True
            ),
            "latency_s": LatencyStats.from_values(
                [r.latency for r in pok]
            ).as_dict(),
            "warm_service_s": LatencyStats.from_values(warm).as_dict(),
            "cold_latency_s": LatencyStats.from_values(cold).as_dict(),
        }
    all_ok = ok + pok
    return ServiceReport(
        n_requests=len(responses),
        n_ok=len(all_ok),
        n_rejected=len(rejected),
        n_failed=len(failed),
        n_cache_hits=sum(1 for r in ok if r.cache_hit)
        + sum(1 for r in pok if r.model_hit),
        n_degraded=sum(1 for r in all_ok if r.resilience),
        queue=queue_stats.as_dict(),
        batches=batch_stats.as_dict(),
        cache=cache_stats.as_dict(),
        predict=predict_section,
        scheduler=(
            scheduler.stats.as_dict()
            if getattr(scheduler, "stats", None) is not None else {}
        ),
        latency=LatencyStats.from_values([r.latency for r in all_ok]),
        queue_wait=LatencyStats.from_values([r.queue_wait for r in ok]),
        makespan=makespan,
        throughput_rps=len(all_ok) / makespan if makespan > 0 else 0.0,
        occupancy=scheduler.occupancy(),
        profile=profile,
    )
