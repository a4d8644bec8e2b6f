"""Result records for the spectral clustering pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cuda.profiler import ProfileReport
from repro.kmeans.utils import KMeansResult


@dataclass
class StageTimings:
    """Per-stage timing on both axes.

    ``simulated`` — seconds on the modeled Table I platform (the
    paper-comparable axis); ``wall`` — actual Python execution seconds of
    this process (regression-tracking axis; not comparable to the paper).
    """

    simulated: dict[str, float] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)

    def total_simulated(self) -> float:
        return sum(self.simulated.values())

    def total_wall(self) -> float:
        return sum(self.wall.values())

    def format_table(self) -> str:
        stages = sorted(set(self.simulated) | set(self.wall))
        lines = [f"{'stage':<16}{'simulated/s':>14}{'wall/s':>12}", "-" * 42]
        for s in stages:
            lines.append(
                f"{s:<16}{self.simulated.get(s, 0.0):>14.4f}"
                f"{self.wall.get(s, 0.0):>12.4f}"
            )
        lines.append("-" * 42)
        lines.append(
            f"{'total':<16}{self.total_simulated():>14.4f}{self.total_wall():>12.4f}"
        )
        return "\n".join(lines)


@dataclass
class ClusteringResult:
    """Everything a pipeline run produces.

    Attributes
    ----------
    labels:
        ``(n,)`` cluster assignment on the *original* node indexing;
        isolated nodes removed before clustering carry label ``-1``.
    eigenvalues:
        The k leading eigenvalues of the normalized adjacency (descending
        closeness to 1 indicates cluster structure).
    embedding:
        ``(n_kept, k)`` spectral embedding rows fed to k-means.
    kmeans:
        The full k-means sub-result.
    timings:
        Per-stage simulated + wall times.
    profile:
        Device profile (communication vs computation, Table VII).
    eig_stats:
        Eigensolver counters (ops, restarts, PCIe round trips).
    kept:
        Original indices of non-isolated nodes that were clustered.
    resilience:
        Per-stage fault-recovery record: ``{stage: {"retries": int,
        "degrade_steps": int, "resumes": int, "fallback": "cpu" | None}}``.
        Empty when the run saw no faults and no resilience policy.
    fault_events:
        The :class:`~repro.chaos.plan.FaultEvent` records fired by an
        installed chaos plan during this run, in firing order.
    model:
        The reusable :class:`~repro.core.model.FittedSpectralModel` for
        out-of-sample ``predict`` and incremental ``apply_delta``
        (untyped here to keep this module import-light).  ``None`` for
        parameterizations without a Nyström extension (ratiocut
        objective, compressive embedding tier).
    """

    labels: np.ndarray
    eigenvalues: np.ndarray
    embedding: np.ndarray
    kmeans: KMeansResult
    timings: StageTimings
    profile: ProfileReport
    eig_stats: dict
    kept: np.ndarray
    resilience: dict = field(default_factory=dict)
    fault_events: tuple = ()
    model: object | None = None

    @property
    def degraded_stages(self) -> tuple[str, ...]:
        """Stages that recovered from a fault (retry, degrade, or fallback)."""
        return tuple(
            stage for stage, rec in self.resilience.items()
            if rec.get("retries") or rec.get("degrade_steps")
            or rec.get("resumes") or rec.get("fallback")
        )

    @property
    def n_clusters(self) -> int:
        return self.kmeans.k

    def summary(self) -> str:
        """Human-readable one-stop report."""
        lines = [
            f"spectral clustering: n={self.labels.size} "
            f"(kept {self.kept.size}), k={self.n_clusters}",
            f"eigensolver: {self.eig_stats.get('n_op', '?')} SpMVs, "
            f"{self.eig_stats.get('n_restarts', '?')} restarts, "
            f"converged={self.eig_stats.get('converged', '?')}",
            f"k-means: {self.kmeans.n_iter} iterations, "
            f"inertia={self.kmeans.inertia:.6g}",
            self.timings.format_table(),
            f"communication {self.profile.communication:.4f}s vs "
            f"computation {self.profile.computation:.4f}s (simulated)",
        ]
        if self.fault_events:
            lines.append(f"injected faults fired: {len(self.fault_events)}")
        for stage in self.degraded_stages:
            rec = self.resilience[stage]
            parts = []
            if rec.get("retries"):
                parts.append(f"{rec['retries']} retries")
            if rec.get("degrade_steps"):
                parts.append(f"degraded x{rec['degrade_steps']}")
            if rec.get("resumes"):
                parts.append(f"{rec['resumes']} checkpoint resumes")
            if rec.get("fallback"):
                parts.append(f"finished on {rec['fallback']}")
            lines.append(f"resilience[{stage}]: " + ", ".join(parts))
        return "\n".join(lines)
