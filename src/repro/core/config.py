"""The estimator's one validated configuration: :class:`ClusterConfig`.

Every knob that shapes a fit is declared here once, with its default
and its checks.  :class:`~repro.core.pipeline.SpectralClustering` reads
its knobs from a config, the serving layer's
:class:`~repro.serve.request.ClusterRequest` carries one, the cache keys
(:mod:`repro.serve.fingerprint`) and the JSONL trace format
(:mod:`repro.serve.traceio`) are derived from its fields, and a
:class:`~repro.core.model.FittedSpectralModel` stores the config that
re-creates it.  Runtime objects (device, fault plan, resilience policy)
are not configuration and stay on the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from repro.core.workflow import EMBEDDING_MODES, SPMV_FORMAT_CHOICES
from repro.errors import ClusteringError
from repro.precision import PRECISIONS

#: embedding algorithms the pipeline accepts: the eigensolver-backed
#: modes plus the compressive tier (which has its own device driver)
PIPELINE_EMBEDDINGS = (*EMBEDDING_MODES, "compressive")

__all__ = [
    "ClusterConfig",
    "PIPELINE_EMBEDDINGS",
    "PRECISIONS",
]

#: knobs limited to a few literal values ...
_CHOICES = {
    "operator": ("sym", "rw"),
    "objective": ("ncut", "ratiocut"),
    "eig_residency": ("device", "host"),
    "eig_spmv_format": SPMV_FORMAT_CHOICES,
}
#: ... and knobs limited to a registry that the CLI offers as choices
_REGISTRIES = {
    "precision": PRECISIONS,
    "embedding": PIPELINE_EMBEDDINGS,
}
#: integer knobs -> least value; numpy integers pass, bools and floats
#: do not
_COUNTS = {"n_clusters": 2, "kmeans_max_iter": 1, "devices": 1}
#: integer knobs that may also be None (derived at fit time)
_OPTIONAL_COUNTS = {
    "m": 1, "eig_maxiter": 1, "filter_order": 1, "n_signals": 1, "seed": 0,
}


@dataclass(frozen=True, kw_only=True)
class ClusterConfig:
    """The knobs of one spectral clustering fit, validated on construction.

    Invalid values raise :class:`~repro.errors.ClusteringError`.  The
    paper's fixed choices are not knobs: point input is weighted by
    cross-correlation (Eq. 7), k-means is seeded by k-means++ on the
    embedding rows as they come, and zero-degree vertices are dropped
    and labelled ``-1``.

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    operator:
        'sym' (default) iterates with the symmetric ``D^{-1/2}WD^{-1/2}``
        and maps eigenvectors back through ``D^{-1/2}`` — the numerically
        sound realization of the paper's ``D⁻¹W`` largest-eigenvector
        formulation (identical spectrum, and exactly the generalized
        eigenvectors of ``Lx = λDx``).  'rw' feeds ``D⁻¹W`` to the
        symmetric Lanczos machinery verbatim, as the paper describes;
        offered for ablation.
    objective:
        'ncut' (default): the paper's normalized-cut relaxation via
        ``operator``.  'ratiocut': the Eq. 3 relaxation — smallest
        eigenvectors of the *unnormalized* ``L = D - W``, computed on the
        device through a Gershgorin shift (``operator`` is then ignored);
        ``result.eigenvalues`` holds λ(L) ascending in that mode.
    m:
        Lanczos basis size (default ``min(n, max(2k+1, 20))``, the paper's
        ``m = 2k`` rule).
    eig_tol:
        Eigensolver relative tolerance (finite, >= 0; 0 = machine eps).
    eig_maxiter:
        Restart cap.
    eig_residency:
        Iteration-vector placement for Algorithm 3: 'device' (default)
        keeps the Lanczos vectors GPU-resident so only ARPACK's small
        tridiagonal state crosses PCIe at restart boundaries; 'host' is
        the paper's original ship-the-vector-twice-per-step loop.  Both
        produce bit-identical eigenpairs.
    eig_spmv_format:
        SpMV operand format for the eigensolver: 'auto' (default) lets
        the row-length-statistics autotuner choose between 'csr' and
        'ell'; or force one.  Format only changes charged time.
    devices:
        Simulated GPUs the embedding solve spans (default 1).  The
        normalized operator splits into nnz-balanced row blocks with
        local/halo column separation; each SpMV or SpMM of the Lanczos,
        power or compressive solve overlaps the local kernel with
        device-to-device halo exchange on copy streams
        (:mod:`repro.cusparse.partition`).  Only that solve is sharded:
        the similarity and Laplacian stages and k-means run on the
        primary device.  The answer matches ``devices=1`` — only the
        charged makespan changes.
        Requires ``eig_residency='device'`` and a CSR-compatible
        ``eig_spmv_format`` ('auto' or 'csr').
    precision:
        Storage precision for the eigensolver's operator values and
        iteration vectors: 'fp64' (default — the exact path), 'fp32' or
        'fp16'.  Reduced solves accumulate in fp64 and finish with fp64
        iterative-refinement steps against the full-precision operator
        (:mod:`repro.precision`); accuracy is gated by the tolerance
        bands in the regression harness rather than bit-identity.
    embedding:
        Spectral embedding algorithm: 'lanczos' (default) is the full
        IRLM reverse-communication loop; 'power' is the block
        power-iteration embedding of Boutsidis et al. — pure repeated
        SpMM, no restarts — whose embedding is approximate by design but
        k-means-equivalent on clusterable graphs.  'compressive' is the
        Chebyshev graph-filtering tier of Tremblay et al.
        (:mod:`repro.compressive`): no eigenvectors at all — an order-p
        polynomial filter applied to O(log k) seeded random signals
        yields the feature sketch, k-means runs on a coherence-sampled
        vertex subset, and labels lift back by regularized
        interpolation.  Requires ``objective='ncut'`` (the filter's
        pass band targets the normalized operators' top-k spectrum).
    filter_order:
        Chebyshev polynomial degree for ``embedding='compressive'``
        (default :data:`repro.compressive.DEFAULT_FILTER_ORDER`).  One
        SpMM per degree; higher = sharper band edge = better ARI.
    n_signals:
        Random-signal count d for ``embedding='compressive'``
        (default ``max(8, ceil(4·log2(k+1)))``).
    sample_frac:
        Fraction of vertices the compressive k-means clusters (default:
        the ``O(k log k / n)`` heuristic, saturating at 1.0 on small
        graphs, where downsampling and lifting are skipped entirely).
    kmeans_max_iter:
        Lloyd iteration cap.
    seed:
        Seeds the eigensolver start vector and the k-means initialization
        (a non-negative int, or None).
    """

    n_clusters: int
    operator: str = "sym"
    objective: str = "ncut"
    m: int | None = None
    eig_tol: float = 0.0
    eig_maxiter: int | None = None
    eig_residency: str = "device"
    eig_spmv_format: str = "auto"
    devices: int = 1
    precision: str = "fp64"
    embedding: str = "lanczos"
    filter_order: int | None = None
    n_signals: int | None = None
    sample_frac: float | None = None
    kmeans_max_iter: int = 300
    seed: int | None = 0

    def __post_init__(self) -> None:
        for name, least in (*_COUNTS.items(), *_OPTIONAL_COUNTS.items()):
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_COUNTS:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, Integral)
                or value < least
            ):
                spelled = " or None" if name in _OPTIONAL_COUNTS else ""
                raise ClusteringError(
                    f"{name} must be an int >= {least}{spelled}, "
                    f"got {value!r}"
                )
        if not _finite(self.eig_tol) or self.eig_tol < 0:
            raise ClusteringError(
                f"eig_tol must be finite and >= 0, got {self.eig_tol!r}"
            )
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                spelled = ", ".join(map(repr, choices[:-1]))
                raise ClusteringError(
                    f"{name} must be {spelled} or {choices[-1]!r}, "
                    f"got {value!r}"
                )
        for name, choices in _REGISTRIES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ClusteringError(
                    f"{name} must be one of {choices}, got {value!r}"
                )
        if self.devices > 1 and self.eig_residency != "device":
            raise ClusteringError("devices > 1 requires eig_residency='device'")
        if self.devices > 1 and self.eig_spmv_format not in ("auto", "csr"):
            raise ClusteringError(
                "devices > 1 requires eig_spmv_format 'auto' or 'csr' "
                "(row blocks are stored as split local/halo CSR)"
            )
        if self.embedding == "compressive" and self.objective != "ncut":
            raise ClusteringError(
                "embedding='compressive' requires objective='ncut' (the "
                "Chebyshev filter's pass band targets the normalized "
                "operators' top-k spectrum)"
            )
        if self.sample_frac is not None and not (
            0.0 < float(self.sample_frac) <= 1.0
        ):
            raise ClusteringError(
                f"sample_frac must be in (0, 1], got {self.sample_frac!r}"
            )


def _finite(value) -> bool:
    """A real, finite number (bools are not numbers here)."""
    return (
        isinstance(value, Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )
