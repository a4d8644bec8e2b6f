"""Label lifting: from the sampled k-means back to all ``n`` vertices.

After k-means labels the coherence-sampled sketch rows, every other
vertex still needs a cluster.  The lift is regularized least-squares
interpolation in sketch space: fit a ridge model
``W = (F_sᵀF_s + λI)⁻¹ F_sᵀ Y`` from the sampled rows to their one-hot
labels, score every vertex as ``F W``, and take the argmax.  This is the
cheap stand-in for Tremblay et al.'s graph-regularized decoder: the
sketch rows already embed the k-band subspace, so a linear decoder in
sketch space recovers the cluster indicators without touching the graph
again.

The lift is a deterministic function of ``(F, idx, labels_s, k)`` with
identical arithmetic on the device-charged and host-fallback paths, so
lifted labels never depend on where it ran.  The solve carries its own
chaos fault site (``compressive.solve``).
"""

from __future__ import annotations

import numpy as np

from repro.chaos.runtime import chaos_check
from repro.cuda.device import Device
from repro.hw.costmodel import CPUCostModel
from repro.hw.spec import XEON_E5_2690

#: relative ridge: λ = _RIDGE_REL · trace(F_sᵀF_s)/d keeps the normal
#: equations well-posed when the sample under-determines a direction
_RIDGE_REL = 1e-3


def _interp_scores(
    F: np.ndarray, F_s: np.ndarray, labels_s: np.ndarray, k: int
) -> np.ndarray:
    """The shared ridge-interpolation arithmetic (all paths)."""
    n_s, d = F_s.shape
    Y = np.zeros((n_s, k))
    Y[np.arange(n_s), labels_s] = 1.0
    G = F_s.T @ F_s
    lam = _RIDGE_REL * (np.trace(G) / d if d else 1.0)
    if lam <= 0.0:
        lam = _RIDGE_REL
    G = G + lam * np.eye(d)
    W = np.linalg.solve(G, F_s.T @ Y)
    return F @ W


def lift_labels_device(
    device: Device,
    F: np.ndarray,
    idx: np.ndarray,
    labels_s: np.ndarray,
    k: int,
) -> np.ndarray:
    """Lift sampled labels to all ``n`` vertices on the device.

    ``idx``/``labels_s`` are the sampled vertex indices and their
    k-means labels over ``k`` clusters.  Charges the dense kernels to
    the timeline; the solve is guarded by the ``compressive.solve``
    fault site.
    """
    n, d = F.shape
    chaos_check("compressive.solve", device)
    n_s = int(idx.shape[0])
    device.charge_kernel(
        "cublasDgemm[lift-gram]",
        flops=2.0 * n_s * d * d + 2.0 * n_s * d * k,
        bytes_moved=float((n_s * d + d * d + d * k) * 8),
        kind="dense",
    )
    device.charge_kernel(
        "cusolverDpotrf[lift]",
        flops=(d ** 3) / 3.0 + 2.0 * d * d * k,
        bytes_moved=float(d * d * 8),
        kind="dense",
    )
    device.charge_kernel(
        "cublasDgemm[lift-scores]",
        flops=2.0 * n * d * k,
        bytes_moved=float((n * d + d * k + 2 * n * k) * 8),
        kind="dense",
    )
    labels = np.argmax(_interp_scores(F, F[idx], labels_s, k), axis=1)
    return labels.astype(labels_s.dtype, copy=False)


def lift_labels_host(
    device: Device,
    F: np.ndarray,
    idx: np.ndarray,
    labels_s: np.ndarray,
    k: int,
    cpu: CPUCostModel | None = None,
) -> np.ndarray:
    """CPU-fallback lift: the *same arithmetic* as the device path
    (lifted labels are placement-independent), charged as host BLAS."""
    cpu = cpu or CPUCostModel(XEON_E5_2690)
    n, d = F.shape
    n_s = int(idx.shape[0])
    device.charge_cpu(
        "lift-solve[host]",
        cpu.blas3_time(
            2.0 * n_s * d * d
            + 2.0 * n_s * d * k
            + (d ** 3) / 3.0
            + 2.0 * n * d * k
        ),
    )
    labels = np.argmax(_interp_scores(F, F[idx], labels_s, k), axis=1)
    return labels.astype(labels_s.dtype, copy=False)
