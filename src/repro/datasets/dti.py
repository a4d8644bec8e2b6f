"""Synthetic Diffusion Tensor Imaging (DTI) workload.

The paper's DTI dataset is proprietary clinical data (NKI): 142,541 brain
voxels on a 2 mm grid, each carrying a 90-dimensional connectivity profile
(strength to 90 grey-matter regions), plus an edge list of all voxel pairs
within 4 mm.  The task clusters voxels with similar profiles.

This generator reproduces the workload's *shape*:

* voxels fill an axis-aligned 3-D grid at ``voxel_mm`` spacing (masked to
  an ellipsoid so the volume is brain-like rather than a cube);
* ground-truth parcels are grown from ``n_regions`` random seeds by
  nearest-seed assignment — spatially contiguous regions, like anatomy;
* each parcel has a random 90-dim prototype profile; a voxel's profile is
  its parcel prototype plus isotropic noise (``noise`` controls how hard
  the recovery problem is);
* the edge list contains every pair within ``radius_mm`` (default 4 mm),
  enumerated with the uniform-grid index.

The exercised code path — points → ε-edge list → cross-correlation COO
graph → eigensolver → k-means — is exactly the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.graph.neighbors import epsilon_neighbors_grid

#: voxel-seed distances the nearest-seed labelling evaluates per row block
_LABEL_BLOCK_PAIRS = 1 << 16


@dataclass
class DTIVolume:
    """A synthetic DTI clustering problem.

    Attributes
    ----------
    positions:
        ``(n, 3)`` voxel centers in millimetres.
    profiles:
        ``(n, d)`` connectivity profiles (the matrix X of Algorithm 1).
    edges:
        ``(nnz, 2)`` voxel pairs within the spatial radius, ``i < j``.
    labels:
        Ground-truth parcel of each voxel.
    n_regions:
        Number of parcels (the clustering target k).
    """

    positions: np.ndarray
    profiles: np.ndarray
    edges: np.ndarray
    labels: np.ndarray
    n_regions: int

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.profiles.shape[1]


def make_dti_volume(
    grid: tuple[int, int, int] = (16, 16, 16),
    n_regions: int = 32,
    profile_dim: int = 90,
    voxel_mm: float = 2.0,
    radius_mm: float = 4.0,
    noise: float = 0.35,
    seed: int | None = 0,
) -> DTIVolume:
    """Generate a synthetic DTI volume (paper-scale: grid ≈ (60, 72, 60)
    masked → 142K voxels, ``n_regions=500``).

    Parameters
    ----------
    grid:
        Voxel grid dimensions before masking.
    n_regions:
        Ground-truth parcel count.
    profile_dim:
        Connectivity profile dimension (90 in the paper).
    voxel_mm, radius_mm:
        Grid spacing and ε-neighborhood radius (2 mm / 4 mm in the paper).
    noise:
        Std of the isotropic noise added to prototypes (prototypes are
        unit-scale); higher = harder recovery.
    """
    if n_regions <= 0 or profile_dim <= 0:
        raise DatasetError("n_regions and profile_dim must be positive")
    rng = np.random.default_rng(seed)
    nx, ny, nz = grid
    if min(nx, ny, nz) < 2:
        raise DatasetError(f"grid too small: {grid}")

    ii, jj, kk = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    pos = np.column_stack([ii.ravel(), jj.ravel(), kk.ravel()]).astype(np.float64)
    # ellipsoid mask centred in the grid ("brain-like" volume)
    center = (np.array(grid) - 1) / 2.0
    radii = np.maximum(np.array(grid) / 2.0, 1.0)
    inside = (((pos - center) / radii) ** 2).sum(axis=1) <= 1.0
    pos = pos[inside] * voxel_mm
    n = pos.shape[0]
    if n < n_regions:
        raise DatasetError(
            f"grid yields only {n} voxels for {n_regions} regions; enlarge it"
        )

    # spatially contiguous ground truth: nearest of n_regions seed voxels,
    # over row blocks so the voxel × seed difference stays small
    seed_pos = pos[rng.choice(n, size=n_regions, replace=False)]
    rows = max(1, _LABEL_BLOCK_PAIRS // n_regions)
    labels = np.empty(n, dtype=np.int64)
    for r0 in range(0, n, rows):
        block = slice(r0, r0 + rows)
        d2 = ((pos[block, None, :] - seed_pos[None, :, :]) ** 2).sum(axis=2)
        labels[block] = np.argmin(d2, axis=1)

    prototypes = rng.standard_normal((n_regions, profile_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    profiles = prototypes[labels] + noise * rng.standard_normal((n, profile_dim))

    edges = epsilon_neighbors_grid(pos, radius_mm)
    return DTIVolume(
        positions=pos,
        profiles=profiles,
        edges=edges,
        labels=labels,
        n_regions=n_regions,
    )
