"""Brain parcellation on a synthetic DTI volume — the paper's flagship
workload (Table III).

The full point-input pipeline runs: voxel profiles + ε-distance edge list
→ Algorithm 1 (GPU similarity matrix, cross-correlation measure)
→ Algorithm 2 (normalized operator) → Algorithm 3 (hybrid eigensolver)
→ Algorithm 4 (GPU k-means), and the result is compared against the
ground-truth parcellation plus the serial Matlab/Python-style baselines.

Run:  python examples/dti_brain_parcellation.py
"""

import numpy as np

from repro import SpectralClustering
from repro.baselines import (
    MATLAB_2015A,
    PYTHON_27,
    similarity_serial_time,
    similarity_vectorized_time,
)
from repro.datasets import make_dti_volume
from repro.metrics import adjusted_rand_index, purity


def main() -> None:
    # --- synthesize a small brain volume --------------------------------
    # (the paper's NKI volume is 142K voxels; this is a CI-sized stand-in
    #  with the identical structure: 2 mm voxels, 90-dim profiles, 4 mm
    #  neighborhood — scale the grid up to approach paper size)
    vol = make_dti_volume(grid=(18, 20, 18), n_regions=24, noise=0.25, seed=1)
    print(
        f"volume: {vol.n} voxels, {vol.edges.shape[0]} ε-pairs, "
        f"{vol.n_regions} parcels, d={vol.d}"
    )

    # --- hybrid pipeline (point input is weighted by Eq. 7's
    # cross-correlation, the paper's DTI measure) -------------------------
    model = SpectralClustering(
        n_clusters=vol.n_regions,
        eig_tol=1e-8,
        seed=0,
    )
    result = model.fit(X=vol.profiles, edges=vol.edges)

    print()
    print(result.summary())

    # --- quality ----------------------------------------------------------
    ari = adjusted_rand_index(result.labels, vol.labels)
    pur = purity(result.labels, vol.labels)
    print()
    print(f"parcellation quality: ARI={ari:.3f}  purity={pur:.3f}")

    # --- what the serial baselines would pay for this similarity matrix ---
    nnz = vol.edges.shape[0]
    print()
    print("similarity-matrix construction (this volume, modeled):")
    print(f"  CUDA (simulated)      : {result.timings.simulated['similarity']:.4f} s")
    print(f"  Matlab serial loop    : {similarity_serial_time(MATLAB_2015A, nnz):.2f} s")
    print(f"  Python serial loop    : {similarity_serial_time(PYTHON_27, nnz):.2f} s")
    print(f"  Matlab vectorized     : {similarity_vectorized_time(MATLAB_2015A, nnz):.3f} s")
    print(f"  Python vectorized     : {similarity_vectorized_time(PYTHON_27, nnz):.3f} s")

    # --- the paper's Table VII observation on this run --------------------
    frac = result.profile.communication_fraction()
    print()
    print(
        f"PCIe communication: {result.profile.communication:.4f} s "
        f"({100 * frac:.1f}% of simulated total) over "
        f"{result.eig_stats['pcie_round_trips']} eigensolver round trips"
    )


if __name__ == "__main__":
    main()
