"""Similarity-graph construction (paper §IV.A) and Laplacian operators (§IV.B).

* :mod:`repro.graph.similarity` — the cross-correlation measure of Eq. 7
  (the host reference of Algorithm 1's kernel);
* :mod:`repro.graph.neighbors` — ε-distance edge enumeration
  (uniform-grid spatial index for volumetric data, blockwise brute force
  in general dimension);
* :mod:`repro.graph.build` — Algorithm 1: the GPU similarity-matrix
  builder producing a COO graph, plus the host reference path;
* :mod:`repro.graph.laplacian` — Algorithm 2: degree computation and
  ``D⁻¹W`` / ``D^{-1/2} W D^{-1/2}`` scaling on device and host;
* :mod:`repro.graph.components` — connected components / isolated-node
  handling (the paper removes isolated nodes before the eigensolver).
"""

from repro.graph.similarity import cross_correlation
from repro.graph.neighbors import (
    epsilon_neighbors,
    epsilon_neighbors_grid,
)
from repro.graph.build import (
    build_similarity_graph,
    build_similarity_device,
)
from repro.graph.laplacian import (
    degrees,
    device_rw_normalize,
    device_shifted_laplacian,
    device_sym_normalize,
    laplacian,
    rw_normalized_adjacency,
    sym_normalized_adjacency,
)
from repro.graph.components import connected_components, remove_isolated
from repro.graph.delta import apply_edge_delta

__all__ = [
    "apply_edge_delta",
    "cross_correlation",
    "epsilon_neighbors",
    "epsilon_neighbors_grid",
    "build_similarity_graph",
    "build_similarity_device",
    "degrees",
    "device_rw_normalize",
    "device_shifted_laplacian",
    "device_sym_normalize",
    "laplacian",
    "rw_normalized_adjacency",
    "sym_normalized_adjacency",
    "connected_components",
    "remove_isolated",
]
