"""Simulated Thrust: STL-like parallel primitives on device arrays.

The paper's k-means (centroid update via sort + segmented reduction) and
k-means++ seeding (prefix sums, weighted sampling) are built on these
primitives, exactly as the reference CUDA implementation builds on the real
Thrust library.
"""

from repro.thrust.algorithms import (
    copy,
    exclusive_scan,
    inclusive_scan,
    lower_bound,
    reduce_by_key,
    sort_by_key,
    transform,
)

__all__ = [
    "copy",
    "exclusive_scan",
    "inclusive_scan",
    "lower_bound",
    "reduce_by_key",
    "sort_by_key",
    "transform",
]
