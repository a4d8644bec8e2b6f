"""Simulated cuBLAS: dense BLAS on device arrays with modeled K20c costs."""

from repro.cublas.blas import gemm

__all__ = ["gemm"]
