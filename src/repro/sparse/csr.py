"""Compressed Sparse Row (CSR) format.

CSR stores the nonzero values row by row, with a prefix-sum ``indptr`` array
delimiting rows (paper §IV.A).  It is the format the eigensolver's repeated
``csrmv`` runs on, so ``matvec`` here is the hot reference kernel: products
are formed vectorized and scatter-added by row with ``bincount`` on a cached
row-expansion array (amortized across the thousands of Lanczos iterations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SparseFormatError, SparseValueError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.coo import COOMatrix


class CSRMatrix:
    """A sparse matrix in compressed sparse row format.

    Parameters
    ----------
    indptr:
        Length ``n_rows + 1`` prefix sums; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column indices, length ``nnz``.
    data:
        Nonzero values, length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    """

    format = "csr"

    def __init__(self, indptr, indices, data, shape: tuple[int, int], check: bool = True):
        self.indptr = np.asarray(indptr, dtype=np.int64).ravel()
        self.indices = np.asarray(indices, dtype=np.int64).ravel()
        self.data = np.asarray(data, dtype=np.float64).ravel()
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise SparseFormatError(f"invalid shape {shape!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        self._row_expansion: np.ndarray | None = None
        if check:
            self._validate()

    def _validate(self) -> None:
        n, m = self.shape
        if self.indptr.size != n + 1:
            raise SparseFormatError(
                f"indptr length {self.indptr.size} != n_rows+1 = {n + 1}"
            )
        if self.indptr.size and self.indptr[0] != 0:
            raise SparseFormatError(f"indptr[0] must be 0, got {self.indptr[0]}")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise SparseFormatError(
                f"indptr[-1]={self.indptr[-1]} != nnz={self.indices.size}"
            )
        if self.indices.size != self.data.size:
            raise SparseFormatError(
                f"indices/data length mismatch: {self.indices.size} vs {self.data.size}"
            )
        if self.indices.size:
            cmin, cmax = self.indices.min(), self.indices.max()
            if cmin < 0 or cmax >= m:
                raise SparseFormatError(
                    f"column index out of range [0, {m}): found [{cmin}, {cmax}]"
                )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return f"<CSRMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz}>"

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(),
            self.shape, check=False,
        )

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _rows(self) -> np.ndarray:
        """Expanded per-nonzero row indices (cached)."""
        if self._row_expansion is None or self._row_expansion.size != self.nnz:
            self._row_expansion = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), self.row_lengths()
            )
        return self._row_expansion

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":
        from repro.sparse.coo import COOMatrix

        return COOMatrix(
            self._rows().copy(), self.indices.copy(), self.data.copy(),
            self.shape, check=False,
        )

    def to_csr(self) -> "CSRMatrix":
        return self

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self._rows(), self.indices), self.data)
        return out

    def transpose(self) -> "CSRMatrix":
        """Aᵀ as CSR (equivalently: reinterpret as CSC and recompress)."""
        return self.to_coo().transpose().to_csr()

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` — the reference host ``csrmv``."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size != self.shape[1]:
            raise SparseValueError(
                f"matvec: matrix is {self.shape}, x has length {x.size}"
            )
        y = np.bincount(
            self._rows(), weights=self.data * x[self.indices], minlength=self.shape[0]
        )
        if out is not None:
            np.copyto(out, y)
            return out
        return y

    def row_sums(self) -> np.ndarray:
        return np.bincount(self._rows(), weights=self.data, minlength=self.shape[0])

    def scale_rows(self, s: np.ndarray) -> "CSRMatrix":
        """Return ``diag(s) @ A``."""
        s = np.asarray(s, dtype=np.float64).ravel()
        if s.size != self.shape[0]:
            raise SparseValueError(
                f"scale_rows: matrix has {self.shape[0]} rows, s has {s.size}"
            )
        return CSRMatrix(
            self.indptr, self.indices, self.data * s[self._rows()],
            self.shape, check=False,
        )

    def scale_cols(self, s: np.ndarray) -> "CSRMatrix":
        """Return ``A @ diag(s)``."""
        s = np.asarray(s, dtype=np.float64).ravel()
        if s.size != self.shape[1]:
            raise SparseValueError(
                f"scale_cols: matrix has {self.shape[1]} cols, s has {s.size}"
            )
        return CSRMatrix(
            self.indptr, self.indices, self.data * s[self.indices],
            self.shape, check=False,
        )

    def getrow(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise SparseValueError(f"row {i} out of range for {self.shape}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def add(self, other: "CSRMatrix") -> "CSRMatrix":
        """Elementwise sum with another CSR matrix of the same shape."""
        if self.shape != other.shape:
            raise SparseValueError(f"add: shapes {self.shape} vs {other.shape}")
        from repro.sparse.coo import COOMatrix

        row = np.concatenate([self._rows(), other._rows()])
        col = np.concatenate([self.indices, other.indices])
        dat = np.concatenate([self.data, other.data])
        return COOMatrix(row, col, dat, self.shape, check=False).sum_duplicates().to_csr()

    def scaled(self, alpha: float) -> "CSRMatrix":
        return CSRMatrix(
            self.indptr, self.indices, self.data * alpha, self.shape, check=False
        )
