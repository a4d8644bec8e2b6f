"""Coordinate (COO) sparse matrix format.

COO stores every nonzero as a ``(row, col, value)`` triple across three
parallel ``nnz``-length arrays — "the simplest sparse matrix representation"
(paper §IV.A) and the natural output of parallel similarity construction,
where thread *i* writes edge *i*'s value independently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SparseFormatError, SparseValueError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.csr import CSRMatrix


class COOMatrix:
    """A sparse matrix in coordinate format.

    Parameters
    ----------
    row, col:
        Integer index arrays of equal length ``nnz``.
    data:
        Nonzero values, length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    check:
        Validate index ranges on construction (O(nnz)); disable only on
        trusted internal paths.
    """

    format = "coo"

    def __init__(self, row, col, data, shape: tuple[int, int], check: bool = True):
        self.row = np.asarray(row, dtype=np.int64).ravel()
        self.col = np.asarray(col, dtype=np.int64).ravel()
        self.data = np.asarray(data, dtype=np.float64).ravel()
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise SparseFormatError(f"invalid shape {shape!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        if not (self.row.size == self.col.size == self.data.size):
            raise SparseFormatError(
                f"COO arrays disagree on nnz: row={self.row.size} "
                f"col={self.col.size} data={self.data.size}"
            )
        if check:
            self._validate()

    def _validate(self) -> None:
        n, m = self.shape
        if self.row.size:
            rmin, rmax = self.row.min(), self.row.max()
            cmin, cmax = self.col.min(), self.col.max()
            if rmin < 0 or rmax >= n:
                raise SparseFormatError(
                    f"row index out of range [0, {n}): found [{rmin}, {rmax}]"
                )
            if cmin < 0 or cmax >= m:
                raise SparseFormatError(
                    f"col index out of range [0, {m}): found [{cmin}, {cmax}]"
                )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "COOMatrix":
        return self.transpose()

    def transpose(self) -> "COOMatrix":
        """Transpose is free in COO: swap the index arrays."""
        return COOMatrix(
            self.col, self.row, self.data, (self.shape[1], self.shape[0]), check=False
        )

    def copy(self) -> "COOMatrix":
        return COOMatrix(
            self.row.copy(), self.col.copy(), self.data.copy(), self.shape, check=False
        )

    def __repr__(self) -> str:
        return f"<COOMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz}>"

    # ------------------------------------------------------------------
    # cleanup
    # ------------------------------------------------------------------
    def sum_duplicates(self) -> "COOMatrix":
        """Return a copy with duplicate ``(i, j)`` entries summed."""
        if self.nnz == 0:
            return self.copy()
        keys = self.row * self.shape[1] + self.col
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        data_s = self.data[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(keys_s)) + 1))
        summed = np.add.reduceat(data_s, starts)
        uniq = keys_s[starts]
        return COOMatrix(
            uniq // self.shape[1], uniq % self.shape[1], summed, self.shape, check=False
        )

    def sorted_by_row(self) -> "COOMatrix":
        """Return a copy sorted by (row, col) — the precondition of coo2csr."""
        keys = self.row * self.shape[1] + self.col
        order = np.argsort(keys, kind="stable")
        return COOMatrix(
            self.row[order], self.col[order], self.data[order], self.shape, check=False
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_csr(self) -> "CSRMatrix":
        """Compress row indices into a CSR indptr (``cusparseXcoo2csr``)."""
        from repro.sparse.csr import CSRMatrix

        n = self.shape[0]
        order = np.argsort(self.row * self.shape[1] + self.col, kind="stable")
        rows = self.row[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(
            indptr, self.col[order], self.data[order], self.shape, check=False
        )

    def to_coo(self) -> "COOMatrix":
        return self

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.row, self.col), self.data)
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` via scatter-add on row indices."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size != self.shape[1]:
            raise SparseValueError(
                f"matvec: matrix is {self.shape}, x has length {x.size}"
            )
        y = np.bincount(
            self.row, weights=self.data * x[self.col], minlength=self.shape[0]
        )
        if out is not None:
            np.copyto(out, y)
            return out
        return y

    def row_sums(self) -> np.ndarray:
        """Per-row sums of stored values (the degree vector for a graph)."""
        return np.bincount(self.row, weights=self.data, minlength=self.shape[0])
