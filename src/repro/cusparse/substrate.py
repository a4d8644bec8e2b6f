"""The one sparse product substrate every format, placement and fallback
computes through.

Every simulated sparse kernel — ``csrmv``/``coomv``/``ellmv``/``hybmv``,
``csrmm``/``ellmm``/``hybmm``, the row-partitioned multi-device products,
the CPU-fallback placement and the Nyström predict product — owns one
:class:`Substrate`: the operand's canonical CSR-order ``(rows, cols,
vals)`` host arrays.  The product itself is written once here:

* :meth:`Substrate.spmv` is the fp64 ``np.bincount`` scatter-add;
* :meth:`Substrate.spmm` is the gathered-row ``np.add.reduceat`` over the
  non-empty CSR row starts (the segmented reduction
  ``thrust::reduce_by_key`` performs over the same element order);
* :func:`epilogue` applies ``y <- alpha * prod + beta * y``.

The two reductions round differently, so SpMV never routes through
``reduceat`` and SpMM never through ``bincount``.  Because every caller
reduces the same arrays in the same order, the storage format, device
count or fallback changes only the charged time — never a float of the
result.  Operands are upcast to fp64 before the multiply-reduce
(:func:`~repro.precision.as_f64` is the identity on float64); the write
into the output quantizes to its storage dtype.

:func:`charge` is the one place a sparse kernel lands on the timeline and
the launch and traffic meters.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.precision import as_f64


class Substrate:
    """The canonical CSR-order arrays one sparse product reads.

    ``indptr`` drives the SpMM row segments; ``rows`` (the per-nonzero
    row ids) drives the SpMV scatter and is expanded from ``indptr`` on
    first use unless the operand already stores it (COO).  The derived
    arrays are computed once per operand, so an operand's structure must
    not change after its first product.
    """

    def __init__(
        self,
        n_rows: int,
        cols: np.ndarray,
        vals: np.ndarray,
        indptr: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        self.n_rows = int(n_rows)
        self.cols = cols
        self.vals = vals
        self.indptr = indptr
        if rows is not None:
            self.rows = rows

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
        )

    @cached_property
    def nonempty(self) -> np.ndarray:
        """Ids of the rows holding at least one nonzero."""
        return np.flatnonzero(np.diff(self.indptr) > 0)

    @cached_property
    def starts(self) -> np.ndarray:
        """Offsets of the non-empty rows' first nonzeros."""
        return self.indptr[self.nonempty]

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in fp64."""
        return np.bincount(
            self.rows,
            weights=as_f64(self.vals) * as_f64(x)[self.cols],
            minlength=self.n_rows,
        )

    def reduce_rows(self, values: np.ndarray) -> np.ndarray:
        """Segment-sum per-nonzero ``values`` (1-D or one row per nonzero)
        by matrix row; empty rows are zero."""
        out = np.zeros((self.n_rows,) + values.shape[1:])
        if self.nonempty.size:
            out[self.nonempty] = np.add.reduceat(values, self.starts, axis=0)
        return out

    def spmm(self, B: np.ndarray) -> np.ndarray:
        """``A @ B`` in fp64 for a dense block ``B``."""
        return self.reduce_rows(as_f64(self.vals)[:, None] * as_f64(B)[self.cols])


def epilogue(out: np.ndarray, prod: np.ndarray, alpha: float, beta: float) -> None:
    """``out <- alpha * prod + beta * out`` (``out`` is not read when
    ``beta == 0``)."""
    if beta == 0.0:
        out[...] = alpha * prod
    else:
        out[...] = alpha * prod + beta * out


def charge(dev, name: str, seconds: float, traffic: float, start=None) -> None:
    """Charge one sparse kernel launch: the timeline event (at the clock,
    or at ``start`` on a shared multi-device timeline), the launch count
    and the modeled device-memory traffic."""
    if start is None:
        dev.timeline.record(name, "kernel", seconds)
    else:
        dev.timeline.record_at(name, "kernel", start, seconds)
    dev.kernel_launches += 1
    dev.spmv_traffic_bytes += traffic
