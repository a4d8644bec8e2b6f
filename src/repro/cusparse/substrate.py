"""The one sparse product substrate every format, placement and fallback
computes through.

Every simulated sparse kernel — ``csrmv``/``coomv``/``ellmv``,
``csrmm``/``ellmm``, the row-partitioned multi-device products,
the CPU-fallback placement and the Nyström predict product — owns one
:class:`Substrate`: the operand's canonical CSR-order ``(rows, cols,
vals)`` host arrays.  The product itself is written once here:

* :meth:`Substrate.spmv` is the fp64 ``np.bincount`` scatter-add;
* :meth:`Substrate.spmm` is the gathered-row ``np.add.reduceat`` over the
  non-empty CSR row starts (the segmented reduction
  ``thrust::reduce_by_key`` performs over the same element order);
* :func:`epilogue` applies ``y <- alpha * prod + beta * y``; an SpMM
  with ``alpha == 1, beta == 0`` into an fp64 output skips it and reduces
  straight into the output (``1.0 * prod`` is ``prod``, bit for bit).

The SpMM runs one block of whole rows at a time: it gathers the block's
rows of ``B`` into one reused scratch buffer, scales them by the block's
values in place and reduces them into the block's output rows, so its
working set is about ``_BLOCK_ELEMS`` fp64 values (cache-resident)
instead of two ``nnz × p`` temporaries.  A block ends on a row boundary
and each row is still one ``reduceat`` segment, summed along axis 0 in
element order, so every row's sum order — and every output bit — is the
one the whole-matrix expression gives.  Blocks hold about
``_BLOCK_ELEMS / p`` nonzeros, so a skewed row cannot overflow the
budget; a row longer than that is a block of its own.  The blocks are
planned once per operand and column count.

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


#: elements (nonzeros × columns of B) one SpMM block gathers: 48 Ki fp64
#: values, 384 KiB.  A sweep of 8–768 Ki elements at p=22 and p=49 on
#: sbm50k at scales 0.1 and 1.0 found it fastest or within 5% of fastest
_BLOCK_ELEMS = 48 * 1024


class Substrate:
    """The canonical CSR-order arrays one sparse product reads.

    ``indptr`` drives the SpMM row segments; ``rows`` (the per-nonzero
    row ids) drives the SpMV scatter and is expanded from ``indptr`` on
    first use unless the operand already stores it (COO).  The derived
    arrays — and the SpMM row blocks for each column count — are computed
    once per operand, so an operand's structure must not change after its
    first product.
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
        self._blocks: dict[int, tuple] = {}

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
        """``A @ x`` in fp64.  The gathered ``x[cols]`` is the one
        ``nnz`` temporary: it is scaled by the values in place (``vals *
        x[cols]``, the same operands in the same order)."""
        weights = np.take(as_f64(x), self.cols)
        np.multiply(self.vals, weights, out=weights)
        return np.bincount(self.rows, weights=weights, minlength=self.n_rows)

    def reduce_rows(self, values: np.ndarray) -> np.ndarray:
        """Segment-sum 1-D per-nonzero ``values`` by matrix row; empty
        rows are zero."""
        out = np.zeros(self.n_rows)
        if self.nonempty.size:
            out[self.nonempty] = np.add.reduceat(values, self.starts)
        return out

    def _row_blocks(self, p: int) -> tuple:
        """``(widest, blocks)`` for a ``p``-column product: each block is
        ``(s, e, starts, target)`` — its nonzero range ``[s, e)``, its
        non-empty rows' offsets into that range, and the output rows they
        reduce into (a slice when the block has no empty rows).  Blocks
        hold whole rows and about ``_BLOCK_ELEMS / p`` nonzeros; a row
        longer than that is a block of its own, and a product that fits
        the budget is one block."""
        plan = self._blocks.get(p)
        if plan is not None:
            return plan
        indptr, n = self.indptr, self.n_rows
        per = _BLOCK_ELEMS // max(p, 1)
        blocks, widest, r0 = [], 0, 0
        while r0 < n:
            s = int(indptr[r0])
            r1 = int(np.searchsorted(indptr, s + per, side="right")) - 1
            r1 = min(max(r1, r0 + 1), n)
            e = int(indptr[r1])
            if e > s:
                lengths = np.diff(indptr[r0 : r1 + 1])
                if lengths.all():
                    starts, target = indptr[r0:r1] - s, slice(r0, r1)
                else:
                    ids = np.flatnonzero(lengths)
                    starts, target = indptr[r0 + ids] - s, r0 + ids
                blocks.append((s, e, starts, target))
                widest = max(widest, e - s)
            r0 = r1
        plan = self._blocks[p] = (widest, blocks)
        return plan

    def spmm(self, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ B`` in fp64 for a dense block ``B``, one row block at a
        time (see the module docstring).  ``out``, when given, is an fp64
        ``(n_rows, p)`` array sharing no memory with ``B``; the rows reduce
        straight into it."""
        B = as_f64(B)
        p = B.shape[1]
        if out is None:
            out = np.zeros((self.n_rows, p))
        else:
            out.fill(0.0)
        widest, blocks = self._row_blocks(p)
        buf = np.empty((widest, p))
        for s, e, starts, target in blocks:
            block = buf[: e - s]
            # the host CSR checked its column range, so "clip" never
            # clips; it only skips the copy "raise" makes of ``out``
            np.take(B, self.cols[s:e], axis=0, out=block, mode="clip")
            block *= as_f64(self.vals[s:e])[:, None]
            if isinstance(target, slice):
                np.add.reduceat(block, starts, axis=0, out=out[target])
            else:
                out[target] = np.add.reduceat(block, starts, axis=0)
        return out


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
