"""The one sparse product substrate every format, placement and fallback
computes through.

Every simulated sparse kernel — ``csrmv``/``coomv``/``ellmv``,
``csrmm``/``ellmm``, the row-partitioned multi-device products,
the CPU-fallback placement and the Nyström predict product — owns one
:class:`Substrate`: the operand's canonical CSR-order ``(cols, vals)``
host arrays and its row pointer (a COO operand: its row ids).  The
product itself is written once here:

* :meth:`Substrate.spmv` on an operand with a row pointer (CSR, the ELL
  that shares it, the partitioned and CPU-fallback products) is a
  jagged-diagonal row sweep, :class:`RowSweep`, planned on the first
  product;
* :meth:`Substrate.spmv` on a COO operand is the fp64 ``np.bincount``
  scatter-add over its row ids;
* :meth:`Substrate.spmm` is the gathered-row ``np.add.reduceat`` over the
  non-empty CSR row starts (the segmented reduction
  ``thrust::reduce_by_key`` performs over the same element order);
* :func:`epilogue` applies ``y <- alpha * prod + beta * y``; an SpMM
  with ``alpha == 1, beta == 0`` into an fp64 output skips it and reduces
  straight into the output (``1.0 * prod`` is ``prod``, bit for bit).

The row sweep ranks the rows by length, longest first, and stores the
nonzeros as diagonals: diagonal ``j`` is the ``j``-th nonzero of every
row that has more than ``j``.  A product gathers and scales all of
``x[cols]`` at once, then adds diagonal ``j`` into the first ``c_j``
entries of a zeroed output in one vector add per diagonal; a diagonal
with fewer than ``_TAIL_ROWS`` rows, and everything after it, goes
through one ``np.add.at``.  Each row's sum thus starts at +0.0 and adds
its products in CSR element order — the ``bincount`` scatter's order,
with no padding slot — so both return the same bits, signed zeros and
infinities included.  Only which of two NaN operands survives an add
depends on numpy's vector lanes, so a product holding a NaN is redone by
the scatter.  The plan costs ``nnz × (8 + itemsize)`` bytes (int64 column
ids and the values in diagonal order) plus 8 per row, and because it
copies the values, a CSR operand's values must not change after its first
product (they are all written at construction).  COO operands keep the
scatter for that reason: the Laplacian rescales a COO operand's values in
place after its degree product, and a retry restores and reuses them.

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

The SpMV and SpMM reductions round differently, so SpMV never routes
through ``reduceat`` and SpMM never through the row sweep (a
jagged-diagonal SpMM would not be bit-identical to ``reduceat``).
Because every caller reduces the same arrays in the same order, the
storage format, device count or fallback changes only the charged time —
never a float of the result.  Operands are upcast to fp64 before the
multiply-reduce (:func:`~repro.precision.as_f64` is the identity on
float64); the write into the output quantizes to its storage dtype.

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


#: a diagonal with fewer active rows than this ends the SpMV sweep: its
#: entries and every later diagonal's (the longest rows' remainders) are
#: summed by one ``np.add.at``, so a hub row costs one call instead of one
#: pass per nonzero
_TAIL_ROWS = 64


class RowSweep:
    """A CSR operand's SpMV plan: its nonzeros as jagged diagonals.

    The rows are ranked by length, longest first (a stable sort), and
    diagonal ``j`` holds the ``j``-th nonzero of every row that has more
    than ``j``, in rank order, so its active rows are ranks ``0 .. c-1``.
    ``jc``/``jv`` hold the diagonals' column ids and values back to back:
    first the swept diagonals, ``spans`` of ``(offset, c)`` with ``c >=
    _TAIL_ROWS``, then from ``tail`` on the remaining entries of the
    fewer than ``_TAIL_ROWS`` longest rows, row by row in element order,
    ``tail_rank`` naming each entry's rank.  ``rank[r]`` is row ``r``'s
    rank.
    """

    def __init__(
        self,
        jc: np.ndarray,
        jv: np.ndarray,
        spans: list[tuple[int, int]],
        tail_rank: np.ndarray,
        rank: np.ndarray,
    ) -> None:
        self.jc = jc
        self.jv = jv
        self.spans = spans
        self.tail = jc.size - tail_rank.size
        self.tail_rank = tail_rank
        self.rank = rank

    @classmethod
    def build(
        cls, indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> RowSweep:
        """Plan the sweep with one gather per swept diagonal and one for
        the tail (no loop per row)."""
        n = indptr.size - 1
        lengths = np.diff(indptr)
        order = np.argsort(-lengths, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        first = indptr[order]  # each ranked row's first nonzero
        sorted_len = lengths[order]
        widest = int(sorted_len[0]) if n else 0
        # active[j]: rows holding more than j nonzeros
        active = np.searchsorted(-sorted_len, -np.arange(widest), side="left")
        swept = int(np.count_nonzero(active >= _TAIL_ROWS))
        jc = np.empty(cols.size, dtype=np.int64)
        jv = np.empty(cols.size, dtype=vals.dtype)
        spans, s = [], 0
        for j in range(swept):
            c = int(active[j])
            src = first[:c] + j
            jc[s : s + c] = cols[src]
            jv[s : s + c] = vals[src]
            spans.append((s, c))
            s += c
        c = int(active[swept]) if swept < widest else 0
        rest = sorted_len[:c] - swept
        tail_rank = np.repeat(np.arange(c, dtype=np.int64), rest)
        src = np.arange(tail_rank.size) + np.repeat(
            first[:c] + swept - (np.cumsum(rest) - rest), rest
        )
        jc[s:] = cols[src]
        jv[s:] = vals[src]
        return cls(jc, jv, spans, tail_rank, rank)

    @property
    def nbytes(self) -> int:
        """Host bytes the plan holds: ``nnz × (8 + itemsize)`` for the
        diagonals, plus 8 per row (``rank``) and per tail entry."""
        return (
            self.jc.nbytes + self.jv.nbytes + self.rank.nbytes
            + self.tail_rank.nbytes
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in fp64: each row's sum starts at +0.0 and adds its
        products in element order."""
        p = np.take(as_f64(x), self.jc)
        np.multiply(self.jv, p, out=p)
        y = np.zeros(self.rank.size)
        for s, c in self.spans:
            y[:c] += p[s : s + c]
        if self.tail_rank.size:
            np.add.at(y, self.tail_rank, p[self.tail :])
        return y[self.rank]


class Substrate:
    """The canonical CSR-order arrays one sparse product reads.

    ``indptr`` drives the CSR row sweep and the SpMM row segments; a COO
    operand has no row pointer and stores ``rows`` (the per-nonzero row
    ids) for its scatter.  A CSR operand's derived plans — the SpMV row
    sweep, and the SpMM row blocks for each column count — are built on
    its first product and kept, so its structure *and values* must not
    change after that product.  A COO operand's values may be rewritten
    between products (the Laplacian rescales them in place, and a retry
    restores them): its scatter reads ``vals`` on every call.
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
        self.rows = rows
        self._blocks: dict[int, tuple] = {}

    @cached_property
    def nonempty(self) -> np.ndarray:
        """Ids of the rows holding at least one nonzero."""
        return np.flatnonzero(np.diff(self.indptr) > 0)

    @cached_property
    def starts(self) -> np.ndarray:
        """Offsets of the non-empty rows' first nonzeros."""
        return self.indptr[self.nonempty]

    @cached_property
    def sweep(self) -> RowSweep:
        """The SpMV row-sweep plan (see the module docstring)."""
        return RowSweep.build(self.indptr, self.cols, self.vals)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in fp64: the row sweep for a CSR operand, the
        ``bincount`` scatter for a COO one.  Both sum each row from +0.0
        over its products in element order.  The gathered ``x[cols]`` is
        the one ``nnz`` temporary: it is scaled by the values in place
        (``vals * x[cols]``, the same operands in the same order)."""
        if self.indptr is not None:
            y = self.sweep.spmv(x)
            # The sweep's vector adds keep every bit of a finite, infinite
            # or zero sum, but not which of two NaN operands survives
            # (numpy's full vectors and remainder lanes pick differently),
            # so a product holding a NaN is redone by the scatter.
            if not np.isnan(y).any():
                return y
        if not self.cols.size:
            return np.zeros(self.n_rows)  # ``bincount`` would give int64
        rows = self.rows
        if rows is None:
            rows = np.repeat(
                np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
            )
        weights = np.take(as_f64(x), self.cols)
        np.multiply(self.vals, weights, out=weights)
        return np.bincount(rows, weights=weights, minlength=self.n_rows)

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
