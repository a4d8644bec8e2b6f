"""The CSR SpMV row sweep against the scatter it replaced.

``scatter_spmv`` is the ``np.bincount`` product every CSR operand ran
before the row sweep, kept here as the oracle: each row's sum starts at
+0.0 and adds ``vals[e] * x[cols[e]]`` in CSR element order.  The sweep
adds the same products in the same order, so it must return the same
bytes for every input, signed zeros, infinities and NaNs included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cuda.device import Device
from repro.cusparse import substrate
from repro.cusparse.formats import csr_to_ell
from repro.cusparse.matrices import DeviceCOO, csr_to_device
from repro.cusparse.spmv import coomv, csrmv, ellmv
from repro.precision import PRECISION_DTYPES, as_f64, quantize
from repro.sparse.construct import random_sparse

_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def scatter_spmv(indptr, cols, vals, x) -> np.ndarray:
    """The oracle: the ``np.bincount`` scatter over CSR order (fp64; a
    product with no nonzeros is all +0.0)."""
    n = indptr.size - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    weights = np.take(as_f64(x), cols)
    np.multiply(vals, weights, out=weights)
    # bincount of no weights is int64 zeros: the bytes of fp64 +0.0
    return np.bincount(rows, weights=weights, minlength=n).astype(np.float64)


def _operand(lengths, n_cols, dtype, rng):
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    cols = rng.integers(0, n_cols, nnz)
    vals = rng.standard_normal(nnz)
    vals[rng.random(nnz) < 0.2] = 0.0  # inf * 0 makes a NaN product
    return indptr, cols, quantize(vals, dtype)


@given(
    lengths=st.lists(st.integers(0, 6), max_size=150),
    hub=st.integers(0, 3 * substrate._TAIL_ROWS),
    n_cols=st.integers(1, 16),
    precision=st.sampled_from(sorted(PRECISION_DTYPES)),
    tail_rows=st.sampled_from([1, 3, substrate._TAIL_ROWS]),
    special_frac=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(lengths=[], hub=0, n_cols=3, precision="fp64",
         tail_rows=substrate._TAIL_ROWS, special_frac=0.0, seed=0)  # n = 0
@example(lengths=[0, 0, 0], hub=0, n_cols=3, precision="fp32",
         tail_rows=substrate._TAIL_ROWS, special_frac=0.3, seed=0)  # nnz = 0
@example(lengths=[5], hub=0, n_cols=4, precision="fp16",
         tail_rows=substrate._TAIL_ROWS, special_frac=0.3, seed=1)  # one row
@example(lengths=[3, 0, 4, 1] * 10, hub=0, n_cols=8, precision="fp64",
         tail_rows=substrate._TAIL_ROWS, special_frac=0.0, seed=2)  # all tail
@example(lengths=[2, 0, 1] * 40, hub=3 * substrate._TAIL_ROWS, n_cols=16,
         precision="fp64", tail_rows=substrate._TAIL_ROWS, special_frac=0.3,
         seed=3)  # a hub row past the tail threshold
@settings(max_examples=300, deadline=None)
def test_sweep_matches_scatter_bytes(
    lengths, hub, n_cols, precision, tail_rows, special_frac, seed
):
    rng = np.random.default_rng(seed)
    if lengths and hub:
        lengths = list(lengths)
        lengths[seed % len(lengths)] = hub
    indptr, cols, vals = _operand(lengths, n_cols, PRECISION_DTYPES[precision], rng)
    x = rng.standard_normal(n_cols)
    special = rng.random(n_cols) < special_frac
    x[special] = rng.choice(_SPECIALS, int(special.sum()))
    with mock.patch.object(substrate, "_TAIL_ROWS", tail_rows):
        sub = substrate.Substrate(len(lengths), cols, vals, indptr=indptr)
        with np.errstate(invalid="ignore"):
            got = sub.spmv(x)
            want = scatter_spmv(indptr, cols, vals, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_nan_operands_keep_the_scatters_nan():
    """A row meeting both NaN signs (``x`` holds +NaN, ``inf * 0`` makes
    the default NaN) keeps the one the in-order sum keeps.  The odd row
    count leaves some rows to the remainder lanes of numpy's vector add."""
    n = 3 * substrate._TAIL_ROWS + 7
    indptr = np.arange(0, 2 * n + 1, 2)
    cols = np.tile([0, 1], n)
    vals = np.tile([0.0, 1.0], n)
    x = np.array([np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        got = substrate.Substrate(n, cols, vals, indptr=indptr).spmv(x)
        want = scatter_spmv(indptr, cols, vals, x)
    assert np.isnan(got).all()
    assert got.tobytes() == want.tobytes()


def _sample_csr(device, rng, n=300):
    host = random_sparse(n, n, 0.25, rng=rng, symmetric=True).to_csr()
    return csr_to_device(device, host)


def test_plan_built_once_per_operand(rng):
    """Every format and repeat product of one operand reuses its plan."""
    device = Device()
    A = _sample_csr(device, rng)
    ell = csr_to_ell(A)
    x = device.to_device(rng.standard_normal(A.shape[1]))
    with mock.patch.object(
        substrate.RowSweep, "build", wraps=substrate.RowSweep.build
    ) as build:
        first = csrmv(A, x).data.copy()
        for _ in range(3):
            assert csrmv(A, x).data.tobytes() == first.tobytes()
            assert ellmv(ell, x).data.tobytes() == first.tobytes()
    assert build.call_count == 1


def test_plan_bytes_pinned():
    """The plan holds ``nnz × (8 + itemsize)`` for the diagonals, plus one
    int64 per row and per tail entry (fewer than ``_TAIL_ROWS`` rows'
    remainders) — nothing else per nonzero."""
    rng = np.random.default_rng(7)
    tail_rows = substrate._TAIL_ROWS
    lengths = rng.integers(0, 9, 500)
    lengths[[3, 70]] = [4 * tail_rows, tail_rows + 5]
    for dtype in PRECISION_DTYPES.values():
        indptr, cols, vals = _operand(lengths, 500, dtype, rng)
        sub = substrate.Substrate(lengths.size, cols, vals, indptr=indptr)
        sub.spmv(rng.standard_normal(500))
        active = np.array([(lengths > j).sum() for j in range(lengths.max())])
        swept = int((active >= tail_rows).sum())
        n_tail = int(np.maximum(lengths - swept, 0).sum())
        assert 0 < n_tail < tail_rows * lengths.max()
        nnz = int(indptr[-1])
        assert sub.sweep.nbytes == nnz * (8 + dtype.itemsize) + 8 * (
            lengths.size + n_tail
        )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_coo_scatter_reads_current_values(rng, dtype):
    """``coomv`` reads the operand's values on every call: the Laplacian
    rescales a COO operand in place after its degree product, and a retry
    restores the values and multiplies again.  A plan caching COO values
    would serve the stale products here."""
    device = Device()
    host = random_sparse(120, 120, 0.1, rng=rng, symmetric=True)

    def upload():
        return DeviceCOO(
            row=device.to_device(host.row), col=device.to_device(host.col),
            val=device.to_device(host.data.astype(dtype)), shape=host.shape,
        )

    x = device.to_device(rng.standard_normal(120))
    A = upload()
    coomv(A, x)
    vals = A.val.data
    vals *= dtype(0.5)  # in place, as ScaleElements does
    got = coomv(A, x).data.copy()
    fresh = upload()
    fresh.val.data[...] = vals
    assert got.tobytes() == coomv(fresh, x).data.tobytes()
