"""Product parity: every sparse product entry point pinned float for float.

Each cell runs one entry point at one storage precision (and, where the
kernel takes them, one ``(alpha, beta)`` pair) on a matrix with empty
rows and one long row, and compares
against frozen values:

* the SHA-256 of the output bytes (dtype and shape included);
* the ``(name, duration)`` list of every timeline event the call added;
* the ``kernel_launches`` and ``spmv_traffic_bytes`` deltas, summed over
  the device group.

The frozen table is the simulator's contract: a refactor of the sparse
substrate or of the kernel charges may not move one bit of it.  The SpMM
cells run twice: at the default block budget (one block) and at a budget
small enough that every product spans many row blocks.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.workflow import CPUPlacement, Solve
from repro.cuda.device import Device
from repro.cusparse import substrate
from repro.cusparse.formats import csr_to_ell
from repro.cusparse.matrices import DeviceCOO, cast_csr, csr_to_device
from repro.cusparse.partition import (
    device_group,
    partition_csr,
    spmm_partitioned,
    spmv_partitioned,
)
from repro.cusparse.spmm import csrmm, ellmm
from repro.cusparse.spmv import coomv, csrmv, ellmv
from repro.linalg.nystrom import nystrom_product
from repro.precision import (
    PRECISION_DTYPES,
    as_f64,
    quantize,
    quantize_roundtrip,
)
from repro.sparse.coo import COOMatrix

N = 48
P_COLS = 3
#: block budget (nonzeros × columns) that splits the table's matrix into
#: blocks of a few rows at ``P_COLS`` columns
SMALL_BUDGET = 12 * P_COLS
ALPHA_BETA = ((1.0, 0.0), (0.5, 2.0))

_KERNELS = {
    "csrmv": csrmv, "coomv": coomv, "ellmv": ellmv,
    "csrmm": csrmm, "ellmm": ellmm,
}
#: entry points without an alpha/beta epilogue run the (1, 0) cell only
_PLAIN = (
    "spmv_partitioned", "spmm_partitioned", "cpu_spmv", "cpu_spmm",
    "nystrom_product",
)


def _host_matrix() -> COOMatrix:
    rng = np.random.default_rng(2024)
    dense = (rng.random((N, N)) < 0.12) * rng.standard_normal((N, N))
    dense[[5, 17, 30]] = 0.0  # empty rows
    dense[9] = rng.standard_normal(N)  # one long row
    rows, cols = np.nonzero(dense)
    return COOMatrix(rows, cols, dense[rows, cols], shape=(N, N))


def _operands():
    rng = np.random.default_rng(7)
    return (
        rng.standard_normal(N),
        rng.standard_normal((N, P_COLS)),
        rng.standard_normal(N),
        rng.standard_normal((N, P_COLS)),
    )


def _digest(out: np.ndarray) -> str:
    out = np.ascontiguousarray(out)
    h = hashlib.sha256(f"{out.dtype.str}{out.shape}".encode())
    h.update(out.tobytes())
    return h.hexdigest()


def _run(entry: str, precision: str, alpha: float, beta: float):
    """One cell: ``(output sha256, [(name, duration)], launches, bytes)``."""
    dtype = PRECISION_DTYPES[precision]
    coo = _host_matrix()
    host = coo.to_csr()
    x64, B64, y64, C64 = _operands()
    devices = (
        device_group(Device(), 2) if entry.endswith("_partitioned")
        else [Device()]
    )
    dev = devices[0]
    A = cast_csr(dev, csr_to_device(dev, host), dtype)
    vector = entry.endswith("mv") or entry in ("spmv_partitioned", "cpu_spmv")

    if entry in _KERNELS:
        if entry == "coomv":
            op = DeviceCOO(
                row=dev.to_device(coo.row),
                col=dev.to_device(coo.col),
                val=dev.to_device(quantize(coo.data, dtype)),
                shape=coo.shape,
            )
        elif entry.startswith("ell"):
            op = csr_to_ell(A)
        else:
            op = A
        dx = dev.to_device(quantize(x64 if vector else B64, dtype))
        dy = (
            dev.to_device(quantize(y64 if vector else C64, dtype))
            if beta != 0.0 else None
        )

        def call():
            return _KERNELS[entry](op, dx, dy, alpha=alpha, beta=beta).data
    elif entry.endswith("_partitioned"):
        P = partition_csr(A, devices)
        product = spmv_partitioned if vector else spmm_partitioned
        xq = quantize_roundtrip(x64 if vector else B64, dtype)

        def call():
            return product(P, xq)
    elif entry.startswith("cpu_"):
        s = Solve(dev, csr_to_device(dev, host), k=2, precision=precision)
        cpu = CPUPlacement(s)

        def call():
            return cpu.apply(x64 if vector else B64)
    else:
        vals = quantize(host.data, dtype)

        def call():
            return nystrom_product(host.indptr, host.indices, vals, B64)

    tl = dev.timeline
    n0 = len(tl)
    k0 = sum(d.kernel_launches for d in devices)
    b0 = sum(d.spmv_traffic_bytes for d in devices)
    out = call()
    return (
        _digest(out),
        [(ev.name, ev.duration) for ev in tl.events[n0:]],
        sum(d.kernel_launches for d in devices) - k0,
        sum(d.spmv_traffic_bytes for d in devices) - b0,
    )


def _cells():
    for entry in (*_KERNELS, *_PLAIN):
        for precision in PRECISION_DTYPES:
            pairs = ALPHA_BETA[:1] if entry in _PLAIN else ALPHA_BETA
            for alpha, beta in pairs:
                yield f"{entry}-{precision}-{alpha:g},{beta:g}"


#: frozen at the commit before the sparse products were written once
EXPECTED: dict = {'csrmv-fp64-1,0': ('dc6003290a5f339572001d4c3629da6148762e2668b3258765cd2ae5f9b99598',
                    [('cudaMalloc', 1e-05), ('cusparseDcsrmv', 8.123999999999999e-06)],
                    1,
                    6448.0),
 'csrmv-fp64-0.5,2': ('ad690cb832390bf7bc524ce18790bde331d23a1a4dcb225d070b5188844201d6',
                      [('cusparseDcsrmv', 8.123999999999999e-06)],
                      1,
                      6448.0),
 'csrmv-fp32-1,0': ('3b9ccb375a3565b6dc8cbba00f585d9bf96873a79e777cd84f2b5075c6347586',
                    [('cudaMalloc', 1e-05), ('cusparseScsrmv', 8.072923076923077e-06)],
                    1,
                    3792.0),
 'csrmv-fp32-0.5,2': ('ba188bfd91a0454974201c251fb0c777f2267eb5f028755edfdbc55dd22ef6dd',
                      [('cusparseScsrmv', 8.072923076923077e-06)],
                      1,
                      3792.0),
 'csrmv-fp16-1,0': ('a595fa67fda75ea5664aa51d5bab3612523201b043c80191dc46e32411929fff',
                    [('cudaMalloc', 1e-05), ('cusparseHcsrmv', 8.047384615384615e-06)],
                    1,
                    2464.0),
 'csrmv-fp16-0.5,2': ('4e1a280a9b5e80c9168cf9846ac45c955c32c73b0909d44a89645efa2afd4ad5',
                      [('cusparseHcsrmv', 8.047384615384615e-06)],
                      1,
                      2464.0),
 'coomv-fp64-1,0': ('dc6003290a5f339572001d4c3629da6148762e2668b3258765cd2ae5f9b99598',
                    [('cudaMalloc', 1e-05), ('cusparseDcoomv', 1.6247999999999998e-05)],
                    1,
                    6448.0),
 'coomv-fp64-0.5,2': ('ad690cb832390bf7bc524ce18790bde331d23a1a4dcb225d070b5188844201d6',
                      [('cusparseDcoomv', 1.6247999999999998e-05)],
                      1,
                      6448.0),
 'coomv-fp32-1,0': ('3b9ccb375a3565b6dc8cbba00f585d9bf96873a79e777cd84f2b5075c6347586',
                    [('cudaMalloc', 1e-05), ('cusparseScoomv', 1.6145846153846153e-05)],
                    1,
                    3792.0),
 'coomv-fp32-0.5,2': ('ba188bfd91a0454974201c251fb0c777f2267eb5f028755edfdbc55dd22ef6dd',
                      [('cusparseScoomv', 1.6145846153846153e-05)],
                      1,
                      3792.0),
 'coomv-fp16-1,0': ('a595fa67fda75ea5664aa51d5bab3612523201b043c80191dc46e32411929fff',
                    [('cudaMalloc', 1e-05), ('cusparseHcoomv', 1.609476923076923e-05)],
                    1,
                    2464.0),
 'coomv-fp16-0.5,2': ('4e1a280a9b5e80c9168cf9846ac45c955c32c73b0909d44a89645efa2afd4ad5',
                      [('cusparseHcoomv', 1.609476923076923e-05)],
                      1,
                      2464.0),
 'ellmv-fp64-1,0': ('dc6003290a5f339572001d4c3629da6148762e2668b3258765cd2ae5f9b99598',
                    [('cudaMalloc', 1e-05), ('cusparseDellmv', 8.225846153846153e-06)],
                    1,
                    30688.0),
 'ellmv-fp64-0.5,2': ('ad690cb832390bf7bc524ce18790bde331d23a1a4dcb225d070b5188844201d6',
                      [('cusparseDellmv', 8.225846153846153e-06)],
                      1,
                      30688.0),
 'ellmv-fp32-1,0': ('3b9ccb375a3565b6dc8cbba00f585d9bf96873a79e777cd84f2b5075c6347586',
                    [('cudaMalloc', 1e-05), ('cusparseSellmv', 8.142461538461539e-06)],
                    1,
                    19952.0),
 'ellmv-fp32-0.5,2': ('ba188bfd91a0454974201c251fb0c777f2267eb5f028755edfdbc55dd22ef6dd',
                      [('cusparseSellmv', 8.142461538461539e-06)],
                      1,
                      19952.0),
 'ellmv-fp16-1,0': ('a595fa67fda75ea5664aa51d5bab3612523201b043c80191dc46e32411929fff',
                    [('cudaMalloc', 1e-05), ('cusparseHellmv', 8.10076923076923e-06)],
                    1,
                    14584.0),
 'ellmv-fp16-0.5,2': ('4e1a280a9b5e80c9168cf9846ac45c955c32c73b0909d44a89645efa2afd4ad5',
                      [('cusparseHellmv', 8.10076923076923e-06)],
                      1,
                      14584.0),
 'csrmm-fp64-1,0': ('91860bba18c32698124b0c0d6cd22a84e987bc246f9b3b8c859df9f2796a45f5',
                    [('cudaMalloc', 1e-05), ('cusparseDcsrmm', 8.248461538461539e-06)],
                    1,
                    12920.0),
 'csrmm-fp64-0.5,2': ('4fd82a2fd15bb85ae20cf2a3a843941f2bddd7529d678b5074b04a5767713b5c',
                      [('cusparseDcsrmm', 8.248461538461539e-06)],
                      1,
                      12920.0),
 'csrmm-fp32-1,0': ('34a5a99e25e9a329285b13a27127232f23a8af3e295ab1826f3a94cc7f5aa951',
                    [('cudaMalloc', 1e-05), ('cusparseScsrmm', 8.138923076923077e-06)],
                    1,
                    7224.0),
 'csrmm-fp32-0.5,2': ('eec71065ddfc321bb94c0e73a9a2cdef39f61d2df8021386c5259dd8223d1fd4',
                      [('cusparseScsrmm', 8.138923076923077e-06)],
                      1,
                      7224.0),
 'csrmm-fp16-1,0': ('4e58bf05601a5786c12ad1da0d95f4c7623b578e38bc242cbbe36ebfa26ed2d2',
                    [('cudaMalloc', 1e-05), ('cusparseHcsrmm', 8.084153846153845e-06)],
                    1,
                    4376.0),
 'csrmm-fp16-0.5,2': ('4f2931d36c20bfc97cca7069f3e7861448a6ea9687dc49c189db36f72d45f27b',
                      [('cusparseHcsrmm', 8.084153846153845e-06)],
                      1,
                      4376.0),
 'ellmm-fp64-1,0': ('91860bba18c32698124b0c0d6cd22a84e987bc246f9b3b8c859df9f2796a45f5',
                    [('cudaMalloc', 1e-05), ('cusparseDellmm', 8.323076923076922e-06)],
                    1,
                    36768.0),
 'ellmm-fp64-0.5,2': ('4fd82a2fd15bb85ae20cf2a3a843941f2bddd7529d678b5074b04a5767713b5c',
                      [('cusparseDellmm', 8.323076923076922e-06)],
                      1,
                      36768.0),
 'ellmm-fp32-1,0': ('34a5a99e25e9a329285b13a27127232f23a8af3e295ab1826f3a94cc7f5aa951',
                    [('cudaMalloc', 1e-05), ('cusparseSellmm', 8.191076923076922e-06)],
                    1,
                    22992.0),
 'ellmm-fp32-0.5,2': ('eec71065ddfc321bb94c0e73a9a2cdef39f61d2df8021386c5259dd8223d1fd4',
                      [('cusparseSellmm', 8.191076923076922e-06)],
                      1,
                      22992.0),
 'ellmm-fp16-1,0': ('4e58bf05601a5786c12ad1da0d95f4c7623b578e38bc242cbbe36ebfa26ed2d2',
                    [('cudaMalloc', 1e-05), ('cusparseHellmm', 8.125076923076923e-06)],
                    1,
                    16104.0),
 'ellmm-fp16-0.5,2': ('4f2931d36c20bfc97cca7069f3e7861448a6ea9687dc49c189db36f72d45f27b',
                      [('cusparseHellmm', 8.125076923076923e-06)],
                      1,
                      16104.0),
 'spmv_partitioned-fp64-1,0': ('dc6003290a5f339572001d4c3629da6148762e2668b3258765cd2ae5f9b99598',
                               [('cusparseDcsrmv[local,dev0]', 8.029538461538462e-06),
                                ('memcpyPeerAsync[216B<-dev1]', 1.0036e-05),
                                ('cusparseDcsrmv[halo,dev0]', 3.8e-08),
                                ('cusparseDcsrmv[local,dev1]', 8.041384615384615e-06),
                                ('memcpyPeerAsync[168B<-dev0]', 1.0028000000000001e-05),
                                ('cusparseDcsrmv[halo,dev1]', 2.9846153846153847e-08)],
                               4,
                               7216.0),
 'spmv_partitioned-fp32-1,0': ('f4a70512ad9f4da582f5c1a6e3f9c48dd9973391a6c2968021dfa07cc8f48cc9',
                               [('cusparseScsrmv[local,dev0]', 8.017076923076923e-06),
                                ('memcpyPeerAsync[108B<-dev1]', 1.0018000000000001e-05),
                                ('cusparseScsrmv[halo,dev0]', 2.2153846153846152e-08),
                                ('cusparseScsrmv[local,dev1]', 8.024e-06),
                                ('memcpyPeerAsync[84B<-dev0]', 1.0014000000000001e-05),
                                ('cusparseScsrmv[halo,dev1]', 1.7076923076923075e-08)],
                               4,
                               4176.0),
 'spmv_partitioned-fp16-1,0': ('d34b6e5342be9860ddffd20cd575ad4ca2438714e1fd537463752136a9a12c35',
                               [('cusparseHcsrmv[local,dev0]', 8.010846153846154e-06),
                                ('memcpyPeerAsync[54B<-dev1]', 1.0009e-05),
                                ('cusparseHcsrmv[halo,dev0]', 1.423076923076923e-08),
                                ('cusparseHcsrmv[local,dev1]', 8.015307692307692e-06),
                                ('memcpyPeerAsync[42B<-dev0]', 1.0007000000000001e-05),
                                ('cusparseHcsrmv[halo,dev1]', 1.0692307692307693e-08)],
                               4,
                               2656.0),
 'spmm_partitioned-fp64-1,0': ('91860bba18c32698124b0c0d6cd22a84e987bc246f9b3b8c859df9f2796a45f5',
                               [('cusparseDcsrmm[local,dev0]', 8.064307692307693e-06),
                                ('memcpyPeerAsync[648B<-dev1]', 1.0108e-05),
                                ('cusparseDcsrmm[halo,dev0]', 7.615384615384615e-08),
                                ('cusparseDcsrmm[local,dev1]', 8.08876923076923e-06),
                                ('memcpyPeerAsync[504B<-dev0]', 1.0084e-05),
                                ('cusparseDcsrmm[halo,dev1]', 6.369230769230769e-08)],
                               4,
                               15232.0),
 'spmm_partitioned-fp32-1,0': ('173b4b4f6b180b9942a533e108761fe9d3ec6aa459644eac901844d042cb9dd7',
                               [('cusparseScsrmm[local,dev0]', 8.036153846153846e-06),
                                ('memcpyPeerAsync[324B<-dev1]', 1.0054e-05),
                                ('cusparseScsrmm[halo,dev0]', 4.123076923076923e-08),
                                ('cusparseScsrmm[local,dev1]', 8.049846153846153e-06),
                                ('memcpyPeerAsync[252B<-dev0]', 1.0042000000000001e-05),
                                ('cusparseScsrmm[halo,dev1]', 3.4e-08)],
                               4,
                               8384.0),
 'spmm_partitioned-fp16-1,0': ('a130756c9f947ddf9cd46ab6c5f96148e0be57aabe5df29ad7f41503bc6c0929',
                               [('cusparseHcsrmm[local,dev0]', 8.022076923076923e-06),
                                ('memcpyPeerAsync[162B<-dev1]', 1.0027e-05),
                                ('cusparseHcsrmm[halo,dev0]', 2.376923076923077e-08),
                                ('cusparseHcsrmm[local,dev1]', 8.030384615384615e-06),
                                ('memcpyPeerAsync[126B<-dev0]', 1.0021000000000001e-05),
                                ('cusparseHcsrmm[halo,dev1]', 1.9153846153846155e-08)],
                               4,
                               4960.0),
 'cpu_spmv-fp64-1,0': ('dc6003290a5f339572001d4c3629da6148762e2668b3258765cd2ae5f9b99598',
                       [('spmv[host-fallback]', 1.4392857142857144e-06)],
                       0,
                       0.0),
 'cpu_spmv-fp32-1,0': ('fe9e41261ecea89d24eb6f1c0b0c9e52b0cd80de83dc046332d037619b40ecad',
                       [('spmv[host-fallback]', 1.4392857142857144e-06)],
                       0,
                       0.0),
 'cpu_spmv-fp16-1,0': ('f3be7152c34acf18668e99d597e4524bd74fc2aff5e046905aa33b823ff3da65',
                       [('spmv[host-fallback]', 1.4392857142857144e-06)],
                       0,
                       0.0),
 'cpu_spmm-fp64-1,0': ('91860bba18c32698124b0c0d6cd22a84e987bc246f9b3b8c859df9f2796a45f5',
                       [('spmm[host-fallback]', 4.3178571428571435e-06)],
                       0,
                       0.0),
 'cpu_spmm-fp32-1,0': ('eb49eba0008ef2cbf7383fb665991eaf9790d1751dcaba892f4c29eb92bda54c',
                       [('spmm[host-fallback]', 4.3178571428571435e-06)],
                       0,
                       0.0),
 'cpu_spmm-fp16-1,0': ('d0dacf374116941f4074079228e5d4a90a3d408f0b2af5e11868595e69bacfc8',
                       [('spmm[host-fallback]', 4.3178571428571435e-06)],
                       0,
                       0.0),
 'nystrom_product-fp64-1,0': ('91860bba18c32698124b0c0d6cd22a84e987bc246f9b3b8c859df9f2796a45f5',
                              [],
                              0,
                              0.0),
 'nystrom_product-fp32-1,0': ('0e90d7c164e218f94a1bfe53ccdcbbc815e28a287a66f0e1b1001b11ac788686',
                              [],
                              0,
                              0.0),
 'nystrom_product-fp16-1,0': ('3f95a26506d57ac8490a8d33bc1440f77d4f48b83927520ec001c195a0b3b7ae',
                              [],
                              0,
                              0.0)}


@pytest.mark.parametrize("cell", list(_cells()))
def test_product_parity(cell):
    entry, precision, ab = cell.split("-")
    alpha, beta = (float(v) for v in ab.split(","))
    assert _run(entry, precision, alpha, beta) == EXPECTED[cell]


_SPMM_CELLS = [
    c for c in _cells()
    if c.split("-")[0] in ("csrmm", "ellmm", "spmm_partitioned",
                           "cpu_spmm", "nystrom_product")
]


@pytest.mark.parametrize("cell", _SPMM_CELLS)
def test_product_parity_small_blocks(cell, monkeypatch):
    """The same frozen SpMM cells with every product split into blocks."""
    monkeypatch.setattr(substrate, "_BLOCK_ELEMS", SMALL_BUDGET)
    entry, precision, ab = cell.split("-")
    alpha, beta = (float(v) for v in ab.split(","))
    assert _run(entry, precision, alpha, beta) == EXPECTED[cell]


def test_small_budget_blocks_reach_the_edges(monkeypatch):
    """At the small budget every empty row falls in a block that scatters
    its reduction around it, and the long row 9 is a block of its own."""
    monkeypatch.setattr(substrate, "_BLOCK_ELEMS", SMALL_BUDGET)
    host = _host_matrix().to_csr()
    sub = substrate.Substrate(N, host.indices, host.data, indptr=host.indptr)
    _, blocks = sub._row_blocks(P_COLS)
    targets = [t for _, _, _, t in blocks]
    firsts = [t.start if isinstance(t, slice) else t[0] for t in targets]
    spans = list(zip(firsts, firsts[1:] + [N]))
    assert len(blocks) > 10
    assert spans[firsts.index(9)] == (9, 10)
    for row in (5, 17, 30):
        i = next(i for i, (a, b) in enumerate(spans) if a <= row < b)
        assert not isinstance(targets[i], slice) and row not in targets[i]


def _unblocked(sub: substrate.Substrate, B: np.ndarray) -> np.ndarray:
    """The oracle: the whole product as one gather → multiply → reduce."""
    out = np.zeros((sub.n_rows, B.shape[1]))
    if sub.nonempty.size:
        out[sub.nonempty] = np.add.reduceat(
            as_f64(sub.vals)[:, None] * as_f64(B)[sub.cols], sub.starts, axis=0
        )
    return out


#: row lengths with runs of empty rows
_row_lengths = st.lists(
    st.one_of(st.just(0), st.integers(0, 12)), max_size=40
)


@given(
    lengths=_row_lengths,
    n_cols=st.integers(1, 16),
    p=st.sampled_from([0, 1, 2, 3, 22, 49]),
    precision=st.sampled_from(sorted(PRECISION_DTYPES)),
    budget=st.sampled_from([1, 7, 64, 500, substrate._BLOCK_ELEMS]),
    seed=st.integers(0, 2**16),
)
@example(lengths=[], n_cols=3, p=3, precision="fp64", budget=7, seed=0)
@example(lengths=[0, 0, 0], n_cols=3, p=22, precision="fp32", budget=7, seed=0)
@settings(max_examples=150, deadline=None)
def test_blocked_spmm_matches_unblocked(lengths, n_cols, p, precision, budget, seed):
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    dtype = PRECISION_DTYPES[precision]
    cols = rng.integers(0, n_cols, nnz)
    vals = quantize(rng.standard_normal(nnz), dtype)
    B = quantize(rng.standard_normal((n_cols, p)), dtype)
    with mock.patch.object(substrate, "_BLOCK_ELEMS", budget):
        sub = substrate.Substrate(len(lengths), cols, vals, indptr=indptr)
        got = sub.spmm(B)
    want = _unblocked(sub, B)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
