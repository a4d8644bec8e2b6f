"""Ablation — sparse format for the eigensolver's SpMV: COO vs CSR.

§IV.B converts the similarity matrix "to the CSR format to perform the
sparse matrix-vector multiplication at the next step"; this bench
quantifies why, on the simulated device (COO needs atomic scatter-adds)
and in host wall-clock."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cusparse.conversions import coo2csr
from repro.cusparse.matrices import coo_to_device
from repro.cusparse.spmv import coomv, csrmv
from repro.datasets.registry import load_dataset


@pytest.fixture(scope="module")
def graph():
    return load_dataset("syn200", scale=0.1, seed=0).graph


def test_ablation_format_report(graph, write_table):
    dev = Device()
    dcoo = coo_to_device(dev, graph.sorted_by_row())
    dcsr = coo2csr(dcoo)
    x = dev.to_device(np.ones(graph.shape[0]))

    t0 = dev.elapsed
    coomv(dcoo, x)
    t_coo = dev.elapsed - t0
    t0 = dev.elapsed
    csrmv(dcsr, x)
    t_csr = dev.elapsed - t0

    lines = [
        f"Ablation: SpMV format on syn200 (n={graph.shape[0]}, nnz={graph.nnz})",
        f"{'format':<8}{'simulated SpMV/s':>18}",
        "-" * 26,
        f"{'COO':<8}{t_coo:>18.6f}",
        f"{'CSR':<8}{t_csr:>18.6f}",
        f"CSR wins by {t_coo / t_csr:.2f}x (plus coo2csr conversion paid once "
        f"vs thousands of Lanczos iterations)",
    ]
    write_table("ablation_formats", "\n".join(lines))
    assert t_csr < t_coo


def test_conversion_amortized_over_iterations(graph):
    """coo2csr costs about one SpMV; the eigensolver runs thousands."""
    dev = Device()
    dcoo = coo_to_device(dev, graph.sorted_by_row())
    t0 = dev.elapsed
    dcsr = coo2csr(dcoo)
    t_conv = dev.elapsed - t0
    x = dev.to_device(np.ones(graph.shape[0]))
    t0 = dev.elapsed
    csrmv(dcsr, x)
    t_spmv = dev.elapsed - t0
    assert t_conv < 20 * t_spmv


def test_bench_host_csr_matvec(benchmark, graph):
    csr = graph.to_csr()
    x = np.ones(csr.shape[1])
    benchmark(csr.matvec, x)


def test_bench_host_coo_matvec(benchmark, graph):
    x = np.ones(graph.shape[1])
    benchmark(graph.matvec, x)
