"""Simulated cuSPARSE: device-resident sparse matrices and kernels.

Provides the calls Algorithm 2 and 3 of the paper make:

* ``cusparseDcsrmv``  → :func:`~repro.cusparse.spmv.csrmv`
* ``cusparseXcoo2csr`` → :func:`~repro.cusparse.conversions.coo2csr`
* plus ``coomv``, ``csrmm`` and host↔device sparse movement.
"""

from repro.cusparse.matrices import DeviceCOO, DeviceCSR, coo_to_device, csr_to_device
from repro.cusparse.formats import (
    DeviceELL,
    FormatDecision,
    RowStats,
    autotune_format,
    autotune_spmm_format,
    convert_for_spmv,
    csr_to_ell,
    row_stats,
)
from repro.cusparse.conversions import coo2csr, csr2coo
from repro.cusparse.partition import (
    CSRShard,
    PartitionedCSR,
    partition_csr,
    spmv_partitioned,
)
from repro.cusparse.spmv import coomv, csrmv, ellmv, spmv_any
from repro.cusparse.spmm import csrmm, ellmm, spmm_any

__all__ = [
    "DeviceCOO",
    "DeviceCSR",
    "DeviceELL",
    "FormatDecision",
    "RowStats",
    "autotune_format",
    "autotune_spmm_format",
    "convert_for_spmv",
    "csr_to_ell",
    "row_stats",
    "ellmv",
    "spmv_any",
    "CSRShard",
    "PartitionedCSR",
    "partition_csr",
    "spmv_partitioned",
    "coo_to_device",
    "csr_to_device",
    "coo2csr",
    "csr2coo",
    "coomv",
    "csrmv",
    "csrmm",
    "ellmm",
    "spmm_any",
]
