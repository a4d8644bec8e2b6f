"""Device format conversions (coo2csr / csr2coo)."""

import numpy as np
import pytest

from repro.cusparse.conversions import coo2csr, csr2coo
from repro.cusparse.matrices import coo_to_device, csr_to_device
from repro.errors import SparseFormatError
from repro.sparse.construct import random_sparse


@pytest.fixture
def host(rng):
    return random_sparse(15, 15, 0.25, rng=rng)


class TestCoo2Csr:
    def test_matches_host_conversion(self, device, host):
        d = coo_to_device(device, host.sorted_by_row())
        dcsr = coo2csr(d)
        assert np.array_equal(dcsr.to_host().to_dense(), host.to_dense())

    def test_unsorted_rejected_when_assumed_sorted(self, device):
        from repro.sparse.coo import COOMatrix

        coo = COOMatrix([2, 0], [0, 1], [1.0, 2.0], (3, 3))
        d = coo_to_device(device, coo)
        with pytest.raises(SparseFormatError):
            coo2csr(d)

    def test_unsorted_ok_with_device_sort(self, device):
        from repro.sparse.coo import COOMatrix

        coo = COOMatrix([2, 0], [0, 1], [1.0, 2.0], (3, 3))
        d = coo_to_device(device, coo)
        dcsr = coo2csr(d, assume_sorted=False)
        assert np.array_equal(dcsr.to_host().to_dense(), coo.to_dense())

    def test_empty_rows_handled(self, device):
        from repro.sparse.coo import COOMatrix

        coo = COOMatrix([0, 4], [1, 2], [1.0, 2.0], (5, 5))
        dcsr = coo2csr(coo_to_device(device, coo))
        assert dcsr.indptr.data.tolist() == [0, 1, 1, 1, 1, 2]

    def test_no_pcie_traffic(self, device, host):
        d = coo_to_device(device, host.sorted_by_row())
        comm0 = device.timeline.communication_time()
        coo2csr(d)
        assert device.timeline.communication_time() == comm0


class TestCsr2Coo:
    def test_round_trip(self, device, host):
        d = csr_to_device(device, host.to_csr())
        dcoo = csr2coo(d)
        assert np.array_equal(dcoo.to_host().to_dense(), host.to_dense())
