"""Row-partitioned CSR + multi-device SpMV: splitting, halo accounting,
bit-identity, and the overlapped makespan."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cusparse.matrices import csr_to_device
from repro.cusparse.partition import (
    partition_bounds_nnz,
    partition_csr,
    spmv_partitioned,
)
from repro.cusparse.spmv import csrmv
from repro.errors import SparseValueError
from repro.sparse.construct import random_sparse


def make_devices(p):
    """p devices sharing one timeline (one simulated platform)."""
    primary = Device()
    peers = [
        Device(primary.spec, primary.pcie, timeline=primary.timeline)
        for _ in range(p - 1)
    ]
    return [primary] + peers


@pytest.fixture
def operator(device, rng):
    host = random_sparse(120, 120, 0.1, rng=rng, symmetric=True).to_csr()
    return csr_to_device(device, host), host


def uniform_indptr(n, per_row=3):
    """CSR row pointers of an n-row matrix with equal nnz in every row."""
    return np.arange(n + 1, dtype=np.int64) * per_row


class TestPartitionBounds:
    """nnz-balanced bounds degenerate to an even row split when every
    row carries the same nnz."""

    def test_balanced_split(self):
        b = partition_bounds_nnz(uniform_indptr(100), 4)
        assert list(b) == [0, 25, 50, 75, 100]
        assert b.dtype == np.int64

    def test_uneven_rows_differ_by_at_most_one(self):
        b = partition_bounds_nnz(uniform_indptr(10), 3)
        sizes = np.diff(b)
        assert sizes.sum() == 10
        assert sizes.max() - sizes.min() <= 1

    def test_single_device_is_whole_range(self):
        assert list(partition_bounds_nnz(uniform_indptr(7), 1)) == [0, 7]

    def test_zero_devices_rejected(self):
        with pytest.raises(SparseValueError):
            partition_bounds_nnz(uniform_indptr(10), 0)

    def test_more_devices_than_rows_rejected(self):
        with pytest.raises(SparseValueError):
            partition_bounds_nnz(uniform_indptr(2), 3)


class TestPartitionCSR:
    def test_local_plus_halo_covers_every_entry(self, rng):
        devices = make_devices(3)
        host = random_sparse(90, 90, 0.12, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        total = 0
        for shard in P.shards:
            total += shard.nnz_local + shard.nnz_halo
            # local column offsets stay inside the block
            assert (shard.local_indices.data[: shard.nnz_local] >= 0).all()
            assert (
                shard.local_indices.data[: shard.nnz_local] < shard.n_rows
            ).all()
            # halo columns are genuinely off-block
            assert not np.isin(shard.halo_cols, shard.rows).any()
        assert total == A.nnz

    def test_halo_src_counts_sum_to_halo_count(self, rng):
        devices = make_devices(4)
        host = random_sparse(100, 100, 0.1, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        for shard in P.shards:
            assert shard.halo_src_counts.sum() == shard.halo_count
            # a device never receives its own columns
            assert shard.halo_src_counts[shard.index] == 0
        assert P.step_halo_bytes() == sum(P.halo_counts) * 8

    def test_rectangular_rejected(self, device, rng):
        host = random_sparse(20, 30, 0.2, rng=rng).to_csr()
        A = csr_to_device(device, host)
        with pytest.raises(SparseValueError):
            partition_csr(A, [device])

    def test_devices_must_share_timeline(self, operator):
        A, _ = operator
        with pytest.raises(SparseValueError):
            partition_csr(A, [A.device, Device()])  # separate platform

    def test_distribution_charged_as_p2p(self, rng):
        devices = make_devices(2)
        host = random_sparse(60, 60, 0.15, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        before = devices[1].bytes_p2p
        P = partition_csr(A, devices)
        # device 1's raw row block crossed the peer bus, byte-for-byte
        assert devices[1].bytes_p2p - before == P.shard_upload_bytes
        assert P.shard_upload_bytes > 0
        names = [e.name for e in devices[0].timeline if e.category == "p2p"]
        assert any("memcpyPeerAsync" in n for n in names)

    def test_split_kernels_concurrent_not_summed(self, rng):
        """The setup is charged as a makespan over devices: the clock
        advances less than the sum of the individual event durations."""
        devices = make_devices(4)
        host = random_sparse(200, 200, 0.1, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        tl = devices[0].timeline
        n0, t0 = len(tl), tl.clock.now
        partition_csr(A, devices)
        elapsed = tl.clock.now - t0
        summed = sum(ev.duration for ev in tl.events[n0:])
        assert 0 < elapsed < summed


class TestSpmvPartitioned:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_bit_identical_to_csrmv(self, rng, p):
        host = random_sparse(100, 100, 0.1, rng=rng, symmetric=True).to_csr()
        x = rng.standard_normal(100)

        ref_dev = Device()
        dA = csr_to_device(ref_dev, host)
        dx = ref_dev.to_device(x)
        dy = ref_dev.empty(100, dtype=np.float64)
        csrmv(dA, dx, dy)
        ref = dy.data.copy()

        devices = make_devices(p)
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        y = spmv_partitioned(P, x)
        assert y.tobytes() == ref.tobytes()

    def test_output_array_reused(self, rng):
        devices = make_devices(2)
        host = random_sparse(50, 50, 0.2, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        x = rng.standard_normal(50)
        y = np.empty(50)
        out = spmv_partitioned(P, x, y)
        assert out is y
        assert y.tobytes() == spmv_partitioned(P, x).tobytes()

    def test_shape_mismatch_rejected(self, rng):
        devices = make_devices(2)
        host = random_sparse(40, 40, 0.2, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        with pytest.raises(SparseValueError):
            spmv_partitioned(P, np.zeros(41))

    def test_halo_exchange_bytes_per_step(self, rng):
        devices = make_devices(3)
        host = random_sparse(90, 90, 0.1, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        before = sum(d.bytes_p2p for d in devices)
        x = rng.standard_normal(90)
        spmv_partitioned(P, x)
        spmv_partitioned(P, x)
        moved = sum(d.bytes_p2p for d in devices) - before
        assert moved == 2 * P.step_halo_bytes()

    def test_local_kernel_overlaps_halo_copy(self, rng):
        """The point of the split: local compute and the peer copies run
        concurrently from a common start."""
        devices = make_devices(2)
        host = random_sparse(400, 400, 0.05, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        tl = devices[0].timeline
        n0 = len(tl)
        spmv_partitioned(P, rng.standard_normal(400))
        window = tl.events[n0:]
        locals_ = [e for e in window if "csrmv[local" in e.name]
        copies = [e for e in window if e.category == "p2p"]
        assert locals_ and copies
        overlap = any(
            k.start < c.end and c.start < k.end
            for k in locals_
            for c in copies
        )
        assert overlap

    def test_halo_kernel_waits_for_arrival_and_local(self, rng):
        devices = make_devices(2)
        host = random_sparse(100, 100, 0.1, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        tl = devices[0].timeline
        n0 = len(tl)
        spmv_partitioned(P, rng.standard_normal(100))
        window = tl.events[n0:]
        for d in range(2):
            local = [e for e in window if e.name == f"cusparseDcsrmv[local,dev{d}]"]
            halo = [e for e in window if e.name == f"cusparseDcsrmv[halo,dev{d}]"]
            if not halo:
                continue
            assert halo[0].start >= local[0].end - 1e-15

    def test_makespan_not_sum(self, rng):
        """One partitioned SpMV advances the clock by the slowest device's
        path, not the total work."""
        devices = make_devices(4)
        host = random_sparse(800, 800, 0.02, rng=rng).to_csr()
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        tl = devices[0].timeline
        n0, t0 = len(tl), tl.clock.now
        spmv_partitioned(P, rng.standard_normal(800))
        elapsed = tl.clock.now - t0
        summed = sum(ev.duration for ev in tl.events[n0:])
        assert 0 < elapsed < summed


class TestPartitionModes:
    """nnz-balanced partitioning on skewed graphs: balance and
    bit-identity."""

    def _skewed(self, rng, n=120):
        """A graph whose first rows are far denser than the rest."""
        from repro.sparse.coo import COOMatrix

        dense = random_sparse(n // 4, n, 0.4, rng=rng).to_coo()
        sparse = random_sparse(3 * n // 4, n, 0.02, rng=rng).to_coo()
        rows = np.concatenate([dense.row, sparse.row + n // 4])
        cols = np.concatenate([dense.col, sparse.col])
        vals = np.concatenate([dense.data, sparse.data])
        return COOMatrix(rows, cols, vals, shape=(n, n)).to_csr()

    def test_nnz_bounds_balance_nnz_not_rows(self, rng):
        host = self._skewed(rng)
        b = partition_bounds_nnz(host.indptr, 2)
        nnz0 = host.indptr[b[1]] - host.indptr[b[0]]
        nnz1 = host.indptr[b[2]] - host.indptr[b[1]]
        total = host.indptr[-1]
        assert abs(nnz0 - nnz1) < 0.2 * total
        # the row split is NOT even — that's the point
        assert (b[1] - b[0]) < (b[2] - b[1])

    def test_nnz_is_default_mode(self, rng):
        """partition_csr balances nonzeros, not rows, across devices."""
        devices = make_devices(2)
        host = self._skewed(rng)
        A = csr_to_device(devices[0], host.to_coo().to_csr())
        P = partition_csr(A, devices)
        nnzs = [s.nnz_local + s.nnz_halo for s in P.shards]
        assert abs(nnzs[0] - nnzs[1]) < 0.2 * A.nnz
        assert list(P.bounds) == list(partition_bounds_nnz(host.indptr, 2))

    @pytest.mark.parametrize("layout", ["nnz"])
    def test_bit_identical_across_modes(self, rng, layout):
        """The nnz-balanced row blocks reproduce one device."""
        host = self._skewed(rng)
        x = rng.standard_normal(120)
        ref_dev = Device()
        dA = csr_to_device(ref_dev, host)
        dx = ref_dev.to_device(x)
        dy = ref_dev.empty(120, dtype=np.float64)
        csrmv(dA, dx, dy)
        ref = dy.data.copy()

        devices = make_devices(3)
        A = csr_to_device(devices[0], host)
        P = partition_csr(A, devices)
        y = spmv_partitioned(P, x)
        assert y.tobytes() == ref.tobytes()
