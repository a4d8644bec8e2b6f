"""Algorithm 1: device builder vs host reference."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.errors import GraphConstructionError
from repro.graph.build import build_similarity_device, build_similarity_graph
from repro.graph.neighbors import epsilon_neighbors
from repro.graph.similarity import cross_correlation


@pytest.fixture
def workload(rng):
    X = rng.standard_normal((60, 20))
    pos = rng.random((60, 3)) * 3.0
    edges = epsilon_neighbors(pos, 0.9)
    return X, edges


class TestHostBuilder:
    def test_symmetric_output(self, workload):
        X, edges = workload
        W = build_similarity_graph(X, edges)
        d = W.to_dense()
        assert np.allclose(d, d.T)

    def test_values_match_measure(self, workload):
        """Kept edges carry the reference similarity; an edge is dropped
        only when its similarity is ≤ 0."""
        X, edges = workload
        W = build_similarity_graph(X, edges)
        sims = cross_correlation(X, edges)
        stored = W.to_dense()[edges[:, 0], edges[:, 1]]
        kept = stored != 0
        assert kept.any() and not kept.all()  # the workload drops some
        assert np.array_equal(stored[kept], sims[kept])
        assert np.all(sims[~kept] <= 0)

    def test_nonpositive_dropped_by_default(self, workload):
        X, edges = workload
        W = build_similarity_graph(X, edges)
        assert np.all(W.data > 0)


class TestDeviceBuilder:
    def test_matches_host(self, device, workload):
        X, edges = workload
        host = build_similarity_graph(X, edges)
        dcoo = build_similarity_device(device, X, edges)
        got = dcoo.to_host().sum_duplicates()
        assert np.allclose(got.to_dense(), host.to_dense())

    def test_output_sorted_for_coo2csr(self, device, workload):
        X, edges = workload
        dcoo = build_similarity_device(device, X, edges)
        keys = dcoo.row.data * dcoo.shape[1] + dcoo.col.data
        assert np.all(np.diff(keys) >= 0)

    def test_events_tagged_similarity(self, device, workload):
        X, edges = workload
        build_similarity_device(device, X, edges)
        assert device.timeline.total(tag="similarity") > 0
        assert device.timeline.total(tag="") == 0

    def test_charges_input_transfers(self, device, workload):
        X, edges = workload
        h2d0 = device.timeline.count("h2d")
        build_similarity_device(device, X, edges)
        assert device.timeline.count("h2d") >= h2d0 + 3  # X + src + dst

    def test_bad_edges_shape(self, device, workload):
        X, _ = workload
        with pytest.raises(GraphConstructionError):
            build_similarity_device(device, X, np.zeros((4, 3), dtype=np.int64))

    def test_edge_out_of_range(self, device, workload):
        X, _ = workload
        with pytest.raises(GraphConstructionError):
            build_similarity_device(device, X, np.array([[0, 600]]))

    def test_float_edges_refused(self, device, workload):
        """Float indices would be truncated to other vertices' ids."""
        X, edges = workload
        with pytest.raises(GraphConstructionError, match="integer"):
            build_similarity_device(device, X, edges.astype(float) + 0.5)

    @pytest.mark.parametrize("chunk", [1, 3, 17, 10_000])
    def test_edge_chunking_invariant(self, workload, chunk):
        """Chunked uploads produce the same matrix as the monolithic path."""
        X, edges = workload
        full = build_similarity_device(Device(), X, edges)
        chunked = build_similarity_device(Device(), X, edges, edge_chunk=chunk)
        assert np.array_equal(full.row.data, chunked.row.data)
        assert np.array_equal(full.val.data, chunked.val.data)

    def test_auto_chunking_on_tiny_device(self, workload):
        """A device too small for three whole edge arrays still builds the
        graph by chunking automatically."""
        from dataclasses import replace

        from repro.hw.spec import K20C

        X, edges = workload
        # room for X + the final symmetric COO + slack, but not 4x the
        # staged edge arrays
        out_bytes = 2 * edges.shape[0] * 24
        cap = X.nbytes + out_bytes + edges.shape[0] * 30
        dev = Device(spec=replace(K20C, memory_bytes=int(cap)))
        dcoo = build_similarity_device(dev, X, edges)
        ref = build_similarity_device(Device(), X, edges)
        assert np.array_equal(dcoo.val.data, ref.val.data)

    def test_host_peak_does_not_grow_with_gather(self):
        """The similarity kernel gathers edge endpoints a block at a time:
        the build's host peak is the device copy of ``X`` plus O(nnz)
        edge arrays, never the ``2 × nnz × d`` fp64 whole-launch gather
        (about 144 MB here)."""
        import tracemalloc

        rng = np.random.default_rng(0)
        n, d, nnz = 2000, 90, 100_000
        X = rng.standard_normal((n, d))
        edges = rng.integers(0, n, size=(nnz, 2))
        device = Device()
        tracemalloc.start()
        try:
            build_similarity_device(device, X, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * X.nbytes + 128 * nnz + (1 << 20)
        assert peak < bound, (peak, bound)

    def test_bad_edge_chunk(self, device, workload):
        X, edges = workload
        with pytest.raises(GraphConstructionError):
            build_similarity_device(device, X, edges, edge_chunk=0)

    def test_dti_paper_shape_time(self, workload):
        """Sanity on the simulated magnitude: a 4M-edge, d=90 build should
        land within ~3x of the paper's 0.033 s."""
        device = Device()
        # charge the cost model directly at paper scale (no real 4M build)
        from repro.hw.costmodel import GPUCostModel, TransferCostModel
        from repro.hw.spec import K20C, PCIE_X16_GEN2

        gpu = GPUCostModel(K20C)
        pcie = TransferCostModel(PCIE_X16_GEN2)
        n, d, nnz = 142541, 90, 3992290
        t = pcie.h2d_time(n * d * 8) + pcie.h2d_time(nnz * 16)
        t += gpu.kernel_time(n * d, n * d * 8)
        t += gpu.kernel_time(3 * n * d, 2 * n * d * 8)
        t += gpu.kernel_time(2 * nnz * d, 2 * nnz * d * 8)
        assert 0.01 < t < 0.5
