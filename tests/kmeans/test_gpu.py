"""Algorithm 4 on the device: exact parity with the host path + GPU-specific
mechanics (sort-based update, BLAS-3 distances, timeline accounting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuda.device import Device
from repro.errors import ClusteringError
from repro.kmeans.cpu import kmeans_cpu
from repro.kmeans.gpu import kmeans_device
from repro.kmeans.init import kmeans_plus_plus
from repro.kmeans.utils import exact_labels


class TestParityWithCPU:
    def test_identical_from_same_seeds(self, device, blobs):
        """Sort-based centroid update == direct group-by update."""
        V, _, k = blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(9))
        cpu = kmeans_cpu(V, k, initial_centroids=C0)
        gpu = kmeans_device(device, V, k, initial_centroids=C0)
        assert np.array_equal(cpu.labels, gpu.labels)
        assert np.allclose(cpu.centroids, gpu.centroids)
        assert cpu.n_iter == gpu.n_iter
        assert cpu.inertia == pytest.approx(gpu.inertia)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_parity_property(self, seed):
        r = np.random.default_rng(seed)
        V = r.random((60, 3))
        k = int(r.integers(2, 8))
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(seed + 1))
        cpu = kmeans_cpu(V, k, initial_centroids=C0, max_iter=50)
        gpu = kmeans_device(Device(), V, k, initial_centroids=C0, max_iter=50)
        assert np.array_equal(cpu.labels, gpu.labels)
        assert np.allclose(cpu.centroids, gpu.centroids)


class TestInvariants:
    def test_inertia_monotone(self, device, blobs):
        V, _, k = blobs
        res = kmeans_device(device, V, k, seed=2)
        h = res.inertia_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_labels_exact_argmin(self, device, blobs):
        V, _, k = blobs
        res = kmeans_device(device, V, k, seed=2)
        assert np.array_equal(res.labels, exact_labels(V, res.centroids))

    def test_recovers_blobs(self, device, blobs):
        from repro.metrics.external import adjusted_rand_index

        V, truth, k = blobs
        res = kmeans_device(device, V, k, seed=1)
        assert adjusted_rand_index(res.labels, truth) > 0.98

    def test_no_empty_clusters(self, device, rng):
        V = rng.random((50, 2))
        res = kmeans_device(device, V, 12, seed=0)
        assert np.all(np.bincount(res.labels, minlength=12) >= 1)


class TestDeviceMechanics:
    def test_default_path_is_fused_spmm(self, device, blobs):
        V, _, k = blobs
        kmeans_device(device, V, k, seed=0)
        names = [e.name for e in device.timeline]
        assert any("fused_assign" in n for n in names)
        assert any("label_histogram" in n for n in names)
        assert any("exclusive_scan" in n for n in names)
        assert any("cusparseDcsrmm" in n for n in names)
        assert any("tile_inertia" in n for n in names)
        # the fused/SpMM path issues none of the discrete-kernel machinery
        assert not any("sort_by_key" in n for n in names)
        assert not any("cublasDgemm" in n for n in names)
        assert not any("count_changes" in n for n in names)

    def test_sort_path_uses_gemm_and_sort(self, device, blobs):
        V, _, k = blobs
        kmeans_device(device, V, k, seed=0, centroid_update="sort", fused=False)
        names = [e.name for e in device.timeline]
        assert any("cublasDgemm" in n for n in names)
        assert any("sort_by_key" in n for n in names)
        assert any("reduce_by_key" in n for n in names)

    def test_events_tagged_kmeans(self, device, blobs):
        V, _, k = blobs
        kmeans_device(device, V, k, seed=0)
        assert device.timeline.total(tag="kmeans") > 0

    def test_transfers_data_in_and_labels_out(self, device, blobs):
        V, _, k = blobs
        kmeans_device(device, V, k, seed=0)
        assert device.timeline.count("h2d") >= 1
        assert device.timeline.count("d2h") >= 1

    def test_accepts_device_resident_input(self, device, blobs):
        V, _, k = blobs
        dV = device.to_device(V)
        res = kmeans_device(device, dV, k, seed=0)
        assert res.labels.size == V.shape[0]
        assert dV.is_valid  # caller-owned buffer not freed

    def test_frees_working_buffers(self, device, blobs):
        V, _, k = blobs
        used0 = device.allocator.used_bytes
        kmeans_device(device, V, k, seed=0)
        assert device.allocator.used_bytes == used0

    def test_random_init_mode(self, device, blobs):
        V, _, k = blobs
        res = kmeans_device(device, V, k, init="random", seed=0)
        assert res.converged

    def test_bad_init_name(self, device, blobs):
        V, _, k = blobs
        with pytest.raises(ClusteringError):
            kmeans_device(device, V, k, init="pca")

    def test_bad_initial_centroid_shape(self, device, blobs):
        V, _, k = blobs
        with pytest.raises(ClusteringError):
            kmeans_device(device, V, k, initial_centroids=np.zeros((k, 99)))

    def test_max_iter_cap(self, device, rng):
        V = rng.random((100, 4))
        res = kmeans_device(device, V, 10, max_iter=3, seed=0)
        assert res.n_iter <= 3

    def test_direct_distance_method_identical(self, device, blobs):
        """Eqs. 12-16 (gemm) vs the naive kernel: same clustering."""
        V, _, k = blobs
        C0 = np.asarray(V[:k])
        from repro.cuda.device import Device

        g = kmeans_device(Device(), V, k, initial_centroids=C0)
        d = kmeans_device(
            Device(), V, k, initial_centroids=C0, distance_method="direct"
        )
        assert np.array_equal(g.labels, d.labels)
        assert np.allclose(g.centroids, d.centroids)

    def test_unknown_distance_method(self, device, blobs):
        V, _, k = blobs
        with pytest.raises(ClusteringError):
            kmeans_device(device, V, k, distance_method="manhattan")

    def test_unknown_centroid_update(self, device, blobs):
        V, _, k = blobs
        with pytest.raises(ClusteringError):
            kmeans_device(device, V, k, centroid_update="atomic")


#: every (centroid_update, fused) combination the ablation pins
KNOB_GRID = [("spmm", True), ("spmm", False), ("sort", True), ("sort", False)]


class TestKnobParity:
    """The perf knobs change charged time, never a bit of the results."""

    def _run(self, V, k, C0, update, fused, **kw):
        return kmeans_device(
            Device(), V, k, initial_centroids=C0,
            centroid_update=update, fused=fused, max_iter=60, **kw
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_across_knob_grid(self, seed):
        r = np.random.default_rng(seed)
        V = r.random((150, 5))
        k = 7
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(seed + 1))
        ref = self._run(V, k, C0, "sort", False)
        for update, fused in KNOB_GRID:
            res = self._run(V, k, C0, update, fused)
            assert np.array_equal(res.labels, ref.labels)
            assert res.centroids.tobytes() == ref.centroids.tobytes()
            assert res.n_iter == ref.n_iter
            assert res.converged == ref.converged
            hist = np.asarray(res.inertia_history)
            assert hist.tobytes() == np.asarray(ref.inertia_history).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_under_tiling(self, seed):
        """Fused tiles + on-device change count: tiling never changes bits."""
        r = np.random.default_rng(seed + 100)
        V = r.random((123, 4))
        k = 6
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(seed))
        ref = self._run(V, k, C0, "spmm", True)
        tiled = self._run(V, k, C0, "spmm", True, tile_rows=17)
        assert np.array_equal(tiled.labels, ref.labels)
        assert tiled.centroids.tobytes() == ref.centroids.tobytes()
        assert np.asarray(tiled.inertia_history).tobytes() == np.asarray(
            ref.inertia_history
        ).tobytes()

    def test_bit_identical_with_empty_cluster_repair(self):
        """Duplicated points force empty clusters; the repair rule must fire
        identically on every knob combination."""
        r = np.random.default_rng(7)
        base = r.random((8, 3))
        V = np.repeat(base, 6, axis=0)  # 48 points, only 8 distinct
        k = 12  # more clusters than distinct points -> guaranteed repair
        C0 = V[:k] + r.random((k, 3)) * 1e-3
        ref = self._run(V, k, C0, "sort", False)
        assert np.all(np.bincount(ref.labels, minlength=k) >= 1)
        for update, fused in KNOB_GRID:
            res = self._run(V, k, C0, update, fused)
            assert np.array_equal(res.labels, ref.labels)
            assert res.centroids.tobytes() == ref.centroids.tobytes()

    def test_spmm_fused_is_faster(self, blobs):
        """The rebuilt default beats the paper's sort+discrete pipeline."""
        V, _, k = blobs
        C0 = np.asarray(V[:k])
        dev_new, dev_old = Device(), Device()
        kmeans_device(dev_new, V, k, initial_centroids=C0)
        kmeans_device(
            dev_old, V, k, initial_centroids=C0,
            centroid_update="sort", fused=False,
        )
        assert dev_new.timeline.total(tag="kmeans") < dev_old.timeline.total(
            tag="kmeans"
        )


class TestIterationAllocations:
    """The Lloyd loop's working set is allocated once, before the loop."""

    @staticmethod
    def _total_allocs(device):
        stats = device.alloc_stats()
        return stats["hits"] + stats["misses"]

    def test_default_path_zero_allocs_per_iteration(self):
        r = np.random.default_rng(0)
        V = r.random((300, 6))
        C0 = np.asarray(V[:10])
        totals = []
        for max_iter in (1, 6):
            dev = Device()
            res = kmeans_device(dev, V, 10, initial_centroids=C0, max_iter=max_iter)
            assert res.n_iter == max_iter  # genuinely ran the extra trips
            totals.append(self._total_allocs(dev))
        assert totals[0] == totals[1], (
            "extra Lloyd iterations must not allocate device memory"
        )

    def test_sort_path_allocates_per_iteration(self):
        """The ablation baseline still pays ~7 allocations per trip."""
        r = np.random.default_rng(0)
        V = r.random((300, 6))
        C0 = np.asarray(V[:10])
        totals = []
        for max_iter in (1, 6):
            dev = Device()
            res = kmeans_device(
                dev, V, 10, initial_centroids=C0, max_iter=max_iter,
                centroid_update="sort", fused=False,
            )
            assert res.n_iter == max_iter
            totals.append(self._total_allocs(dev))
        assert totals[1] == totals[0] + 5 * 7


class TestSpmmFormat:
    """The centroid-update SpMM can run from an ELL membership operand;
    the format changes only the charged time, never the numbers."""

    def test_forced_formats_bit_identical(self, blobs):
        V, _, k = blobs
        results = {}
        for fmt in ("csr", "ell"):
            res = kmeans_device(Device(), V, k, seed=0, spmm_format=fmt)
            results[fmt] = res
        assert np.array_equal(results["ell"].labels, results["csr"].labels)
        assert (
            results["ell"].centroids.tobytes()
            == results["csr"].centroids.tobytes()
        )
        assert results["ell"].inertia == results["csr"].inertia

    def test_auto_matches_forced_choice(self, blobs):
        V, _, k = blobs
        auto = kmeans_device(Device(), V, k, seed=0, spmm_format="auto")
        ref = kmeans_device(Device(), V, k, seed=0, spmm_format="csr")
        assert np.array_equal(auto.labels, ref.labels)
        assert auto.centroids.tobytes() == ref.centroids.tobytes()

    def test_forced_format_launches_its_kernel(self, blobs):
        V, _, k = blobs
        dev = Device()
        kmeans_device(dev, V, k, seed=0, spmm_format="ell")
        names = [e.name for e in dev.timeline if e.category == "kernel"]
        assert any(n == "cusparseDellmm" for n in names)

    def test_invalid_format_rejected(self, blobs):
        V, _, k = blobs
        for fmt in ("coo", "hyb"):
            with pytest.raises(ClusteringError):
                kmeans_device(Device(), V, k, seed=0, spmm_format=fmt)
