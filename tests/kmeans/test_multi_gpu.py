"""Multi-GPU k-means: correctness parity and scaling behavior."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.cusparse.partition import device_group
from repro.errors import ClusteringError
from repro.kmeans.gpu import kmeans_device
from repro.kmeans.init import kmeans_plus_plus
from repro.kmeans.multi_gpu import kmeans_composed


@pytest.fixture
def big_blobs(rng):
    k, per, d = 6, 300, 8
    centers = rng.standard_normal((k, d)) * 10
    truth = np.repeat(np.arange(k), per)
    V = centers[truth] + 0.5 * rng.standard_normal((k * per, d))
    return V, truth, k


def composed_group(p):
    """p topology-aware devices on one shared timeline."""
    return device_group(Device(), p)


def contiguous_row_sets(n, p):
    return np.array_split(np.arange(n, dtype=np.int64), p)


def run_composed(V, k, n_dev, **kw):
    """kmeans_composed over n_dev fresh devices with contiguous blocks."""
    return kmeans_composed(
        composed_group(n_dev), contiguous_row_sets(len(V), n_dev), V, k, **kw
    )


class TestParity:
    @pytest.mark.parametrize("n_dev", [1, 2, 3, 4])
    def test_matches_single_device(self, big_blobs, n_dev):
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        multi, _, _ = run_composed(V, k, n_dev, initial_centroids=C0)
        assert np.array_equal(single.labels, multi.labels)
        assert single.centroids.tobytes() == multi.centroids.tobytes()
        assert single.n_iter == multi.n_iter

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_dev", [2, 3])
    def test_multi_seed_parity(self, seed, n_dev):
        """Sharded runs agree with one device across seeds and pool sizes."""
        r = np.random.default_rng(seed)
        V = r.random((400, 5))
        k = 6
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(seed + 10))
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        multi, _, _ = run_composed(V, k, n_dev, initial_centroids=C0)
        assert np.array_equal(single.labels, multi.labels)
        assert single.centroids.tobytes() == multi.centroids.tobytes()
        assert single.n_iter == multi.n_iter
        assert single.converged == multi.converged

    @pytest.mark.parametrize("n_dev", [1, 2, 3])
    def test_empty_cluster_repair_parity(self, n_dev):
        """Duplicated points force the empty-cluster repair rule; the
        sharded path must apply it exactly like the single-device path."""
        r = np.random.default_rng(7)
        base = r.random((8, 3))
        V = np.repeat(base, 6, axis=0)  # 48 points, only 8 distinct
        k = 12  # more clusters than distinct points -> guaranteed repair
        C0 = V[:k] + r.random((k, 3)) * 1e-3
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        multi, _, _ = run_composed(V, k, n_dev, initial_centroids=C0)
        assert np.all(np.bincount(multi.labels, minlength=k) >= 1)
        assert np.array_equal(single.labels, multi.labels)
        assert single.centroids.tobytes() == multi.centroids.tobytes()

    def test_inertia_monotone(self, big_blobs):
        V, _, k = big_blobs
        res, _, _ = run_composed(V, k, 2, seed=0)
        h = res.inertia_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_recovers_blobs(self, big_blobs):
        from repro.metrics.external import adjusted_rand_index

        V, truth, k = big_blobs
        res, _, _ = run_composed(V, k, 2, seed=0)
        assert adjusted_rand_index(res.labels, truth) > 0.98


class TestScaling:
    def test_parallel_time_beats_single_device(self, rng):
        # scaling shows only when per-shard work dominates the fixed
        # kernel-launch overheads — use a large-n workload, few iterations
        V = rng.random((120_000, 8))
        k = 8
        C0 = kmeans_plus_plus(V[:2000], k, np.random.default_rng(3))
        d1 = Device()
        kmeans_device(d1, V, k, initial_centroids=C0, max_iter=2)
        t1 = d1.timeline.total(tag="kmeans")
        _, timings, _ = run_composed(V, k, 4, initial_centroids=C0, max_iter=2)
        # makespan clearly under the one-device time (launch overheads +
        # the peer-bus allreduce keep it short of the ideal 4x)
        assert timings.parallel_seconds < 0.7 * t1

    def test_tiny_problem_launch_bound(self, big_blobs):
        """The flip side (Amdahl on launch latency): at tiny sizes adding
        devices buys almost nothing because each shard still pays the
        full per-iteration launch sequence."""
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        d1 = Device()
        kmeans_device(d1, V, k, initial_centroids=C0)
        t1 = d1.timeline.total(tag="kmeans")
        _, timings, _ = run_composed(V, k, 4, initial_centroids=C0)
        assert timings.parallel_seconds > 0.5 * t1

    def test_per_device_times_balanced(self, big_blobs):
        V, _, k = big_blobs
        _, timings, _ = run_composed(V, k, 2, seed=0)
        a, b = timings.per_device_seconds
        assert abs(a - b) < 0.3 * max(a, b)


class TestValidation:
    def test_no_devices(self, big_blobs):
        V, _, k = big_blobs
        with pytest.raises(ClusteringError):
            kmeans_composed([], [], V, k)

    def test_more_devices_than_points(self, rng):
        """Devices left with an empty row set idle through every Lloyd
        trip; the answer is still the single-device one."""
        V = rng.random((3, 2))
        single = kmeans_device(Device(), V, 2, seed=0)
        multi, _, _ = run_composed(V, 2, 5, seed=0)
        assert multi.labels.tobytes() == single.labels.tobytes()

    def test_bad_centroid_shape(self, big_blobs):
        V, _, k = big_blobs
        with pytest.raises(ClusteringError):
            run_composed(V, k, 1, initial_centroids=np.zeros((k, 99)))

    def test_devices_memory_freed(self, big_blobs):
        """Resident shards are released too, not only cold uploads."""
        V, _, k = big_blobs
        devs = composed_group(3)
        kmeans_composed(
            devs, contiguous_row_sets(len(V), 3), V, k, seed=0, resident=True
        )
        for d in devs:
            assert d.allocator.used_bytes == 0


class TestComposed:
    """kmeans_composed: the one-plan fit's resident-shard k-means."""

    @pytest.mark.parametrize("n_dev", [1, 2, 4])
    def test_bitwise_matches_single_device(self, big_blobs, n_dev):
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        res, _, _ = kmeans_composed(
            composed_group(n_dev), contiguous_row_sets(len(V), n_dev),
            V, k, initial_centroids=C0,
        )
        assert res.labels.tobytes() == single.labels.tobytes()
        assert res.centroids.tobytes() == single.centroids.tobytes()
        assert np.array_equal(res.inertia_history, single.inertia_history)
        assert res.n_iter == single.n_iter

    @pytest.mark.parametrize("seed", [0, 5])
    def test_plus_plus_seeding_matches_device_rng(self, big_blobs, seed):
        """Composed k-means++ consumes the RNG exactly like the
        single-device device-side seeding path."""
        V, _, k = big_blobs
        single = kmeans_device(Device(), V, k, seed=seed)
        res, _, _ = kmeans_composed(
            composed_group(2), contiguous_row_sets(len(V), 2),
            V, k, seed=seed,
        )
        assert res.labels.tobytes() == single.labels.tobytes()
        assert res.centroids.tobytes() == single.centroids.tobytes()

    def test_noncontiguous_row_sets_bit_identical(self, big_blobs):
        """An interleaved row ownership changes nothing but time."""
        V, _, k = big_blobs
        n = len(V)
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        rows = np.random.default_rng(11).permutation(n)
        sets = [np.sort(rows[: n // 2]), np.sort(rows[n // 2:])]
        res, _, _ = kmeans_composed(
            composed_group(2), sets, V, k, initial_centroids=C0
        )
        assert res.labels.tobytes() == single.labels.tobytes()

    def test_transfer_plan_matches_meters(self, big_blobs):
        V, _, k = big_blobs
        devs = composed_group(3)
        _, _, plan = kmeans_composed(
            devs, contiguous_row_sets(len(V), 3), V, k, seed=0
        )
        assert plan["h2d_bytes"] == sum(d.bytes_h2d for d in devs)
        assert plan["d2h_bytes"] == sum(d.bytes_d2h for d in devs)
        assert plan["p2p_bytes"] == sum(d.bytes_p2p for d in devs)
        assert plan["elided_bytes"] == sum(d.bytes_elided for d in devs)
        assert plan["elided_count"] == sum(
            d.transfers_elided for d in devs
        )

    def test_resident_elides_shard_uploads(self, big_blobs):
        """resident=True converts every per-shard embedding upload into
        an elided transfer of the same size."""
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        sets = contiguous_row_sets(len(V), 2)
        _, _, cold = kmeans_composed(
            composed_group(2), sets, V, k, initial_centroids=C0
        )
        devs = composed_group(2)
        res, _, warm = kmeans_composed(
            devs, sets, V, k, initial_centroids=C0, resident=True
        )
        shard_bytes = V.nbytes
        assert cold["h2d_bytes"] - warm["h2d_bytes"] == shard_bytes
        assert warm["elided_bytes"] - cold["elided_bytes"] == shard_bytes
        assert warm["elided_count"] - cold["elided_count"] == 2
        assert sum(d.bytes_elided for d in devs) == warm["elided_bytes"]

    def test_resident_faster_than_cold(self, big_blobs):
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        sets = contiguous_row_sets(len(V), 2)
        _, cold, _ = kmeans_composed(
            composed_group(2), sets, V, k, initial_centroids=C0
        )
        _, warm, _ = kmeans_composed(
            composed_group(2), sets, V, k, initial_centroids=C0,
            resident=True,
        )
        assert warm.parallel_seconds < cold.parallel_seconds

    def test_row_sets_must_cover(self, big_blobs):
        V, _, k = big_blobs
        devs = composed_group(2)
        sets = contiguous_row_sets(len(V), 2)
        with pytest.raises(ClusteringError):
            kmeans_composed(devs, sets[:1], V, k)
        with pytest.raises(ClusteringError):
            kmeans_composed(
                devs, [sets[0], sets[1][:-3]], V, k
            )

    def test_devices_must_share_timeline(self, big_blobs):
        V, _, k = big_blobs
        with pytest.raises(ClusteringError):
            kmeans_composed(
                [Device(), Device()], contiguous_row_sets(len(V), 2), V, k
            )

    def test_memory_freed(self, big_blobs):
        V, _, k = big_blobs
        devs = composed_group(2)
        kmeans_composed(devs, contiguous_row_sets(len(V), 2), V, k, seed=0)
        for d in devs:
            assert d.allocator.used_bytes == 0
