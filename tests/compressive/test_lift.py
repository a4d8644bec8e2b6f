"""Label lifting (`repro.compressive.lift`)."""

import numpy as np

from repro.compressive.lift import lift_labels_device, lift_labels_host


def _sketch(seed=0):
    """A 3-cluster sketch with well-separated blocks plus a sample."""
    rng = np.random.default_rng(seed)
    centers = np.array([[4.0, 0, 0], [0, 4.0, 0], [0, 0, 4.0]])
    truth = np.repeat(np.arange(3), 40)
    F = centers[truth] + 0.2 * rng.standard_normal((120, 3))
    idx = np.sort(rng.choice(120, size=30, replace=False)).astype(np.int64)
    labels_s = truth[idx].astype(np.int64)
    return F, idx, labels_s, truth


class TestLift:
    def test_recovers_all_labels(self, device):
        F, idx, labels_s, truth = _sketch()
        labels = lift_labels_device(device, F, idx, labels_s, 3)
        assert labels.shape == truth.shape
        assert labels.dtype == labels_s.dtype
        assert np.array_equal(labels, truth)

    def test_host_matches_device_bitwise(self, device):
        F, idx, labels_s, _ = _sketch()
        a = lift_labels_device(device, F, idx, labels_s, 3)
        b = lift_labels_host(device, F, idx, labels_s, 3)
        assert a.tobytes() == b.tobytes()

    def test_sampled_rows_keep_their_labels_interp(self, device):
        """The ridge is weak enough that the sampled rows themselves stay
        on their assigned side."""
        F, idx, labels_s, _ = _sketch()
        labels = lift_labels_device(device, F, idx, labels_s, 3)
        assert np.array_equal(labels[idx], labels_s)

    def test_device_charges_kernels(self, device):
        F, idx, labels_s, _ = _sketch()
        before = device.kernel_launches
        lift_labels_device(device, F, idx, labels_s, 3)
        assert device.kernel_launches == before + 3  # gram, potrf, scores

    def test_degenerate_single_sample_per_cluster(self, device):
        """A minimal sample (one row per cluster) must still produce a
        full labeling without blowing up the ridge solve."""
        F, _, _, truth = _sketch()
        idx = np.array([0, 40, 80], dtype=np.int64)
        labels_s = truth[idx].astype(np.int64)
        labels = lift_labels_device(device, F, idx, labels_s, 3)
        assert labels.shape == truth.shape
        assert set(np.unique(labels)) <= {0, 1, 2}
