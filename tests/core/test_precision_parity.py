"""Parity grid over ``precision x embedding x devices x spmv_format``.

The central promise of the mixed-precision axis: ``precision="fp64"``
(with the Lanczos embedding) is the *exact* path — bit-identical labels,
spectra and embedding to a build without the precision axis, across every
device count and SpMV format the pipeline accepts.  Reduced precisions and the power
embedding trade bits for bytes; their cells of the grid are held to the
tolerance bands instead (ARI against the planted SBM communities, refined
residual under the precision's floor).  The ``devices`` knob never trades
anything: :class:`TestDeviceParity` pins every device count to the
single-device answer.
"""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.metrics.external import adjusted_rand_index
from repro.precision import TOL_FLOORS

K = 6

#: ARI each reduced/alternative cell must clear on the 6x40 SBM fixture —
#: the same planted-partition band the regression harness enforces on the
#: benchmark datasets
ARI_BANDS = {"fp64": 0.95, "fp32": 0.95, "fp16": 0.90}

#: fp64 lanczos cells that must be bit-identical to the default fit
EXACT_GRID = [
    (1, "auto"), (1, "csr"), (1, "ell"),
    (2, "auto"), (2, "csr"),
]

#: reduced / power cells held to tolerance bands, not bit-identity
BANDED_GRID = [
    (precision, embedding, n_devices)
    for precision in ("fp32", "fp16")
    for embedding in ("lanczos", "power")
    for n_devices in (1, 2)
] + [("fp64", "power", 1), ("fp64", "power", 2)]


def _fit(graph, **kw):
    return SpectralClustering(n_clusters=K, seed=0, **kw).fit(graph=graph)


@pytest.fixture(scope="module")
def grid_graph():
    import numpy as np

    from repro.datasets.sbm import stochastic_block_model
    from repro.sparse.construct import from_edge_list

    rng = np.random.default_rng(12345)
    edges, labels = stochastic_block_model(
        [40] * K, p_in=0.5, p_out=0.01, rng=rng
    )
    return from_edge_list(edges, n_nodes=40 * K), labels


@pytest.fixture(scope="module")
def baseline(grid_graph):
    W, _ = grid_graph
    return _fit(W)


class TestExactPathBitIdentity:
    def test_explicit_fp64_kwargs_match_defaults(self, grid_graph, baseline):
        """Passing the new axes explicitly at their defaults must not
        perturb a single bit — the precision axis is invisible at fp64."""
        W, _ = grid_graph
        res = _fit(W, precision="fp64", embedding="lanczos")
        assert np.array_equal(res.labels, baseline.labels)
        assert res.eigenvalues.tobytes() == baseline.eigenvalues.tobytes()
        assert res.embedding.tobytes() == baseline.embedding.tobytes()

    @pytest.mark.parametrize("n_devices,fmt", EXACT_GRID)
    def test_fp64_grid_bit_identical(self, grid_graph, baseline, n_devices, fmt):
        W, _ = grid_graph
        res = _fit(
            W, precision="fp64", embedding="lanczos",
            devices=n_devices, eig_spmv_format=fmt,
        )
        assert np.array_equal(res.labels, baseline.labels)
        assert res.eigenvalues.tobytes() == baseline.eigenvalues.tobytes()
        assert res.embedding.tobytes() == baseline.embedding.tobytes()
        assert res.eig_stats["precision"] == "fp64"
        assert res.eig_stats["refine_steps"] == 0
        assert res.eig_stats["refine_history"] is None

    def test_fp64_power_deterministic_across_devices(self, grid_graph):
        """The power embedding is a different algorithm (never claimed
        bit-identical to Lanczos) but must itself be deterministic and
        device-count invariant at fp64."""
        W, truth = grid_graph
        one = _fit(W, embedding="power", devices=1)
        two = _fit(W, embedding="power", devices=2)
        assert one.eigenvalues.tobytes() == two.eigenvalues.tobytes()
        assert one.embedding.tobytes() == two.embedding.tobytes()
        assert np.array_equal(one.labels, two.labels)
        assert adjusted_rand_index(one.labels, truth) >= ARI_BANDS["fp64"]


class TestBandedGrid:
    @pytest.mark.parametrize("precision,embedding,n_devices", BANDED_GRID)
    def test_cell_inside_tolerance_band(
        self, grid_graph, precision, embedding, n_devices
    ):
        W, truth = grid_graph
        res = _fit(
            W, precision=precision, embedding=embedding,
            devices=n_devices,
        )
        stats = res.eig_stats
        assert stats["precision"] == precision
        assert stats["embedding"] == embedding
        assert stats["converged"]
        ari = adjusted_rand_index(res.labels, truth)
        assert ari >= ARI_BANDS[precision], (
            f"{precision}/{embedding}/{n_devices}dev ARI {ari:.3f} below "
            f"band {ARI_BANDS[precision]}"
        )
        if precision != "fp64":
            # refinement ran and landed under the precision's noise floor
            assert stats["refine_steps"] > 0
            assert stats["refine_residual"] is not None
            assert stats["refine_residual"] <= TOL_FLOORS[precision]
        assert np.all(np.isfinite(res.embedding))

    @pytest.mark.parametrize("precision", ("fp32", "fp16"))
    def test_reduced_cells_are_reproducible(self, grid_graph, precision):
        """Reduced precision is approximate but still deterministic: the
        same request must produce the same bits run-to-run (the serve
        layer caches these embeddings by fingerprint)."""
        W, _ = grid_graph
        r1 = _fit(W, precision=precision)
        r2 = _fit(W, precision=precision)
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.embedding.tobytes() == r2.embedding.tobytes()

    def test_reduced_grid_moves_fewer_bytes(self, grid_graph, baseline):
        """The point of the axis: modeled SpMV byte traffic must drop
        with the storage width on the same workload."""
        W, _ = grid_graph
        b64 = baseline.eig_stats["spmv_bytes"]
        b32 = _fit(W, precision="fp32").eig_stats["spmv_bytes"]
        b16 = _fit(W, precision="fp16").eig_stats["spmv_bytes"]
        assert b64 > b32 > b16 > 0


#: configurations the device matrix sweeps; the single-device fit of each
#: is the reference every device count must reproduce
DEVICE_EMBEDDINGS = ("lanczos", "power", "compressive")
DEVICE_PRECISIONS = ("fp64", "fp32")


@pytest.fixture(scope="module")
def single_device(grid_graph):
    W, _ = grid_graph
    return {
        (embedding, precision): _fit(W, embedding=embedding, precision=precision)
        for embedding in DEVICE_EMBEDDINGS
        for precision in DEVICE_PRECISIONS
    }


class TestDeviceParity:
    """``devices`` is a placement knob: every device count shards the
    embedding solve and reproduces the single-device labels, spectrum and
    embedding bit for bit."""

    @pytest.mark.parametrize("precision", DEVICE_PRECISIONS)
    @pytest.mark.parametrize("embedding", DEVICE_EMBEDDINGS)
    @pytest.mark.parametrize("devices", (1, 2, 4))
    def test_matches_single_device(
        self, grid_graph, single_device, devices, embedding, precision
    ):
        W, _ = grid_graph
        ref = single_device[(embedding, precision)]
        res = _fit(W, devices=devices, embedding=embedding, precision=precision)
        assert res.labels.tobytes() == ref.labels.tobytes()
        assert res.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert res.embedding.tobytes() == ref.embedding.tobytes()
        assert res.eig_stats["n_devices"] == devices
        # devices only shards the embedding: no config composes the fit
        assert "composed" not in res.eig_stats
