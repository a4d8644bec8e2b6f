"""Multi-device fits on the paper's PCIe topology.

With ``devices > 1`` the fit shards the embedding solve over a
topology-aware device group: rows are split into nnz-balanced contiguous
blocks, halo segments travel over the peer links, and the Ritz block comes
back to the primary device, where the single-device k-means runs.  This
bench records the three things the regression gate freezes:

1. **Bit-identity.**  Sharding is a pure *time* change: labels, spectra
   and embeddings are bit-identical at 1, 2 and 4 devices.
2. **Makespan.**  The 2-device sharded fit's modeled end-to-end time
   (creep-gated) and its k-means time.
3. **Halo.**  Per-step halo bytes of the nnz partition on dblp and two
   shuffled-community graphs (creep-gated).
"""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.cusparse.matrices import csr_to_device
from repro.cusparse.partition import device_group, partition_csr
from repro.datasets.registry import load_dataset
from repro.datasets.sbm import stochastic_block_model
from repro.sparse.construct import from_edge_list

from conftest import BENCH_SCALES

#: device counts the bit-parity sweep covers
DEVICE_COUNTS = (1, 2, 4)
#: the makespan workload: dblp is the paper's eigensolver-bound graph,
#: run above bench scale so the sharded solve has real work
SHARDED_WORKLOAD = ("dblp", 0.1)

#: shuffled-community graphs for the halo record.  Vertex ids are
#: permuted so contiguous row blocks straddle every community — the
#: worst case for a contiguous partitioner's halo.
SBM_WORKLOADS = {
    "sbm4x60": dict(sizes=[60, 60, 60, 60], p_in=0.25, p_out=0.01,
                    graph_seed=7, perm_seed=3),
    "sbm4x80": dict(sizes=[80, 80, 80, 80], p_in=0.25, p_out=0.008,
                    graph_seed=11, perm_seed=5),
}


def _shuffled_sbm(spec: dict):
    """A stochastic block model with its vertex ids shuffled."""
    edges, _ = stochastic_block_model(
        spec["sizes"], p_in=spec["p_in"], p_out=spec["p_out"],
        rng=np.random.default_rng(spec["graph_seed"]),
    )
    n = int(sum(spec["sizes"]))
    perm = np.random.default_rng(spec["perm_seed"]).permutation(n)
    return from_edge_list(perm[edges], n_nodes=n).to_csr()


def _fit(name: str, scale: float, **kw):
    ds = load_dataset(name, scale=scale, seed=0)
    est = SpectralClustering(
        n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0, **kw
    )
    return est.fit(graph=ds.graph)


def _sharded() -> dict:
    """End-to-end modeled makespan of the sharded fit at 2 devices."""
    name, scale = SHARDED_WORKLOAD
    res = _fit(name, scale, devices=2)
    return {
        "dataset": name,
        "scale": scale,
        "n_devices": 2,
        "total_s": res.timings.total_simulated(),
        "kmeans_s": res.timings.simulated["kmeans"],
    }


def _partition_halo() -> dict:
    """Per-step halo bytes of the 2-device partition on every workload."""
    graphs = {nm: _shuffled_sbm(spec) for nm, spec in SBM_WORKLOADS.items()}
    ds = load_dataset("dblp", scale=BENCH_SCALES["dblp"], seed=0)
    graphs["dblp"] = ds.graph.to_csr()

    out = {}
    for nm, host in graphs.items():
        devices = device_group(Device(), 2)
        plan = partition_csr(csr_to_device(devices[0], host), devices)
        out[nm] = {
            "n": int(host.shape[0]),
            "step_halo_bytes": int(plan.step_halo_bytes()),
        }
        plan.free()
    return out


def _bit_parity() -> bool:
    """Labels, spectra and embeddings identical at every device count."""
    name, scale = "dblp", BENCH_SCALES["dblp"]
    ref = _fit(name, scale)
    ok = True
    for p in DEVICE_COUNTS[1:]:
        r = _fit(name, scale, devices=p)
        ok = ok and r.labels.tobytes() == ref.labels.tobytes()
        ok = ok and r.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        ok = ok and r.embedding.tobytes() == ref.embedding.tobytes()
    return ok


#: memoized summary — everything is a deterministic function of fixed
#: seeds, so the fused CI invocation (this bench + bench_regression.py in
#: one process) computes the multi-device fits once
_cache: dict | None = None


def topology_composition_summary() -> dict:
    """Machine-readable summary (consumed by BENCH_regression.json).

    The regression gate (``check_regression.py``) refuses any run where a
    bit diverges across device counts, or the sharded makespan or any
    workload's halo bytes creep.
    """
    global _cache
    if _cache is not None:
        return _cache
    _cache = {
        "device_counts": list(DEVICE_COUNTS),
        "sharded": _sharded(),
        "partitions": _partition_halo(),
        "bit_identical": _bit_parity(),
    }
    return _cache


@pytest.fixture(scope="module")
def summary():
    return topology_composition_summary()


def test_topology_composition_report(summary, write_table):
    sh = summary["sharded"]
    lines = [
        "Multi-device fit: sharded embedding solve, k-means on the "
        "primary device",
        "",
        f"sharded fit @ 2 devices on {sh['dataset']} "
        f"(scale {sh['scale']}): total {sh['total_s']:.5f} s, "
        f"kmeans {sh['kmeans_s']:.5f} s",
        "",
        "per-step halo bytes @ 2 devices (nnz-balanced blocks):",
        f"{'dataset':<10}{'n':>8}{'halo B':>10}",
        "-" * 28,
    ]
    for nm, wl in summary["partitions"].items():
        lines.append(f"{nm:<10}{wl['n']:>8,}{wl['step_halo_bytes']:>10,}")
    lines += [
        "",
        "identical labels/spectra at every device count (asserted).",
    ]
    write_table("topology_composition", "\n".join(lines))

    assert summary["bit_identical"] is True


def test_bench_sharded_fit(benchmark):
    name, scale = "dblp", BENCH_SCALES["dblp"]
    ds = load_dataset(name, scale=scale, seed=0)
    benchmark.pedantic(
        lambda: SpectralClustering(
            n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0, devices=2
        ).fit(graph=ds.graph),
        rounds=1, iterations=1,
    )
