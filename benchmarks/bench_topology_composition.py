"""Tentpole — topology-aware multi-GPU composition.

With ``devices > 1`` and a configuration that admits composition, the
whole fit (graph upload, Laplacian, sharded eigensolve, multi-device
k-means) runs as ONE multi-device plan: rows are partitioned once into
nnz-balanced contiguous blocks, and the embedding shards stay resident on
their owners between the eigensolve and k-means.  This bench records the
four things the regression gate freezes:

1. **Bit-identity.**  Composition is a pure *time* optimization: labels,
   spectra and embeddings are bit-identical at 1, 2 and 4 devices.
2. **Ledger.**  The analytic transfer plan of the composed k-means equals
   the device traffic meters exactly (``ledger == meter``).
3. **Makespan.**  The 2-device composed fit's modeled end-to-end time
   (creep-gated).
4. **Halo.**  Per-step halo bytes of the nnz partition on dblp and two
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
from repro.kmeans.init import kmeans_plus_plus
from repro.kmeans.multi_gpu import kmeans_composed
from repro.sparse.construct import from_edge_list

from conftest import BENCH_SCALES

#: device counts the bit-parity sweep covers
DEVICE_COUNTS = (1, 2, 4)
#: the makespan workload: dblp is the paper's eigensolver-bound graph,
#: run above bench scale so both stages have real work to overlap
COMPOSED_WORKLOAD = ("dblp", 0.1)

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


def _composed() -> dict:
    """End-to-end modeled makespan of the composed fit at 2 devices."""
    name, scale = COMPOSED_WORKLOAD
    composed = _fit(name, scale, devices=2)
    return {
        "dataset": name,
        "scale": scale,
        "n_devices": 2,
        "total_composed_s": composed.timings.total_simulated(),
        "kmeans_composed_s": composed.timings.simulated["kmeans"],
        "composed_stats": composed.eig_stats["composed"],
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


def _ledger_vs_meter() -> dict:
    """The composed k-means' analytic transfer plan vs the device meters.

    Fresh devices run nothing but the composed k-means, so the summed
    traffic meters must equal the returned plan byte-for-byte — any
    drift means a charged transfer escaped the ledger (or vice versa).
    """
    r = np.random.default_rng(0)
    k, d, n = 8, 8, 4000
    centers = r.standard_normal((k, d)) * 6
    V = centers[r.integers(0, k, n)] + r.standard_normal((n, d))
    C0 = kmeans_plus_plus(V[:1000], k, np.random.default_rng(1))

    devices = device_group(Device(), 2)
    row_sets = np.array_split(np.arange(n, dtype=np.int64), 2)
    _, _, plan = kmeans_composed(
        devices, row_sets, V, k, initial_centroids=C0, max_iter=6
    )
    meter = {key: 0 for key in plan}
    for dev in devices:
        m = dev.transfer_stats()
        meter["h2d_bytes"] += m["bytes_h2d"]
        meter["d2h_bytes"] += m["bytes_d2h"]
        meter["p2p_bytes"] += m["bytes_p2p"]
        meter["elided_bytes"] += m["bytes_elided"]
        meter["elided_count"] += m["transfers_elided"]
    checked = ("h2d_bytes", "d2h_bytes", "p2p_bytes",
               "elided_bytes", "elided_count")
    return {
        "plan": {key: int(plan[key]) for key in checked},
        "meter": {key: int(meter[key]) for key in checked},
        "ok": all(plan[key] == meter[key] for key in checked),
    }


#: memoized summary — everything is a deterministic function of fixed
#: seeds, so the fused CI invocation (this bench + bench_regression.py in
#: one process) computes the composed fits once
_cache: dict | None = None


def topology_composition_summary() -> dict:
    """Machine-readable summary (consumed by BENCH_regression.json).

    The regression gate (``check_regression.py``) refuses any run where a
    bit diverges across device counts, the k-means ledger drifts from the
    meters, or the composed makespan or any workload's halo bytes creep.
    """
    global _cache
    if _cache is not None:
        return _cache
    ledger = _ledger_vs_meter()
    _cache = {
        "device_counts": list(DEVICE_COUNTS),
        "composed": _composed(),
        "partitions": _partition_halo(),
        "bit_identical": _bit_parity(),
        "ledger": ledger,
        "ledger_ok": ledger["ok"],
    }
    return _cache


@pytest.fixture(scope="module")
def summary():
    return topology_composition_summary()


def test_topology_composition_report(summary, write_table):
    comp = summary["composed"]
    lines = [
        "Tentpole: topology-aware multi-GPU composition "
        "(one partition, resident shards, composed k-means)",
        "",
        f"composed fit @ 2 devices on {comp['dataset']} "
        f"(scale {comp['scale']}): total {comp['total_composed_s']:.5f} s, "
        f"kmeans {comp['kmeans_composed_s']:.5f} s",
        "",
        "per-step halo bytes @ 2 devices (nnz-balanced blocks):",
        f"{'dataset':<10}{'n':>8}{'halo B':>10}",
        "-" * 28,
    ]
    for nm, wl in summary["partitions"].items():
        lines.append(f"{nm:<10}{wl['n']:>8,}{wl['step_halo_bytes']:>10,}")
    lines += [
        "",
        "identical labels/spectra at every device count (asserted); "
        "k-means transfer ledger == device meters (asserted).",
    ]
    write_table("topology_composition", "\n".join(lines))

    assert summary["bit_identical"] is True
    assert summary["ledger_ok"] is True


def test_resident_shards_elide_kmeans_upload(summary):
    """The composed fit's k-means never re-uploads the embedding: the
    shard uploads appear as elided bytes."""
    tr = summary["composed"]["composed_stats"]["kmeans_transfers"]
    assert tr["elided_bytes"] > 0
    assert tr["elided_count"] >= summary["composed"]["n_devices"]


def test_bench_composed_fit(benchmark):
    name, scale = "dblp", BENCH_SCALES["dblp"]
    ds = load_dataset(name, scale=scale, seed=0)
    benchmark.pedantic(
        lambda: SpectralClustering(
            n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0, devices=2
        ).fit(graph=ds.graph),
        rounds=1, iterations=1,
    )
