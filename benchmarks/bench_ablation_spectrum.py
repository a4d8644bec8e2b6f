"""Ablation — largest eigenvalues of D⁻¹W vs smallest of L_n, and the
symmetric vs random-walk operator realization.

§IV.B: "computing the largest eigenvalues results in better numerical
stability and convergent behavior, [so] we focus our attention on computing
the eigenvectors corresponding to the largest k eigenvalues of D⁻¹W."
This bench verifies the two formulations agree and measures the
convergence-behavior difference that motivates the choice."""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.datasets.registry import load_dataset
from repro.linalg.eigsolver import SymEigProblem
from repro.graph.laplacian import laplacian, sym_normalized_adjacency
from repro.metrics.external import adjusted_rand_index
from repro.sparse.construct import identity


@pytest.fixture(scope="module")
def ds():
    return load_dataset("syn200", scale=0.05, seed=0)


def _solve(op, n, k, which):
    prob = SymEigProblem(n=n, k=k, which=which, tol=1e-8, seed=0)
    while not prob.converged():
        prob.take_step()
        if prob.needs_matvec():
            prob.put_vector(op.matvec(prob.get_vector()))
    theta, U = prob.find_eigenvectors()
    return theta, U, prob.result


def test_ablation_spectrum_report(ds, write_table):
    W = ds.graph
    k = ds.n_clusters
    n = W.shape[0]
    S = sym_normalized_adjacency(W)
    # L_sym = I - S has the mirrored spectrum
    L = identity(n).add(S.scaled(-1.0))

    t_la, _, r_la = _solve(S, n, k, "LA")
    t_sa, _, r_sa = _solve(L, n, k, "SA")
    # the two solves order their Ritz values oppositely; compare sorted
    mirrored, top = np.sort(1.0 - t_sa), np.sort(t_la)

    lines = [
        f"Ablation: spectrum end (syn200 scaled, n={n}, k={k})",
        f"{'formulation':<28}{'n_op':>8}{'restarts':>10}{'conv':>6}",
        "-" * 54,
        f"{'largest of D^-1/2WD^-1/2':<28}{r_la.n_op:>8}{r_la.n_restarts:>10}"
        f"{str(r_la.converged):>6}",
        f"{'smallest of L_n':<28}{r_sa.n_op:>8}{r_sa.n_restarts:>10}"
        f"{str(r_sa.converged):>6}",
        f"spectra agree: max |(1 - λ_L) - λ_W| = "
        f"{np.max(np.abs(mirrored - top)):.2e}",
    ]
    write_table("ablation_spectrum", "\n".join(lines))
    # the two formulations are the same problem
    assert np.allclose(mirrored, top, atol=1e-6)


def test_sym_vs_rw_operator_end_to_end(ds):
    """The 'rw' path feeds the *nonsymmetric* D⁻¹W through symmetric
    Lanczos, exactly as the paper describes doing.  The result: the same
    partition, but eigenvalues perturbed at the ~1e-3 level (we observe
    λ_max slightly above the theoretical bound of 1) — the numerical
    wrinkle that makes the symmetric similarity transform the sound
    default."""
    W = ds.graph
    sym = SpectralClustering(n_clusters=ds.n_clusters, operator="sym", seed=0)
    rw = SpectralClustering(n_clusters=ds.n_clusters, operator="rw", seed=0)
    r_sym = sym.fit(graph=W)
    r_rw = rw.fit(graph=W)
    # approximately the same spectrum (identical in exact arithmetic)...
    assert np.allclose(
        np.sort(r_sym.eigenvalues), np.sort(r_rw.eigenvalues), atol=5e-2
    )
    # ...but not to solver precision: the rw route is measurably perturbed
    # while the sym route pins the top eigenvalue at exactly 1
    assert abs(r_sym.eigenvalues[0] - 1.0) < 1e-8
    a = adjusted_rand_index(r_sym.labels, ds.labels)
    b = adjusted_rand_index(r_rw.labels, ds.labels)
    assert min(a, b) > 0.7


def test_bench_la_formulation(benchmark, ds):
    S = sym_normalized_adjacency(ds.graph)
    n = ds.graph.shape[0]
    benchmark.pedantic(
        _solve, args=(S, n, ds.n_clusters, "LA"), rounds=2, iterations=1
    )
