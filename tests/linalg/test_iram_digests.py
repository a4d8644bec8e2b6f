"""Frozen IRLM spectra: the bits of the bench workloads' eigenpairs.

Labels are robust to a last-bit drift in the eigenvectors, so a change
to the restart's numerics could pass every label gate while moving the
spectrum.  Two checks pin ``irlm_generator``'s eigenvalues and
eigenvectors, byte for byte, on the normalized adjacency of each bench
workload at its bench scale (``BENCH_SCALES``):

- on any machine, the solve gives the same bytes as a solve whose
  restarts apply their shifts one sweep at a time (the shift-by-shift
  chase of ``tests/linalg/test_qr.py``);
- the sha256 digests recorded in ``FROZEN`` match.  Those bits depend on
  the BLAS build and on the CPU kernel it picks at runtime, so this check
  runs only under the OpenBLAS version and core they were recorded with
  (``FROZEN_BLAS``) and is skipped, naming both, anywhere else.

The solves run in a fresh interpreter with one BLAS thread: OpenBLAS
splits a large gemv across threads and reorders its sums, so the dblp
operator's bits depend on the thread count.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

#: the workloads of benchmarks/conftest.py's BENCH_SCALES
BENCH_SCALES = {"dti": 0.01, "fb": 0.5, "syn200": 0.1, "dblp": 0.02}

#: (restarts, sha256 of eigenvalues, sha256 of eigenvectors) per workload
FROZEN = {
    "dblp": (
        71,
        "2551f7ece0e6d6e591c5d7d358dd5cc9eb440938f85def409fb77d788ed38fd7",
        "e047f3759b156ccda65ffe15600908a9a766adad23bbe6a584745451bcd70f52",
    ),
    "dti": (
        13,
        "d57176dd51ef2837c93c2456b0fab64fa1e399f42a79ebf32467fd41b625da85",
        "aa6496cb1c9854295f06ce3df559ef0f6a6e8abe6e76c74fe6459b6bdfee5d2b",
    ),
    "fb": (
        4,
        "7a5874ade4e4b75d3606a21c71c4beefb6bab9c84a4a756cdacc05d0a7c387bb",
        "186f0a7aa5d0ed70711a9558d331235371087d38022de8c28ac8961983945305",
    ),
    "syn200": (
        3,
        "3e52d69965e8b4ffd29f4be7eafb1909d743592e8dfb433c014a1fc057e7e8f2",
        "a63d716e60f25136aeea9405054d5e2b6f94952ac4302eba716bdaa454260a9b",
    ),
}


#: (OpenBLAS version, runtime core) the digests were recorded under
FROZEN_BLAS = ("0.3.31.188.0", "SkylakeX")


def blas_identity() -> tuple[str, str] | None:
    """``(version, core)`` of the OpenBLAS bundled with numpy, as the
    library reports it at runtime; None for any other BLAS."""
    root = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(root, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                core = getattr(lib, f"{prefix}_get_corename{suffix}")
            except AttributeError:
                continue
            config.argtypes = core.argtypes = []
            config.restype = core.restype = ctypes.c_char_p
            words = config().decode().split()
            if len(words) >= 2 and words[0] == "OpenBLAS":
                return words[1], core().decode()
    return None


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _per_shift_sweep(T, shifts, Q) -> None:
    """The restart sweep applied one shift at a time."""
    from tests.linalg.test_qr import per_shift_sweep

    for mu in shifts:
        per_shift_sweep(T, float(mu), Q)


def spectrum_digests(per_shift: bool = False) -> dict:
    """Solve every bench workload's operator with the IRLM (seed 0,
    machine-precision tolerance) and digest the result; ``per_shift``
    makes each restart apply its shifts one sweep at a time."""
    import repro.linalg.iram as iram
    from repro.datasets.registry import load_dataset
    from repro.graph.build import build_similarity_graph
    from repro.graph.components import remove_isolated
    from repro.graph.laplacian import sym_normalized_adjacency

    out = {}
    sweep = iram.implicit_qr_sweep
    if per_shift:
        iram.implicit_qr_sweep = _per_shift_sweep
    try:
        for name, scale in sorted(BENCH_SCALES.items()):
            ds = load_dataset(name, scale=scale, seed=0)
            W = (
                build_similarity_graph(ds.points, ds.edges)
                if ds.points is not None else ds.graph
            )
            S = sym_normalized_adjacency(remove_isolated(W)[0])
            gen = iram.irlm_generator(
                S.shape[0], ds.n_clusters, which="LA", seed=0
            )
            try:
                x = next(gen)
                while True:
                    x = gen.send(S.matvec(x))
            except StopIteration as stop:
                res = stop.value
            out[name] = (
                res.n_restarts,
                _sha256(res.eigenvalues),
                _sha256(res.eigenvectors),
            )
    finally:
        iram.implicit_qr_sweep = sweep
    return out


@pytest.fixture(scope="module")
def solves() -> dict:
    """``{"blas": blas_identity(), "pipelined": ..., "per_shift": ...}``
    from one fresh interpreter with one BLAS thread."""
    root = Path(__file__).resolve().parents[2]
    paths = [str(root / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(paths),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    code = (
        "import json\n"
        "from tests.linalg.test_iram_digests import (\n"
        "    blas_identity, spectrum_digests)\n"
        "print(json.dumps({'blas': blas_identity(),\n"
        "                  'pipelined': spectrum_digests(),\n"
        "                  'per_shift': spectrum_digests(per_shift=True)}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root,
        capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    return {
        "blas": tuple(got["blas"]) if got["blas"] else None,
        **{
            kind: {k: tuple(v) for k, v in got[kind].items()}
            for kind in ("pipelined", "per_shift")
        },
    }


@pytest.mark.parametrize("name", sorted(BENCH_SCALES))
def test_spectrum_matches_per_shift_sweeps(solves, name):
    """Byte-equal digests: the pipelined restart gives the bits of one
    sweep per shift, on any BLAS and CPU."""
    assert solves["pipelined"][name] == solves["per_shift"][name]


@pytest.mark.parametrize("name", sorted(BENCH_SCALES))
def test_spectrum_is_bit_identical(solves, name):
    if solves["blas"] != FROZEN_BLAS:
        pytest.skip(
            f"digests recorded under OpenBLAS {FROZEN_BLAS[0]} on a "
            f"{FROZEN_BLAS[1]} core; this process runs "
            + (
                f"OpenBLAS {solves['blas'][0]} on a {solves['blas'][1]} core"
                if solves["blas"] else "another BLAS"
            )
        )
    assert solves["pipelined"][name] == FROZEN[name]
