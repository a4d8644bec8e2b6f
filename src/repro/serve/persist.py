"""The persistent cross-process cache store.

The in-process LRU (:class:`~repro.serve.cache.EmbeddingCache`) dies
with the service, so every restart pays the warm-up all over again —
one cold solve per distinct problem.  This module spills its entries
(one :class:`~repro.core.model.FittedSpectralModel` each) to an on-disk
store so a restarted process warms from disk instead:

- **content-fingerprint keyed** — files are named by the SHA-256 of the
  canonicalized cache key (the same tuples
  :mod:`~repro.serve.fingerprint` builds, so a disk hit is bit-identical
  to a memory hit by the same argument: the key covers every parameter
  that influenced the arrays).  The full key is stored *inside* the file
  and verified on load, so a truncated hash or a foreign file can never
  alias;
- **versioned** — every file carries ``FORMAT_VERSION``; a mismatch is
  treated as a miss (and counted), never a crash, so old caches degrade
  gracefully across format changes.  A model's stored params are
  validated as a :class:`~repro.core.config.ClusterConfig` on load; params
  that no longer validate, metadata that is not a JSON object and fields
  of the wrong type are misses counted in ``errors``;
- **bit-identical round-trip** — arrays are serialized with ``np.savez``
  (dtype- and byte-exact); metadata rides as canonical JSON.  Only
  results are written: no device profile, timing or other process-local
  observation, so the stored bytes of an entry do not depend on how
  long it took to compute;
- **taint rule preserved** — an artifact whose resilience record is
  non-empty (it recovered from injected faults) is refused with a typed
  error.  The LRU already never offers one; the store double-checks.

Writes go through a temp file + ``os.replace`` so a concurrent reader
(the restarted process racing the dying one) never sees a torn file.
No pickle anywhere: only primitive arrays and JSON, so a poisoned cache
directory cannot execute code.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.config import ClusterConfig
from repro.errors import ClusteringError, ServiceError
from repro.sparse.csr import CSRMatrix

#: bump when the on-disk layout changes; readers treat any other value
#: as a miss.  Version 2: stored model ``params`` carry the single
#: ``devices`` knob; version-1 params name per-stage device knobs the
#: estimator no longer accepts, so refitting from them would raise.
#: Version 3: the cache keys and stored ``params`` lose the similarity,
#: row-normalization, isolated-node, k-means-variant and lift knobs.
#: Version 4: a model stores its basis once; the loaded model's
#: ``embedding`` is an alias of ``basis``, not a second array.
#: Version 5: one entry type — every entry is a fitted model (labels-only
#: for ratiocut and compressive fits); the embedding kind is gone
FORMAT_VERSION = 5

#: the arrays every entry stores; a Nyström-capable model adds its
#: degrees, graph and (point input) anchors
_MODEL_ARRAYS = ("basis", "eigenvalues", "centroids", "labels", "kept")


def _key_json(obj):
    """A cache-key element as JSON-ready primitives (tuples become lists)."""
    if isinstance(obj, (tuple, list)):
        return [_key_json(o) for o in obj]
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, (int, float, np.integer, np.floating)):
        # preserve int/float distinction; repr round-trips floats
        return obj.item() if isinstance(obj, np.generic) else obj
    raise ServiceError(
        f"cache key contains a non-serializable element: {obj!r}"
    )


def canonical_key(key: tuple) -> str:
    """Canonical JSON for a cache key (tuples become lists, recursively).

    Cache keys are tuples of primitives by construction
    (:mod:`~repro.serve.fingerprint`), so JSON round-trips them exactly;
    the canonical string is both the hash input and the stored identity.
    """
    return json.dumps(_key_json(key), separators=(",", ":"), sort_keys=False)


#: JSON numbers a float field accepts
_NUMBER = (int, float)


def _typed(value, kind, what: str):
    """``value`` when it is a ``kind`` (``bool`` passes only for ``bool``).

    Stored metadata may come from a foreign or damaged writer; a value
    of the wrong type raises ``ValueError``, which
    :meth:`PersistentStore.load` counts as an error miss.
    """
    is_bool = isinstance(value, bool)
    if is_bool != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"stored {what} is a {type(value).__name__}")
    return value


def _field(meta: dict, name: str, kind, *default):
    """``meta[name]`` checked by :func:`_typed`; a missing field reads
    ``default`` when one is given and raises ``KeyError`` otherwise."""
    value = meta.get(name, *default) if default else meta[name]
    return _typed(value, kind, name)


def _sanitize(obj):
    """JSON-encode best-effort stats dicts (numpy scalars/arrays allowed)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


@dataclass
class StoreStats:
    """Counters for one store instance (surfaced via the cache stats)."""

    loads: int = 0
    saves: int = 0
    #: files rejected for format-version or key mismatch
    stale: int = 0
    #: unreadable/corrupt files skipped (treated as misses)
    errors: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict:
        return {
            "loads": self.loads,
            "saves": self.saves,
            "stale": self.stale,
            "errors": self.errors,
            "bytes_written": self.bytes_written,
        }


class PersistentStore:
    """Content-addressed npz files under one directory.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  Safe to share
        between processes: writes are atomic renames, reads verify the
        embedded key and version.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    def path_for(self, key: tuple) -> Path:
        digest = hashlib.sha256(canonical_key(key).encode()).hexdigest()
        return self.root / f"{digest}.npz"

    def __contains__(self, key: tuple) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.npz"))

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(self, key: tuple, model) -> int:
        """Persist one cache entry (a fitted model); returns bytes written.

        Tainted models (non-empty resilience record) are refused —
        recovered computations are *believed* correct, and this store
        only keeps provably clean ones, exactly like the in-memory cache.
        """
        from repro.core.model import FittedSpectralModel

        if not isinstance(model, FittedSpectralModel):
            raise ServiceError(
                f"cannot persist a {type(model).__name__}; expected a "
                "FittedSpectralModel"
            )
        if model.resilience:
            raise ServiceError(
                "refusing to persist a tainted artifact (non-empty "
                f"resilience record {sorted(model.resilience)})"
            )
        arrays = {name: getattr(model, name) for name in _MODEL_ARRAYS}
        has_graph = model.graph is not None
        if has_graph:
            arrays.update(
                degrees=model.degrees,
                graph_indptr=model.graph.indptr,
                graph_indices=model.graph.indices,
                graph_data=model.graph.data,
            )
        if model.anchors is not None:
            arrays["anchors"] = model.anchors
        meta = {
            "format": FORMAT_VERSION,
            "key": json.loads(canonical_key(key)),
            "n_total": int(model.n_total),
            "graph_shape": list(model.graph.shape) if has_graph else None,
            "params": _sanitize(asdict(model.config)),
            "drift_scale": float(model.drift_scale),
            "n_refits": int(model.n_refits),
            "accumulated_drift": float(model._accumulated_drift),
            "has_anchors": model.anchors is not None,
        }
        blob = json.dumps(meta, separators=(",", ":")).encode()
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    __meta__=np.frombuffer(blob, dtype=np.uint8),
                    **arrays,
                )
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        nbytes = path.stat().st_size
        self.stats.saves += 1
        self.stats.bytes_written += nbytes
        return nbytes

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self, key: tuple):
        """Load one entry, or None on miss/stale/corrupt (never raises).

        The embedded key must match ``key`` exactly (content addressing
        plus verification), and the format version must be current.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as npz:
                meta = json.loads(bytes(npz["__meta__"].tobytes()).decode())
                _typed(meta, dict, "metadata")
                if meta.get("format") != FORMAT_VERSION:
                    self.stats.stale += 1
                    return None
                if meta.get("key") != json.loads(canonical_key(key)):
                    self.stats.stale += 1
                    return None
                value = self._load_model(npz, meta)
        except (
            OSError, ValueError, KeyError, json.JSONDecodeError,
            # a truncated or damaged zip archive, or member stream
            zipfile.BadZipFile, EOFError, zlib.error,
        ):
            self.stats.errors += 1
            return None
        self.stats.loads += 1
        return value

    @staticmethod
    def _load_model(npz, meta):
        from repro.core.model import FittedSpectralModel

        try:
            config = ClusterConfig(**_field(meta, "params", dict))
        except (TypeError, ClusteringError) as err:
            # an unknown or invalid knob would only fail later, at refit
            raise ValueError(f"stored model params: {err}") from err
        shape = meta["graph_shape"]  # None: a labels-only entry
        graph = degrees = None
        if shape is not None:
            _typed(shape, list, "graph_shape")
            if len(shape) != 2:
                raise ValueError(
                    f"stored graph_shape has {len(shape)} entries"
                )
            graph = CSRMatrix(
                indptr=npz["graph_indptr"],
                indices=npz["graph_indices"],
                data=npz["graph_data"],
                shape=tuple(
                    _typed(d, int, "graph_shape entry") for d in shape
                ),
                check=False,
            )
            degrees = npz["degrees"]
        return FittedSpectralModel(
            basis=npz["basis"],
            eigenvalues=npz["eigenvalues"],
            degrees=degrees,
            centroids=npz["centroids"],
            labels=npz["labels"],
            kept=npz["kept"],
            n_total=_field(meta, "n_total", int),
            graph=graph,
            anchors=(
                npz["anchors"] if _field(meta, "has_anchors", bool, False)
                else None
            ),
            config=config,
            resilience={},
            drift_scale=float(_field(meta, "drift_scale", _NUMBER, 1.0)),
            n_refits=_field(meta, "n_refits", int, 0),
            _accumulated_drift=float(
                _field(meta, "accumulated_drift", _NUMBER, 0.0)
            ),
        )
