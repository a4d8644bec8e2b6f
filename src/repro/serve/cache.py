"""The LRU model cache.

The spectral embedding is the pipeline's expensive, reusable artifact
(Tremblay et al.'s compressive clustering makes the same observation from
the other direction): for repeat queries on the same graph with the same
solver parameters, stages 1-4 are pure recomputation.  The cache holds one
entry per solved problem — the
:class:`~repro.core.model.FittedSpectralModel` the fit built — keyed by
the embedding fingerprint (see :mod:`repro.serve.fingerprint`).  Fit and
predict requests share it: a fit hit returns the entry's labels, a
predict runs the Nyström extension on it, and because the key covers
every parameter that influenced the cached arrays, both are
bit-identical to a cold run.  Ratiocut and compressive fits cache a
labels-only model.

Entries computed while a fault fired are never inserted (the service
checks the resilience record first); recovered runs are *believed*
correct, but the cache only trusts provably clean computations.

With a :class:`~repro.serve.persist.PersistentStore` attached the LRU
becomes a two-tier cache: inserts write through to disk, and a memory
miss consults the store before giving up — a *disk-warm* hit re-admits
the entry to the LRU (evicting as usual) and counts as both a hit and a
``disk_hit``.  Memory eviction never deletes the disk copy; that is the
point — warmth survives both eviction and process death.  The taint
rule extends to disk: an artifact with a non-empty resilience record is
never written (the store refuses it too).  Eviction frees the device
copies of an entry's basis (:meth:`FittedSpectralModel.release`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.model import FittedSpectralModel
from repro.errors import ServiceError


@dataclass
class CacheStats:
    """Counters the service report surfaces."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    #: host bytes currently held (each entry's ``nbytes``)
    bytes_held: int = 0
    #: hits served from the persistent store (subset of ``hits``)
    disk_hits: int = 0
    #: entries written through to the persistent store
    disk_writes: int = 0
    #: total bytes written to the persistent store
    disk_bytes_written: int = 0
    #: tainted entries the disk tier refused (memory-only residency)
    taint_skipped: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "bytes_held": self.bytes_held,
            "hit_rate": self.hit_rate,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "disk_bytes_written": self.disk_bytes_written,
            "taint_skipped": self.taint_skipped,
        }


class EmbeddingCache:
    """Bounded LRU map from embedding keys to fitted models.

    Parameters
    ----------
    capacity:
        Maximum number of entries; 0 disables caching entirely (every
        lookup misses, every insert is dropped — the persistent tier
        included).
    store:
        Optional :class:`~repro.serve.persist.PersistentStore` backing
        tier; see the module docstring for the two-tier semantics.
    """

    def __init__(self, capacity: int = 32, store=None) -> None:
        if capacity < 0:
            raise ServiceError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.store = store
        self._entries: OrderedDict[tuple, FittedSpectralModel] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def _admit(self, key: tuple, entry) -> None:
        """Insert into the LRU with full bookkeeping (evicting as needed)."""
        self._entries[key] = entry
        self.stats.insertions += 1
        self.stats.bytes_held += entry.nbytes
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.stats.bytes_held -= evicted.nbytes
            evicted.release()

    def get(self, key: tuple):
        """Look up an entry; counts a hit/miss and refreshes recency.

        A memory miss falls through to the persistent store (if any): a
        disk hit re-admits the entry to the LRU and is indistinguishable
        from a memory hit to the caller — bit-identical by the store's
        round-trip guarantee.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry
        if self.store is not None and self.capacity > 0:
            entry = self.store.load(key)
            if entry is not None:
                self._admit(key, entry)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return entry
        self.stats.misses += 1
        return None

    def put(self, key: tuple, model: FittedSpectralModel) -> bool:
        """Insert (or refresh) an entry, evicting LRU entries over capacity.

        Returns True if the entry is resident afterwards.  With a store
        attached the insert writes through to disk — unless the entry is
        tainted (non-empty resilience record), which never leaves the
        process.
        """
        if self.capacity == 0:
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        self._admit(key, model)
        if self.store is not None:
            if model.resilience:
                self.stats.taint_skipped += 1
            else:
                nbytes = self.store.save(key, model)
                self.stats.disk_writes += 1
                self.stats.disk_bytes_written += nbytes
        return key in self._entries

    def clear(self) -> None:
        """Drop the in-memory tier (the persistent store is untouched)."""
        for model in self._entries.values():
            model.release()
        self._entries.clear()
        self.stats.bytes_held = 0
