"""The distributed cache: read-only side data shipped to every task.

P3C+-MR relies on the cache heavily: candidate signature sets, support
plans and Gaussian mixture parameters are all distributed to mappers
this way rather than through the shuffle (paper, Section 5.3).

Entries are held in sorted key order, so iteration, pickling and the
content :meth:`~DistributedCache.fingerprint` are invariant to
construction order — two caches with equal contents serialise to equal
bytes and hash to equal fingerprints across workers and attempts.  The
process executor keys its per-worker broadcast on that fingerprint (see
:mod:`repro.mapreduce.executors`), and checkpoint fingerprints must not
spuriously miss, so stability here is load-bearing, not cosmetic.
"""

from __future__ import annotations

import hashlib
import pickle
from types import MappingProxyType
from typing import Any, Iterator, Mapping

import numpy as np


def _canonical_bytes(value: Any) -> bytes:
    """Deterministic byte serialisation of one cache value.

    ndarrays hash by dtype/shape/contents; common containers recurse in
    a deterministic order (dict items sorted by key repr, sets by
    element bytes — their native iteration order varies across
    processes under hash randomisation).  Anything else falls back to
    pickle, which is stable for the value-type dataclasses the P3C+
    pipelines ship (signatures, RSSC tables, mixtures, weight models).
    """
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        header = f"nd:{arr.dtype.str}:{arr.shape}:".encode("utf-8")
        return header + arr.tobytes()
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return f"sc:{type(value).__name__}:{value!r}".encode("utf-8")
    if isinstance(value, (list, tuple)):
        return b"seq:" + b"|".join(_canonical_bytes(item) for item in value)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return b"map:" + b"|".join(
            _canonical_bytes(k) + b"=" + _canonical_bytes(v) for k, v in items
        )
    if isinstance(value, (set, frozenset)):
        return b"set:" + b"|".join(sorted(_canonical_bytes(v) for v in value))
    return b"py:" + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


class DistributedCache(Mapping[str, Any]):
    """An immutable string-keyed mapping visible to all tasks of a job.

    Mutating the cache from inside a task would violate MapReduce
    semantics (tasks must be independent and restartable), so the
    contents are frozen at construction time.
    """

    def __init__(self, entries: Mapping[str, Any] | None = None) -> None:
        staged = dict(entries or {})
        self._entries = MappingProxyType(
            {key: staged[key] for key in sorted(staged)}
        )
        self._fingerprint: str | None = None

    def __getitem__(self, key: str) -> Any:
        try:
            return self._entries[key]
        except KeyError:
            raise KeyError(
                f"cache entry {key!r} not shipped with this job; "
                f"available: {sorted(self._entries)}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def fingerprint(self) -> str:
        """Stable content hash of the entries (hex, 16 chars).

        Equal contents give equal fingerprints regardless of
        construction order or process; computed lazily and cached (the
        cache is immutable).
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            for key, value in self._entries.items():
                hasher.update(key.encode("utf-8"))
                hasher.update(b"\x00")
                hasher.update(_canonical_bytes(value))
                hasher.update(b"\x01")
            self._fingerprint = hasher.hexdigest()[:16]
        return self._fingerprint

    def __reduce__(self):
        # MappingProxyType is not picklable; ship a plain dict so tasks
        # can be dispatched to worker processes.  ``_entries`` is
        # already key-sorted, so the pickle bytes are construction-order
        # independent.
        return (DistributedCache, (dict(self._entries),))

    def with_entries(self, **entries: Any) -> "DistributedCache":
        """Return a new cache extended with ``entries`` (copy-on-write)."""
        merged = dict(self._entries)
        merged.update(entries)
        return DistributedCache(merged)

    def __repr__(self) -> str:
        return f"DistributedCache({sorted(self._entries)})"
