"""Spill-to-disk segments for the columnar shuffle.

When a map task's resident shuffle payload crosses
``JobConf.memory_budget_bytes``, the scatter path hands whole
:class:`~repro.mapreduce.types.ColumnarBucket` payloads to
:func:`spill_bucket`, which writes them as compressed ``npz`` segment
files under a run-scoped spill directory and returns a
:class:`SpilledBucket` stand-in.  The stand-in quacks like a bucket for
all of the runtime's accounting — ``__len__`` for integrity validation,
logical ``nbytes`` for ``shuffle_bytes`` — while the arrays themselves
stay on disk until a reducer materialises them, one segment at a time.

Segments are written atomically (temp file + ``os.replace``) and hold
contiguous row runs in emission order, so loading and concatenating
them reproduces the in-heap bucket byte for byte; the in-heap columnar
path remains the parity oracle (a chaos-sweep test asserts bitwise
equality of job output with and without spilling).

Keys round-trip through pickle inside the archive (they are arbitrary
Python objects — ints, tuples, numpy scalars), value blocks as native
compressed arrays; float payloads survive the ``npz`` round trip
losslessly.
"""

from __future__ import annotations

import itertools
import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.mapreduce.types import ColumnarBucket

#: Target logical payload per spill segment file.  Small enough that a
#: reducer streaming segments never holds more than ~one segment of
#: decompressed data beyond its running output, large enough that the
#: per-file compression/open overhead stays negligible.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: Process-wide monotonically increasing segment ids.  Combined with
#: the pid in the filename this keeps segment names unique across the
#: thread *and* process executors sharing one spill directory.
_SEGMENT_IDS = itertools.count()


@dataclass(frozen=True)
class SpillSegment:
    """One compressed ``npz`` file holding a contiguous run of pairs."""

    path: str
    num_records: int
    #: Logical (pre-spill) payload bytes — what the in-heap bucket
    #: would have occupied.
    nbytes: int
    #: Compressed on-disk size (the ``spilled_bytes`` counter unit).
    disk_bytes: int


def _dump_segment(bucket: ColumnarBucket, path: Path) -> SpillSegment:
    tmp = path.with_suffix(path.suffix + ".tmp")
    keys_raw = np.frombuffer(
        pickle.dumps(list(bucket.keys), protocol=pickle.HIGHEST_PROTOCOL),
        dtype=np.uint8,
    )
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, keys=keys_raw, block=bucket.block)
    os.replace(tmp, path)
    return SpillSegment(
        path=str(path),
        num_records=len(bucket),
        nbytes=bucket.nbytes,
        disk_bytes=os.path.getsize(path),
    )


def load_segment(path: str) -> ColumnarBucket:
    """Rehydrate one segment file into an in-heap bucket."""
    with np.load(path) as archive:
        keys = pickle.loads(archive["keys"].tobytes())
        block = np.ascontiguousarray(archive["block"])
    return ColumnarBucket(keys, block)


def spill_bucket(
    bucket: ColumnarBucket,
    directory: str | Path,
    tag: str,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
) -> "SpilledBucket":
    """Write ``bucket`` to compressed segment files under ``directory``.

    Rows are cut into segments of roughly ``segment_bytes`` logical
    payload each, preserving emission order, so the reducer-side gather
    can stream segment-at-a-time concat and still reproduce the in-heap
    bucket exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    safe_tag = re.sub(r"[^A-Za-z0-9_.-]+", "_", tag) or "bucket"
    per_row = max(1, bucket.nbytes // max(1, len(bucket)))
    rows_per_segment = max(1, int(segment_bytes) // per_row)
    segments: list[SpillSegment] = []
    for lo in range(0, len(bucket), rows_per_segment):
        piece = ColumnarBucket(
            bucket.keys[lo : lo + rows_per_segment],
            bucket.block[lo : lo + rows_per_segment],
        )
        name = f"{safe_tag}-{os.getpid()}-{next(_SEGMENT_IDS):06d}.npz"
        segments.append(_dump_segment(piece, directory / name))
    return SpilledBucket(tuple(segments))


@dataclass(frozen=True)
class SpilledBucket:
    """A columnar bucket whose payload lives in spill segment files.

    Presents the same accounting surface as the bucket it replaced:
    ``__len__`` feeds the shuffle-integrity validator, ``nbytes`` is
    the *logical* pre-spill size so ``shuffle_bytes`` stays identical
    to the in-heap run, and ``disk_bytes`` (compressed) feeds the
    ``spilled_bytes`` counter.
    """

    segments: tuple[SpillSegment, ...]

    def __len__(self) -> int:
        return sum(seg.num_records for seg in self.segments)

    @property
    def nbytes(self) -> int:
        return sum(seg.nbytes for seg in self.segments)

    @property
    def disk_bytes(self) -> int:
        return sum(seg.disk_bytes for seg in self.segments)

    def iter_segments(self) -> Iterator[ColumnarBucket]:
        """Stream segments back as in-heap buckets, one at a time."""
        for seg in self.segments:
            yield load_segment(seg.path)

    def load(self) -> ColumnarBucket:
        """Rehydrate the whole bucket in one piece."""
        return ColumnarBucket.concat(list(self.iter_segments()))

    def pairs(self) -> list[tuple[Any, np.ndarray]]:
        """The tuple-path view, materialised segment by segment."""
        out: list[tuple[Any, np.ndarray]] = []
        for piece in self.iter_segments():
            out.extend(piece.pairs())
        return out

    def __iter__(self) -> Iterator[tuple[Any, np.ndarray]]:
        for piece in self.iter_segments():
            yield from piece

    def truncated(self) -> ColumnarBucket:
        """Drop the trailing pair (the corrupt-fault injection shape)."""
        return self.load().truncated()


@dataclass(frozen=True)
class SpilledPartition:
    """Task-ordered partition chunks, at least one of them spilled.

    ``Shuffle.gather`` returns this instead of eagerly loading
    and concatenating, so gather stays lazy: materialisation happens
    reducer-side inside ``bucket_pairs``, one segment at a time.  Pair
    order is task order then row order — identical to the in-heap
    ``ColumnarBucket.concat`` of the same chunks.
    """

    chunks: tuple[Any, ...]

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    @property
    def nbytes(self) -> int:
        return sum(int(chunk.nbytes) for chunk in self.chunks)

    def pairs(self) -> list[tuple[Any, np.ndarray]]:
        out: list[tuple[Any, np.ndarray]] = []
        for chunk in self.chunks:
            out.extend(chunk.pairs())
        return out

    def __iter__(self) -> Iterator[tuple[Any, np.ndarray]]:
        for chunk in self.chunks:
            yield from chunk
