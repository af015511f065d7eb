"""Candidate-proving support job (paper Section 5.3).

One MR job counts the supports of an arbitrary candidate batch.  The
driver turns the batch into a :class:`SupportPlan` — a table of the
batch's distinct intervals plus, per candidate size ``p``, an integer
``(|Ŝ_p|, p)`` matrix of interval ids — and ships it in the distributed
cache.  Every mapper accumulates a per-split count vector and emits it
once from cleanup; the single reducer sums the per-split vectors.

The mapper counts in the *vertical* layout of MAFIA (Burdick et al.,
ICDE 2001) and Eclat (Zaki, TKDE 2000) rather than the paper's
horizontal RSSC masks: one packed bitmap per interval over the block's
points, ANDed per candidate and popcounted.  Both layouts evaluate the
same closed-interval containment on the same clamped values, so the
supports are equal in exact (integer) arithmetic; a property test pins
the vertical kernel to :meth:`repro.mr.rssc.RSSC.add_points` and to
brute-force counting.

With per-point weights (the coreset fast path) the mapper runs the
weighted RSSC kernel instead — each point contributes its weight to
every signature containing it — and the job returns float supports.
Unit weights are canonicalised to the integer kernel, keeping the
unweighted path bitwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.types import Signature
from repro.mapreduce import BatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.job import ArraySumCombiner
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.rssc import RSSC
from repro.mr.aggregate import sum_partials
from repro.mr.weights import canonical_weights, take_weights

_KEY = "supports"

#: Bound on the transient ``(candidates, words)`` AND matrix of one
#: chunk, in uint64 words (8 MiB).
_CHUNK_WORDS = 1 << 20


@dataclass(frozen=True)
class SupportPlan:
    """A candidate batch as interval ids over a shared interval table.

    ``lowers`` / ``uppers`` bound the batch's distinct intervals,
    sorted by (attribute, lower, upper); ``runs`` holds one
    ``(attribute, start, stop)`` row range of them per attribute.
    ``groups`` holds, per candidate size ``p``, the candidates'
    positions in the batch and their ``(|Ŝ_p|, p)`` interval-id matrix.
    """

    lowers: np.ndarray
    uppers: np.ndarray
    runs: tuple[tuple[int, int, int], ...]
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    num_candidates: int

    @classmethod
    def build(cls, candidates: list[Signature]) -> SupportPlan:
        table = sorted({iv for sig in candidates for iv in sig})
        index = {iv: i for i, iv in enumerate(table)}
        by_size: dict[int, list[int]] = {}
        for j, sig in enumerate(candidates):
            by_size.setdefault(len(sig), []).append(j)
        groups = tuple(
            (
                np.array(positions, dtype=np.int64),
                np.array(
                    [[index[iv] for iv in candidates[j]] for j in positions],
                    dtype=np.intp,
                ).reshape(len(positions), p),
            )
            for p, positions in sorted(by_size.items())
        )
        attributes = np.array([iv.attribute for iv in table], dtype=np.int64)
        starts = np.flatnonzero(np.diff(attributes, prepend=-1))
        stops = np.append(starts[1:], len(table))
        runs = tuple(
            (int(attributes[s]), int(s), int(e)) for s, e in zip(starts, stops)
        )
        return cls(
            lowers=np.array([iv.lower for iv in table], dtype=float),
            uppers=np.array([iv.upper for iv in table], dtype=float),
            runs=runs,
            groups=groups,
            num_candidates=len(candidates),
        )

    def interval_bitmaps(self, block: np.ndarray) -> np.ndarray:
        """``(intervals, ceil(n/64))`` uint64 bitmaps: bit ``i`` of row
        ``k`` is set iff point ``i`` lies in interval ``k``.

        Values are clamped to [0, 1] first, exactly as the RSSC clamps
        them to its boundary cells, so float drift such as
        ``1.0 + 1e-12`` is counted the same way by both counters.
        Padding bits past ``n`` are zero.
        """
        n = len(block)
        packed = np.zeros((len(self.lowers), -(-n // 64) * 8), dtype=np.uint8)
        for attribute, start, stop in self.runs:
            column = np.clip(block[:, attribute], 0.0, 1.0)
            inside = (column >= self.lowers[start:stop, None]) & (
                column <= self.uppers[start:stop, None]
            )
            packed[start:stop, : -(-n // 8)] = np.packbits(
                inside, axis=1, bitorder="little"
            )
        return packed.view(np.uint64)

    def add_counts(self, block: np.ndarray, counts: np.ndarray) -> None:
        """Add the block's support of every candidate to ``counts``
        (int64, indexed by batch position): per candidate, the AND of
        its intervals' bitmaps, popcounted.  Candidates are ANDed in
        chunks of at most ``_CHUNK_WORDS`` transient words."""
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if len(block) == 0 or self.num_candidates == 0:
            return
        bitmaps = self.interval_bitmaps(block)
        step = max(1, _CHUNK_WORDS // bitmaps.shape[1])
        for positions, ids in self.groups:
            for start in range(0, len(ids), step):
                chunk = ids[start : start + step]
                words = bitmaps[chunk[:, 0]]
                for column in range(1, chunk.shape[1]):
                    words &= bitmaps[chunk[:, column]]
                counts[positions[start : start + step]] += np.bitwise_count(
                    words
                ).sum(axis=1, dtype=np.int64)


class SupportCountMapper(BatchMapper):
    """Per-split support counting: vertical bitmaps for unit weights,
    the weighted RSSC for point weights."""

    def setup(self, context: Context) -> None:
        self._weights: np.ndarray | None = context.cache.get("point_weights")
        if self._weights is None:
            self._plan: SupportPlan = context.cache["plan"]
            self._counts = np.zeros(self._plan.num_candidates, dtype=np.int64)
        else:
            self._rssc: RSSC = context.cache["rssc"]
            self._counts = np.zeros(self._rssc.num_signatures, dtype=np.float64)

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        if self._weights is None:
            self._plan.add_counts(block, self._counts)
        else:
            self._rssc.add_points_weighted(
                block, take_weights(self._weights, keys), self._counts
            )

    def cleanup(self, context: Context) -> None:
        context.emit(_KEY, self._counts)


class SupportSumReducer(Reducer):
    def reduce(self, key: str, values: list[np.ndarray], context: Context) -> None:
        context.emit(key, sum_partials(values))


def run_support_job(
    chain: JobChain,
    splits: list[InputSplit],
    candidates: list[Signature],
    step_name: str = "candidate_proving",
    weights: np.ndarray | None = None,
) -> dict[Signature, int | float]:
    """Count (optionally weighted) supports of ``candidates`` with one
    MR job.  Unweighted supports are ints; weighted supports floats."""
    if not candidates:
        return {}
    weights = canonical_weights(weights)
    if weights is None:
        cache: dict[str, Any] = {"plan": SupportPlan.build(candidates)}
    else:
        cache = {"rssc": RSSC(candidates), "point_weights": weights}
    job = Job(
        mapper_factory=SupportCountMapper,
        reducer_factory=SupportSumReducer,
        combiner_factory=ArraySumCombiner,
        cache=DistributedCache(cache),
    )
    result = chain.run(step_name, job, splits, num_reducers=1)
    counts = result.as_dict()[_KEY]
    if weights is None:
        return {sig: int(c) for sig, c in zip(candidates, counts)}
    return {sig: float(c) for sig, c in zip(candidates, counts)}
