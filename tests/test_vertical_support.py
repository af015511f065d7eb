"""The vertical-bitmap support kernel (:class:`repro.mr.support.SupportPlan`)
against the horizontal RSSC batch path and brute-force counting.

All three count closed-interval containment exactly, so their counts
must be equal on every input: split lengths that are not multiples of
8 or 64, values on interval bounds, float drift just outside [0, 1]
(both bitmap counters clamp it onto the boundary), batches that mix
several signature sizes, and batches larger than one AND chunk.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.proving import count_supports
from repro.core.types import Interval, Signature
from repro.mr import support
from repro.mr.rssc import RSSC
from repro.mr.support import SupportPlan


def _signatures(rng, num_sigs: int, d: int, max_p: int = 4) -> list[Signature]:
    """Random signatures of mixed size over a small grid of bounds, so
    distinct signatures share intervals and bounds coincide."""
    grid = np.round(np.linspace(0.0, 1.0, 11), 10)
    signatures = []
    for _ in range(num_sigs):
        p = int(rng.integers(1, min(max_p, d) + 1))
        intervals = []
        for attribute in rng.choice(d, size=p, replace=False):
            lo, hi = sorted(rng.choice(grid, size=2))
            intervals.append(Interval(int(attribute), float(lo), float(hi)))
        signatures.append(Signature(intervals))
    return signatures


def _with_edge_values(rng, data: np.ndarray, signatures: list[Signature]):
    """Put interval bounds and drifted values into the data."""
    data = data.copy()
    n, d = data.shape
    if n == 0:
        return data
    specials = [-1e-12, 1.0 + 1e-12, 0.0, 1.0]
    for sig in signatures:
        for interval in sig:
            specials += [interval.lower, interval.upper]
    cells = rng.integers(0, n * d, size=min(n * d, 3 * len(specials)))
    data.flat[cells] = rng.choice(specials, size=len(cells))
    return data


def _vertical(
    data: np.ndarray, signatures: list[Signature], chunk_words: int | None = None
) -> list[int]:
    counts = np.zeros(len(signatures), dtype=np.int64)
    plan = SupportPlan.build(signatures)
    if chunk_words is None:
        plan.add_counts(data, counts)
    else:
        with mock.patch.object(support, "_CHUNK_WORDS", chunk_words):
            plan.add_counts(data, counts)
    return counts.tolist()


def _rssc(data: np.ndarray, signatures: list[Signature]) -> list[int]:
    counts = np.zeros(len(signatures), dtype=np.int64)
    RSSC(signatures).add_points(data, counts)
    return counts.tolist()


def _brute(data: np.ndarray, signatures: list[Signature]) -> list[int]:
    # The bitmap counters clamp drifted values onto [0, 1] first.
    clamped = np.clip(data, 0.0, 1.0)
    supports = count_supports(clamped, signatures)
    return [supports[sig] for sig in signatures]


@pytest.mark.parametrize("n", [0, 1, 7, 63, 64, 65])
def test_split_lengths(n):
    rng = np.random.default_rng(n)
    signatures = _signatures(rng, 40, 5)
    data = _with_edge_values(rng, rng.uniform(size=(n, 5)), signatures)
    expected = _brute(data, signatures)
    assert _rssc(data, signatures) == expected
    assert _vertical(data, signatures) == expected


def test_values_on_interval_bounds_are_inside():
    sig = Signature([Interval(0, 0.25, 0.5), Interval(1, 0.0, 1.0)])
    data = np.array(
        [[0.25, 0.0], [0.5, 1.0], [0.2499999, 0.5], [0.5000001, 0.5], [0.3, 0.3]]
    )
    assert _vertical(data, [sig]) == _rssc(data, [sig]) == [3]


def test_drift_outside_unit_range_clamps_like_rssc():
    upper = Signature([Interval(0, 0.9, 1.0)])
    lower = Signature([Interval(0, 0.0, 0.1)])
    data = np.array([[1.0 + 1e-12], [-1e-12], [1.0], [0.0]])
    signatures = [upper, lower]
    assert _vertical(data, signatures) == _rssc(data, signatures) == [2, 2]
    # Brute force on the raw values would miss both drifted points.
    assert [count_supports(data, signatures)[s] for s in signatures] == [1, 1]


def test_mixed_sizes_keep_batch_order():
    rng = np.random.default_rng(7)
    signatures = _signatures(rng, 60, 6)
    assert len({len(sig) for sig in signatures}) > 2
    plan = SupportPlan.build(signatures)
    positions = np.sort(np.concatenate([pos for pos, _ in plan.groups]))
    assert positions.tolist() == list(range(len(signatures)))
    data = _with_edge_values(rng, rng.uniform(size=(130, 6)), signatures)
    assert _vertical(data, signatures) == _brute(data, signatures)


@pytest.mark.parametrize("chunk_words", [1, 2, 3, 5])
def test_more_candidates_than_one_chunk(chunk_words):
    rng = np.random.default_rng(chunk_words)
    signatures = _signatures(rng, 200, 8)
    # 129 rows -> 3 words per bitmap, so a chunk holds at most one or
    # two candidates and the batch takes many chunks.
    data = _with_edge_values(rng, rng.uniform(size=(129, 8)), signatures)
    expected = _brute(data, signatures)
    assert _vertical(data, signatures, chunk_words=chunk_words) == expected
    assert _vertical(data, signatures) == expected


def test_duplicate_candidates_counted_per_position():
    sig = Signature([Interval(1, 0.2, 0.6)])
    data = np.array([[0.0, 0.3], [0.0, 0.9]])
    assert _vertical(data, [sig, sig]) == [1, 1]


def test_counts_accumulate_across_blocks():
    rng = np.random.default_rng(3)
    signatures = _signatures(rng, 30, 4)
    data = _with_edge_values(rng, rng.uniform(size=(200, 4)), signatures)
    plan = SupportPlan.build(signatures)
    counts = np.zeros(len(signatures), dtype=np.int64)
    for start in range(0, len(data), 37):
        plan.add_counts(data[start : start + 37], counts)
    assert counts.tolist() == _brute(data, signatures)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 200),
    num_sigs=st.integers(1, 80),
    chunk_words=st.integers(1, 8),
)
def test_equality_property(seed, n, num_sigs, chunk_words):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    signatures = _signatures(rng, num_sigs, d)
    data = _with_edge_values(rng, rng.uniform(size=(n, d)), signatures)
    expected = _brute(data, signatures)
    assert _rssc(data, signatures) == expected
    assert _vertical(data, signatures, chunk_words=chunk_words) == expected
