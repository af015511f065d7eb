"""Apriori-style candidate generation over p-signatures (Algorithm 1).

Two p-signatures join to a (p+1)-signature when they share exactly
``p - 1`` intervals and their distinguishing intervals lie on different
attributes.  Candidate generation enumerates all joinable pairs; the
optional Apriori prune additionally requires every p-subsignature of a
candidate to be present in the generating set (the multi-level MR
collection of Section 5.3 deliberately skips this prune, trading extra
candidates for fewer proving jobs).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.core.types import Interval, Signature


def join_signatures(first: Signature, second: Signature) -> Signature | None:
    """Join two equal-size signatures sharing all but one interval.

    Returns ``None`` when the pair is not joinable (different sizes,
    fewer than ``p - 1`` common intervals, or the two odd intervals
    share an attribute).
    """
    if len(first) != len(second):
        return None
    set_a, set_b = set(first.intervals), set(second.intervals)
    only_a = set_a - set_b
    only_b = set_b - set_a
    if len(only_a) != 1 or len(only_b) != 1:
        return None
    (interval_a,) = only_a
    (interval_b,) = only_b
    if interval_a.attribute == interval_b.attribute:
        return None
    return Signature(first.intervals + (interval_b,))


def generate_candidates(
    signatures: Sequence[Signature],
    prune: bool = False,
) -> list[Signature]:
    """All (p+1)-signatures obtainable by joining pairs from
    ``signatures``, deduplicated, in deterministic order.

    Only pairs sharing a (p-1)-subset can join, so each signature is
    bucketed under every interval tuple with one interval dropped, and
    only in-bucket pairs are tried — in the order
    ``itertools.combinations`` visits them, which keeps the output
    (first-seen order included) equal to the all-pairs join.

    With ``prune=True``, a candidate survives only if *all* of its
    p-subsignatures are in the generating set (classic Apriori
    downward-closure prune).
    """
    buckets: dict[tuple[Interval, ...], list[int]] = {}
    for index, signature in enumerate(signatures):
        intervals = signature.intervals
        for k in range(len(intervals)):
            subset = intervals[:k] + intervals[k + 1 :]
            buckets.setdefault(subset, []).append(index)
    pairs = sorted(
        {pair for members in buckets.values() for pair in combinations(members, 2)}
    )
    seen: set[Signature] = set()
    candidates: list[Signature] = []
    universe = set(signatures)
    for i, j in pairs:
        joined = join_signatures(signatures[i], signatures[j])
        if joined is None or joined in seen:
            continue
        seen.add(joined)
        if prune and not _all_subsignatures_present(joined, universe):
            continue
        candidates.append(joined)
    return candidates


def _all_subsignatures_present(
    candidate: Signature, universe: set[Signature]
) -> bool:
    for interval in candidate:
        if candidate.without(interval) not in universe:
            return False
    return True


def singleton_signatures(intervals: Iterable[Interval]) -> list[Signature]:
    """``Cand_1`` — one 1-signature per relevant interval."""
    return [Signature((interval,)) for interval in intervals]


def maximal_signatures(signatures: Sequence[Signature]) -> list[Signature]:
    """Keep only signatures not properly contained in another one
    (the ``Filter maximal Cluster Cores`` step, Algorithm 1 line 11)."""
    result: list[Signature] = []
    by_size = sorted(dict.fromkeys(signatures), key=len, reverse=True)
    for sig in by_size:
        if not any(sig.is_proper_subset(kept) for kept in result):
            result.append(sig)
    return result
