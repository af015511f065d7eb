"""MR jobs must agree with their serial counterparts exactly (integer
counting) or to float tolerance (moment sums)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.binning import build_all_histograms
from repro.core.em import _moments, fit_em, initialize_from_cores
from repro.core.proving import count_supports
from repro.core.types import ClusterCore, Interval, Signature
from repro.mapreduce import JobChain, MapReduceRuntime
from repro.mapreduce.types import InputSplit, split_records
from repro.mr.candidates import pair_from_index, run_candidate_generation
from repro.core.apriori import generate_candidates, singleton_signatures
from repro.mr.em_jobs import (
    CoreSupportWeights,
    WeightModel,
    run_em_mr,
    run_moment_jobs,
)
from repro.mr.histogram import run_histogram_job
from repro.mr.support import run_support_job


@pytest.fixture()
def chain() -> JobChain:
    return JobChain(MapReduceRuntime())


def _cores_for(dataset) -> list[ClusterCore]:
    cores = []
    for cluster in dataset.hidden_clusters:
        sig = cluster.signature
        cores.append(
            ClusterCore(
                signature=sig,
                support=sig.support(dataset.data),
                expected_support=sig.expected_support(len(dataset.data)),
            )
        )
    return cores


class TestHistogramJob:
    def test_matches_serial_histograms(self, tiny_dataset, chain):
        splits = split_records(tiny_dataset.data, 4)
        mr_histograms = run_histogram_job(chain, splits, 8)
        serial = build_all_histograms(tiny_dataset.data, 8)
        for a, b in zip(mr_histograms, serial):
            assert a.attribute == b.attribute
            assert np.array_equal(a.counts, b.counts)

    def test_split_count_does_not_matter(self, tiny_dataset, chain):
        one = run_histogram_job(
            chain, split_records(tiny_dataset.data, 1), 6
        )
        many = run_histogram_job(
            chain, split_records(tiny_dataset.data, 9), 6
        )
        for a, b in zip(one, many):
            assert np.array_equal(a.counts, b.counts)


class TestSupportJob:
    def test_matches_bruteforce(self, tiny_dataset, chain):
        splits = split_records(tiny_dataset.data, 4)
        candidates = [c.signature for c in tiny_dataset.hidden_clusters]
        candidates += [
            Signature([Interval(0, 0.0, 0.5)]),
            Signature([Interval(0, 0.0, 0.5), Interval(1, 0.5, 1.0)]),
        ]
        supports = run_support_job(chain, splits, candidates)
        assert supports == count_supports(tiny_dataset.data, candidates)

    def test_empty_candidates_no_job(self, tiny_dataset, chain):
        splits = split_records(tiny_dataset.data, 2)
        assert run_support_job(chain, splits, []) == {}
        assert chain.num_jobs == 0

    def test_executors_agree(self, tiny_dataset):
        """The vertical-bitmap counts are equal on every executor and
        equal brute-force counting, over a batch of mixed sizes."""
        data = tiny_dataset.data
        splits = split_records(data, 5)
        candidates = generate_candidates(
            singleton_signatures(
                [Interval(a, lo, lo + 0.4) for a in range(4) for lo in (0.0, 0.3)]
            )
        )
        candidates += [c.signature for c in tiny_dataset.hidden_clusters]
        outputs = {
            executor: run_support_job(
                JobChain(MapReduceRuntime(executor=executor, max_workers=2)),
                splits,
                candidates,
            )
            for executor in ("serial", "thread", "process")
        }
        expected = count_supports(data, candidates)
        for supports in outputs.values():
            assert list(supports) == candidates
            assert supports == expected
            assert all(type(v) is int for v in supports.values())


class TestCandidateGeneration:
    def test_pair_from_index_roundtrip(self):
        k = 7
        pairs = [pair_from_index(i, k) for i in range(k * (k - 1) // 2)]
        assert pairs == [(i, j) for i in range(k) for j in range(i + 1, k)]

    def test_pair_from_index_validates(self):
        with pytest.raises(ValueError):
            pair_from_index(-1, 4)
        with pytest.raises(ValueError):
            pair_from_index(6, 4)

    def test_parallel_matches_serial(self, chain):
        intervals = [Interval(a, 0.0, 0.3) for a in range(10)]
        singles = singleton_signatures(intervals)
        serial = generate_candidates(singles, prune=False)
        parallel = run_candidate_generation(chain, singles, t_gen=5)
        assert parallel == serial
        assert chain.num_jobs == 1  # the parallel path actually ran

    def test_small_sets_stay_serial(self, chain):
        intervals = [Interval(a, 0.0, 0.3) for a in range(4)]
        singles = singleton_signatures(intervals)
        run_candidate_generation(chain, singles, t_gen=1_000)
        assert chain.num_jobs == 0


_OFFSET = 1e4


class _OffsetWeights(WeightModel):
    """Three components over data offset by ``_OFFSET``: every point,
    only points right of the offset (so no weight at all on the low
    splits of column-0-sorted data) and a smooth ramp."""

    def weights(self, data: np.ndarray) -> np.ndarray:
        x = data[:, 0] - _OFFSET
        return np.stack(
            [np.ones(len(data)), (x > 0.5).astype(float), 1 / (1 + np.exp(-x))],
            axis=1,
        )


class TestMomentJobs:
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_split_merge_matches_two_pass_moments(self, chain, weighted):
        """Per-split scatters merged onto the global mean equal the
        two-pass moments of the whole data, far from the origin, with
        an empty split and a component absent from some splits."""
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(400, 3)) * [1.0, 2.0, 0.5] + _OFFSET
        data = raw[np.argsort(raw[:, 0])]
        parts = split_records(data, 4)
        records = [p.records for p in parts[:2]] + [[]] + [p.records for p in parts[2:]]
        splits = [InputSplit(split_id=i, records=r) for i, r in enumerate(records)]
        point_weights = rng.uniform(0.5, 3.0, len(data)) if weighted else None

        model = _OffsetWeights()
        attrs = (0, 1, 2)
        means, covs, weight_sums, _ = run_moment_jobs(
            chain, splits, model, attrs, "merge", point_weights=point_weights
        )
        weights = model.weights(data)
        if weighted:
            weights = weights * point_weights[:, None]
        assert weights[: len(parts[0]), 1].sum() == 0
        for j in range(weights.shape[1]):
            mean, cov = _moments(data, weights[:, j], 1e-6)
            assert weight_sums[j] == pytest.approx(weights[:, j].sum(), rel=1e-12)
            np.testing.assert_allclose(means[j], mean, rtol=1e-9, atol=0)
            # Relative to the matrix scale: near-zero off-diagonal
            # entries carry the ~1e-12 rounding of rows stored at 1e4.
            np.testing.assert_allclose(
                covs[j], cov, rtol=1e-9, atol=1e-9 * np.abs(cov).max()
            )

    def test_support_weights_moments_match_numpy(self, tiny_dataset, chain):
        cores = _cores_for(tiny_dataset)
        attrs = tuple(
            sorted(set().union(*(c.attributes for c in cores)))
        )
        splits = split_records(tiny_dataset.data, 4)
        model = CoreSupportWeights([c.signature for c in cores])
        means, covs, weight_sums, _ = run_moment_jobs(
            chain, splits, model, attrs, "test"
        )
        sub = tiny_dataset.data[:, list(attrs)]
        for j, core in enumerate(cores):
            mask = core.signature.support_mask(tiny_dataset.data)
            assert weight_sums[j] == pytest.approx(mask.sum())
            assert means[j] == pytest.approx(sub[mask].mean(axis=0), abs=1e-9)
            # The job adds the same 1e-6 ridge the serial EM uses.
            expected_cov = np.cov(sub[mask].T) + 1e-6 * np.eye(len(attrs))
            assert covs[j] == pytest.approx(expected_cov, abs=1e-9)

    def test_em_mr_matches_serial_em(self, tiny_dataset, chain):
        cores = _cores_for(tiny_dataset)
        splits = split_records(tiny_dataset.data, 4)
        mr_mixture = run_em_mr(
            chain, splits, cores, len(tiny_dataset.data), max_iter=5
        )
        serial_init = initialize_from_cores(tiny_dataset.data, cores)
        serial_mixture = fit_em(tiny_dataset.data, serial_init, max_iter=5)
        assert mr_mixture.attributes == serial_mixture.attributes
        assert mr_mixture.means == pytest.approx(serial_mixture.means, abs=1e-6)
        assert mr_mixture.weights == pytest.approx(
            serial_mixture.weights, abs=1e-6
        )

    def test_em_mr_loglik_non_decreasing(self, tiny_dataset, chain):
        cores = _cores_for(tiny_dataset)
        splits = split_records(tiny_dataset.data, 3)
        mixture = run_em_mr(
            chain, splits, cores, len(tiny_dataset.data), max_iter=6
        )
        history = mixture.log_likelihood_history
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-6
