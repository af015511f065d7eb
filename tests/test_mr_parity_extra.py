"""Additional serial/MR parity tests: inspection and MVB jobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribute_inspection import inspect_attributes
from repro.core.em import GaussianMixture
from repro.core.outliers import dimensionwise_median, mvb_estimate
from repro.mapreduce import DistributedCache, Job, JobChain, MapReduceRuntime
from repro.mapreduce.types import split_records
from repro.mr.attribute_jobs import ArrayMembership
from repro.mr.inspection import mr_attribute_inspection
from repro.mr.outlier_jobs import MVBStatsMapper, MVBStatsReducer, run_mvb_jobs


def _cluster_scenario(rng, n=900, d=6):
    """One dense cluster on attributes 0/1, rest uniform."""
    data = rng.uniform(size=(n, d))
    members = np.zeros(n, dtype=bool)
    members[:400] = True
    data[members, 0] = rng.normal(0.3, 0.02, 400).clip(0, 1)
    data[members, 1] = rng.normal(0.7, 0.02, 400).clip(0, 1)
    return data, members


class TestInspectionParity:
    def test_mr_inspection_matches_serial(self, rng):
        data, members = _cluster_scenario(rng)
        membership = np.where(members, 0, -1).astype(np.int64)

        serial = inspect_attributes(
            data,
            members,
            known_attributes=frozenset({0}),
            prove=True,
        )

        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 4)
        mr_attrs = mr_attribute_inspection(
            chain,
            splits,
            ArrayMembership(membership),
            known_attributes={0: frozenset({0})},
            sizes={0: int(members.sum())},
            prove=True,
        )
        assert mr_attrs[0] == serial.attributes

    def test_mr_inspection_without_proving(self, rng):
        data, members = _cluster_scenario(rng)
        membership = np.where(members, 0, -1).astype(np.int64)
        serial = inspect_attributes(
            data, members, known_attributes=frozenset(), prove=False
        )
        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 3)
        mr_attrs = mr_attribute_inspection(
            chain,
            splits,
            ArrayMembership(membership),
            known_attributes={0: frozenset()},
            sizes={0: int(members.sum())},
            prove=False,
        )
        assert mr_attrs[0] == serial.attributes

    def test_empty_cluster_keeps_known_attributes(self, rng):
        data, _ = _cluster_scenario(rng)
        membership = np.full(len(data), -1, dtype=np.int64)
        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 2)
        mr_attrs = mr_attribute_inspection(
            chain,
            splits,
            ArrayMembership(membership),
            known_attributes={0: frozenset({2})},
            sizes={0: 0},
        )
        assert mr_attrs[0] == frozenset({2})


class TestMVBJobParity:
    def test_single_split_matches_serial_mvb(self, rng):
        """With one split, the median-of-split-medians equals the exact
        median, so the MR MVB moments must match the serial estimate."""
        data, members = _cluster_scenario(rng)
        attrs = (0, 1)
        sub = data[:, list(attrs)]

        # A mixture that assigns the dense cluster to component 0.
        mixture = GaussianMixture(
            means=np.array([[0.3, 0.7], [0.5, 0.5]]),
            covariances=np.stack([np.eye(2) * 0.01, np.eye(2) * 0.2]),
            weights=np.array([0.5, 0.5]),
            attributes=attrs,
        )
        assignment = mixture.assign(sub)

        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 1)
        means, covs, counts = run_mvb_jobs(chain, splits, mixture)

        serial = mvb_estimate(sub[assignment == 0])
        assert means[0] == pytest.approx(serial.mean, abs=1e-9)
        # The 1e-9 ridge is applied before vs after the consistency
        # factor in the two paths; allow that epsilon.
        assert covs[0] == pytest.approx(serial.covariance, rel=1e-5, abs=1e-8)
        assert counts[0] == serial.n_inside

    def test_multi_split_close_to_serial(self, rng):
        data, members = _cluster_scenario(rng, n=1_200)
        attrs = (0, 1)
        sub = data[:, list(attrs)]
        mixture = GaussianMixture(
            means=np.array([[0.3, 0.7], [0.5, 0.5]]),
            covariances=np.stack([np.eye(2) * 0.01, np.eye(2) * 0.2]),
            weights=np.array([0.5, 0.5]),
            attributes=attrs,
        )
        assignment = mixture.assign(sub)
        chain = JobChain(MapReduceRuntime())
        splits = split_records(data, 6)
        means, _, _ = run_mvb_jobs(chain, splits, mixture)
        serial = mvb_estimate(sub[assignment == 0])
        # Median-of-split-medians approximates the exact centre.
        assert means[0] == pytest.approx(serial.mean, abs=0.02)

    def test_center_radius_job_matches_per_row_reference(self, rng):
        """The centre/radius mapper reads its split as whole blocks; its
        output is bit-equal to stacking the split row by row and taking
        the median of the per-split medians and radii."""
        data, _ = _cluster_scenario(rng, n=1_200)
        mixture = GaussianMixture(
            means=np.array([[0.3, 0.7], [0.5, 0.5]]),
            covariances=np.stack([np.eye(2) * 0.01, np.eye(2) * 0.2]),
            weights=np.array([0.5, 0.5]),
            attributes=(0, 1),
        )
        splits = split_records(data, 5)
        job = Job(
            mapper_factory=MVBStatsMapper,
            reducer_factory=MVBStatsReducer,
            cache=DistributedCache({"mixture": mixture}),
        )
        chain = JobChain(MapReduceRuntime())
        stats = chain.run("mvb_center_radius", job, splits).as_dict()

        # The packed labels ride along; they are the mixture's own
        # assignment of every row.
        labels = stats.pop("labels")
        expected = mixture.assign(mixture.project(data))
        assert labels.dtype == np.int64
        assert sorted(labels[0].tolist()) == list(range(len(data)))
        assert np.array_equal(labels[1], expected[labels[0]])
        assert sorted(stats) == [0, 1]
        for j, (center, radius) in stats.items():
            centers, radii = [], []
            for split in splits:
                sub = mixture.project(np.stack([row for _, row in split]))
                members = sub[mixture.assign(sub) == j]
                if len(members) == 0:
                    continue
                centers.append(dimensionwise_median(members))
                radii.append(
                    float(np.median(np.linalg.norm(members - centers[-1], axis=1)))
                )
            assert center.tobytes() == np.median(np.stack(centers), axis=0).tobytes()
            assert radius == float(np.median(np.array(radii)))
