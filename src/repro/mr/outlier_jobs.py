"""Outlier detection jobs (paper Section 5.5).

- **OD job** — map-only: each mapper assigns its points to the most
  probable mixture component and writes the point back "augmented with
  an additional membership attribute" set to the cluster id, or -1 for
  outliers (squared Mahalanobis distance above the chi-squared critical
  value).  The verdict is :meth:`repro.serving.FittedModel.assign`, so
  the fit labels its points with exactly the code that later serves
  the model; the same job labels the full data after a coreset fit.
- **MVB mean/radius job** — each mapper caches its split, computes the
  dimension-wise median ``m_C^j`` and median-distance radius ``r_C^j``
  of its split's members per cluster, and the reducer aggregates by
  taking the dimension-wise median of the mapper means and the median
  of the mapper radii.  The mappers also emit their points' cluster
  labels, packed like :class:`LabelMapper`'s output.
- The inside-ball moments then reuse the generic moment job of
  :mod:`repro.mr.em_jobs` with :class:`~repro.mr.em_jobs.InsideBallWeights`,
  which reads those labels from the cache instead of scoring every
  point a second time with the same mixture.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.em import GaussianMixture
from repro.core.outliers import ball_consistency_factor, dimensionwise_median
from repro.mapreduce import BatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.em_jobs import InsideBallWeights, SplitBlockMapper, run_moment_jobs


class LabelMapper(BatchMapper):
    """Map-only labelling against a fitted model: cluster id or -1.

    Emits one packed ``(2, rows)`` int64 array per delivered block —
    ``[row indices | labels]`` — instead of per-point pairs, so a
    labelling pass ships O(splits) values, not O(n).  Scoring is
    row-stable, so labels do not depend on how the split is chunked.
    """

    def setup(self, context: Context) -> None:
        self._model = context.cache["fitted_model"]

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        labels = self._model.assign(block).cluster_ids
        context.emit(
            int(context.task_id),
            np.stack([np.asarray(keys, dtype=np.int64), labels]),
        )


def run_od_job(
    chain: JobChain,
    splits: list[InputSplit],
    model: Any,
    n: int,
    step_name: str = "outlier_detection",
) -> np.ndarray:
    """Label every point of ``splits`` with ``model``
    (a :class:`repro.serving.FittedModel`).

    Returns the ``(n,)`` int64 membership vector: cluster id, or -1 for
    outliers and unassigned points.
    """
    job = Job(
        mapper_factory=LabelMapper,
        cache=DistributedCache({"fitted_model": model}),
    )
    result = chain.run(step_name, job, splits, num_reducers=0)
    membership = np.full(n, -1, dtype=np.int64)
    for _, packed in result.output:
        membership[packed[0]] = packed[1]
    return membership


_LABELS_KEY = "labels"


class MVBStatsMapper(SplitBlockMapper):
    """Per-split MVB centre and radius for each cluster (Section 5.5),
    plus the split's ``(2, rows)`` packed ``[row indices | labels]``
    under ``"labels"``."""

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._mixture: GaussianMixture = context.cache["mixture"]

    def cleanup(self, context: Context) -> None:
        data = self._split_data()
        if data is None:
            return
        sub = self._mixture.project(data)
        assignment = self._mixture.assign(sub)
        context.emit(_LABELS_KEY, np.stack([self._split_keys(), assignment]))
        for j in range(self._mixture.num_components):
            members = sub[assignment == j]
            if len(members) == 0:
                continue
            center = dimensionwise_median(members)
            radius = float(np.median(np.linalg.norm(members - center, axis=1)))
            context.emit(j, (center, radius))


class MVBStatsReducer(Reducer):
    """Dimension-wise median of mapper centres; median of radii.  The
    split labels are concatenated into one packed array."""

    def reduce(self, key: int | str, values: list[Any], context: Context) -> None:
        if key == _LABELS_KEY:
            context.emit(key, np.concatenate(values, axis=1))
            return
        centers = np.stack([v[0] for v in values])
        radii = np.array([v[1] for v in values])
        context.emit(key, (np.median(centers, axis=0), float(np.median(radii))))


def run_mvb_jobs(
    chain: JobChain,
    splits: list[InputSplit],
    mixture: GaussianMixture,
    reg: float = 1e-9,
    point_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two MR jobs computing the MVB moments of every cluster.

    Job 1 estimates ball centre and radius and labels every point;
    job 2 (the generic moment job) computes mean and covariance over
    the inside-ball points, reading job 1's labels from the cache.
    Returns ``(means, covariances, inside_ball_counts)`` per cluster.

    ``point_weights`` (the coreset fast path) weight the inside-ball
    moments; the centre/radius medians stay unweighted — medians over
    the summary are already robust to the weighting.
    """
    k = mixture.num_components
    m = len(mixture.attributes)
    stats_job = Job(
        mapper_factory=MVBStatsMapper,
        reducer_factory=MVBStatsReducer,
        cache=DistributedCache({"mixture": mixture}),
    )
    # The step name carries "labels" so that a checkpoint of a
    # centre/radius job without labels is never restored into this one.
    stats = chain.run("mvb_center_radius_labels", stats_job, splits).as_dict()
    packed = stats.pop(_LABELS_KEY, np.zeros((2, 0), dtype=np.int64))
    labels = np.full(int(packed[0].max(initial=-1)) + 1, -1, dtype=np.int64)
    labels[packed[0]] = packed[1]

    centers = np.full((k, m), 0.5)
    radii = np.zeros(k)
    for j, (center, radius) in stats.items():
        centers[j] = center
        radii[j] = radius

    model = InsideBallWeights(mixture, centers, radii)
    means, covs, weight_sums, _ = run_moment_jobs(
        chain,
        splits,
        model,
        mixture.attributes,
        "mvb",
        reg=reg,
        point_weights=point_weights,
        point_labels=labels,
    )
    # Clusters with an empty ball or too few inside-ball points for a
    # usable covariance (same small-sample rule as the serial
    # mvb_estimate) keep the mixture's own moments / diagonal scale.
    consistency = ball_consistency_factor(m)
    for j in range(k):
        if radii[j] == 0:
            means[j] = mixture.means[j]
            covs[j] = mixture.covariances[j]
        elif weight_sums[j] < max(2, 2 * m):
            covs[j] = np.diag(np.diag(mixture.covariances[j]))
        else:
            covs[j] = consistency * covs[j]
    return means, covs, weight_sums
