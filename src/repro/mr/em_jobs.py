"""EM as MapReduce jobs (paper Section 5.4).

Sample means and covariances come from **one** MR job per moment step.
Each mapper evaluates the weight model once on its split and emits, per
cluster ``C``, the weighted linear sum ``l_C = sum_i w_Ci x_i``, the
weight sum ``w_C``, the squared weight sum ``w_C2`` and the scatter
``sum_i w_Ci (x_i - mu_sC)(x_i - mu_sC)^T`` about the split's own mean
``mu_sC`` (plus, during EM iterations, the split's log-likelihood so
the driver can test convergence).  The reducer merges the split
scatters onto the global mean ``mu_C = l_C / w_C`` with the pairwise
update of Chan, Golub & LeVeque (1979), and the driver applies the
unbiased scale ``w_C / (w_C^2 - w_C2)``.  The paper centres the
covariance in a second job, given the means; in exact arithmetic the
moments are the same, at one pass over the data instead of two.

The per-point weights ``w_Ci`` are supplied by a *weight model* shipped
in the cache; the same job therefore serves the EM initialisation
(hard support-set weights, then support-set + assigned strays), the EM
iterations (posterior responsibilities) and the MVB moment computation
(hard inside-ball weights) — exactly the reuse the paper describes.

Mappers receive their split as one ``(n, d)`` block (the
:class:`~repro.mapreduce.job.BatchMapper` contract) and compute
vectorised in ``cleanup`` — the split-caching pattern Section 5.5
prescribes for the MVB mapper, without a per-record ``map()`` call.

Per-point weights (the coreset fast path) are multiplied into the
weight-model matrix before the sums are taken, so every moment —
means, covariances, mixture weights, log-likelihood — becomes its
weighted counterpart without touching the weight models themselves.
Unit weights are canonicalised away at the runner boundary, keeping
the unweighted path bitwise unchanged.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.em import GaussianMixture, nearest_component
from repro.core.types import Signature
from repro.mapreduce import BatchMapper, Context, DistributedCache, Job, Reducer
from repro.mapreduce.chain import JobChain
from repro.mapreduce.types import InputSplit
from repro.mr.aggregate import sum_partials
from repro.mr.weights import canonical_weights, take_weights


class WeightModel:
    """Computes an (n_split, k) weight matrix for a block of points.

    ``data`` is the block in full-space coordinates; implementations
    project to their subspace as needed.
    """

    #: Whether :meth:`evaluate` also yields per-point log-likelihoods
    #: (the moment job then reports the data log-likelihood).
    has_log_likelihood = False

    def weights(self, data: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(
        self, data: np.ndarray, labels: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The weight matrix plus each point's log-likelihood, or
        ``None`` for models without one.  ``labels`` are the rows'
        cluster labels when the job ships them (``point_labels``)."""
        return self.weights(data), None


class CoreSupportWeights(WeightModel):
    """Hard weights: 1 iff the point is in the core's support set
    (EM-initialisation pass 1)."""

    def __init__(self, signatures: list[Signature]) -> None:
        self.signatures = signatures

    def weights(self, data: np.ndarray) -> np.ndarray:
        return np.stack(
            [sig.support_mask(data).astype(float) for sig in self.signatures],
            axis=1,
        )


class SupportPlusStrayWeights(WeightModel):
    """Support-set weights, with stray points (outside every support
    set) assigned to the Mahalanobis-nearest core (EM-initialisation
    pass 2, Section 5.4)."""

    def __init__(
        self,
        signatures: list[Signature],
        means: np.ndarray,
        covariances: np.ndarray,
        attributes: tuple[int, ...],
    ) -> None:
        self.signatures = signatures
        self.means = means
        self.covariances = covariances
        self.attributes = attributes

    def weights(self, data: np.ndarray) -> np.ndarray:
        base = np.stack(
            [sig.support_mask(data).astype(float) for sig in self.signatures],
            axis=1,
        )
        stray = base.sum(axis=1) == 0
        if stray.any():
            sub = data[np.ix_(stray, list(self.attributes))]
            nearest = nearest_component(sub, self.means, self.covariances)
            stray_rows = np.where(stray)[0]
            base[stray_rows, nearest] = 1.0
        return base


class ResponsibilityWeights(WeightModel):
    """Soft weights: posterior responsibilities of the current mixture
    (one EM iteration's E-step)."""

    has_log_likelihood = True

    def __init__(self, mixture: GaussianMixture) -> None:
        self.mixture = mixture

    def evaluate(
        self, data: np.ndarray, labels: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.mixture.e_step(self.mixture.project(data))


class InsideBallWeights(WeightModel):
    """Hard weights: 1 iff the point is assigned to the cluster *and*
    lies inside the cluster's minimum volume ball (MVB moments,
    Section 5.5).

    The assignment is the centre/radius job's: that job scores every
    point with the same mixture, and its labels reach the moment job
    through the cache (``point_labels``)."""

    def __init__(
        self,
        mixture: GaussianMixture,
        centers: np.ndarray,
        radii: np.ndarray,
    ) -> None:
        self.mixture = mixture
        self.centers = centers
        self.radii = radii

    def evaluate(
        self, data: np.ndarray, labels: np.ndarray | None = None
    ) -> tuple[np.ndarray, None]:
        sub = self.mixture.project(data)
        k = self.mixture.num_components
        out = np.zeros((len(data), k), dtype=float)
        for j in range(k):
            members = labels == j
            if not members.any():
                continue
            inside = (
                np.linalg.norm(sub[members] - self.centers[j], axis=1)
                <= self.radii[j]
            )
            rows = np.where(members)[0]
            out[rows[inside], j] = 1.0
        return out, None


_SUMS_KEY = "moment_sums"
_LL_KEY = "log_likelihood"


class SplitBlockMapper(BatchMapper):
    """Shared base: buffers the split as whole blocks, exposes it in
    cleanup as one ``(n, d)`` array (``None`` for an empty split), its
    global row indices, and the per-row slices of the per-point vectors
    the job carries in its cache (``point_weights``, ``point_labels``)."""

    def setup(self, context: Context) -> None:
        self._blocks: list[np.ndarray] = []
        self._key_blocks: list[Any] = []
        self._point_weights: np.ndarray | None = context.cache.get(
            "point_weights"
        )
        self._point_labels: np.ndarray | None = context.cache.get(
            "point_labels"
        )

    def map_batch(self, keys: Any, block: np.ndarray, context: Context) -> None:
        self._blocks.append(block)
        self._key_blocks.append(keys)

    def _split_data(self) -> np.ndarray | None:
        if not self._blocks:
            return None
        if len(self._blocks) == 1:
            return self._blocks[0]
        return np.concatenate(self._blocks)

    def _split_rows(self, vector: np.ndarray | None) -> np.ndarray | None:
        """Per-row slice of a per-point vector, aligned with
        :meth:`_split_data` (``None`` passes through)."""
        if vector is None or not self._key_blocks:
            return None
        if len(self._key_blocks) == 1:
            return take_weights(vector, self._key_blocks[0])
        return np.concatenate([take_weights(vector, k) for k in self._key_blocks])

    def _split_keys(self) -> np.ndarray:
        """Global row indices aligned with :meth:`_split_data`."""
        return np.concatenate(
            [np.asarray(k, dtype=np.int64) for k in self._key_blocks]
        )


def _centres(linear: np.ndarray, weight_sum: np.ndarray) -> np.ndarray:
    """Per-cluster weighted means ``l_C / w_C``; a cluster without
    weight centres on 0 (its scatter is zero whatever the centre)."""
    safe = np.where(weight_sum > 0, weight_sum, 1.0)
    return np.where(weight_sum[:, None] > 0, linear / safe[:, None], 0.0)


class MomentSumsMapper(SplitBlockMapper):
    """All moment sums of one split, from one weight-model evaluation.

    Packed into **one** ``(k, m+2+m*m)`` — or ``(k+1, ...)`` with the
    LL row — float array per split: columns are
    ``[linear | w_C | w_C2 | scatter]``, where ``scatter`` is the
    flattened ``sum_i w_Ci (x_i - mu_sC)(x_i - mu_sC)^T`` centred on the
    split's own weighted mean ``mu_sC``; the optional last row is
    ``[ll, 0, ..., 0]``.  A single fixed-shape ndarray value rides the
    columnar shuffle plane (one block concat instead of per-tuple
    pickling).
    """

    def setup(self, context: Context) -> None:
        super().setup(context)
        self._model: WeightModel = context.cache["weight_model"]
        self._attributes: tuple[int, ...] = context.cache["attributes"]

    def cleanup(self, context: Context) -> None:
        data = self._split_data()
        if data is None:
            return
        weights, point_ll = self._model.evaluate(
            data, self._split_rows(self._point_labels)
        )
        point_weights = self._split_rows(self._point_weights)
        if point_weights is not None:
            weights = weights * point_weights[:, None]
        sub = data[:, list(self._attributes)]
        linear = weights.T @ sub
        weight_sum = weights.sum(axis=0)
        weight_sq = (weights**2).sum(axis=0)
        centres = _centres(linear, weight_sum)
        k, m = linear.shape
        scatter = np.empty((k, m * m))
        for j in range(k):
            diff = sub - centres[j]
            scatter[j] = ((weights[:, j][:, None] * diff).T @ diff).ravel()
        packed = np.concatenate(
            [linear, weight_sum[:, None], weight_sq[:, None], scatter], axis=1
        )
        if point_ll is not None:
            ll_row = np.zeros((1, packed.shape[1]))
            ll_row[0, 0] = (
                point_ll.sum()
                if point_weights is None
                else np.dot(point_weights, point_ll)
            )
            packed = np.concatenate([packed, ll_row], axis=0)
        context.emit(_SUMS_KEY, packed)


class MomentSumsReducer(Reducer):
    """Merges the per-split blocks into global sums: a
    ``(linear, w_C, w_C2, scatter)`` tuple under ``moment_sums`` plus,
    when the weight model carries one, the total LL under
    ``log_likelihood``.

    The split scatters are centred on their own means; the pairwise
    update of Chan, Golub & LeVeque (1979) recentres them on the global
    mean ``mu``: ``M2 = sum_s M2_s + sum_s W_s (mu_s - mu)(mu_s - mu)^T``.
    Splits are merged in value order, and a split without weight on a
    cluster adds nothing to it.
    """

    def reduce(self, key: str, values: list[Any], context: Context) -> None:
        has_ll = context.cache["weight_model"].has_log_likelihood
        m = len(context.cache["attributes"])
        k = values[0].shape[0] - (1 if has_ll else 0)
        blocks = [v[:k] for v in values]
        total = sum_partials(blocks)
        linear, weight_sum = total[:, :m], total[:, m]
        scatter = total[:, m + 2 :].reshape(k, m, m)
        mean = _centres(linear, weight_sum)
        for block in blocks:
            split_weight = block[:, m]
            delta = _centres(block[:, :m], split_weight) - mean
            scatter += split_weight[:, None, None] * (
                delta[:, :, None] * delta[:, None, :]
            )
        context.emit(key, (linear, weight_sum, total[:, m + 1], scatter))
        if has_ll:
            context.emit(
                _LL_KEY, float(np.sum(np.asarray([v[k, 0] for v in values])))
            )


def finalize_moments(
    linear: np.ndarray,
    weight_sum: np.ndarray,
    weight_sq: np.ndarray,
    scatter: np.ndarray,
    reg: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Turn reduced sums into (means, covariances) with the paper's
    weighted-covariance scale and the same degenerate-cluster handling
    as :func:`repro.core.em._moments`."""
    k, m = linear.shape
    means = np.empty((k, m))
    covs = np.empty((k, m, m))
    for j in range(k):
        total = weight_sum[j]
        if total <= 0:
            means[j] = np.full(m, 0.5)
            covs[j] = np.eye(m) / 12.0
            continue
        means[j] = linear[j] / total
        denominator = total**2 - weight_sq[j]
        scale = total / denominator if denominator > 0 else 1.0 / total
        covs[j] = scale * scatter[j] + reg * np.eye(m)
    return means, covs


def run_moment_jobs(
    chain: JobChain,
    splits: list[InputSplit],
    weight_model: WeightModel,
    attributes: tuple[int, ...],
    step_prefix: str,
    reg: float = 1e-6,
    point_weights: np.ndarray | None = None,
    point_labels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None]:
    """Run the moment job (step ``{step_prefix}_moments``) and finalise
    the moments.

    Returns ``(means, covariances, weight_sums, log_likelihood)``;
    the log-likelihood is ``None`` unless the weight model has one
    (:class:`ResponsibilityWeights`).

    ``point_weights`` (the coreset fast path) multiply into the model's
    weight matrix, turning every moment into its weighted counterpart.
    ``point_labels`` (cluster label per global row index) reach the
    weight model as the rows' ``labels``.
    """
    point_weights = canonical_weights(point_weights)
    cache: dict[str, Any] = {
        "weight_model": weight_model,
        "attributes": attributes,
    }
    if point_weights is not None:
        cache["point_weights"] = point_weights
    if point_labels is not None:
        cache["point_labels"] = point_labels
    job = Job(
        mapper_factory=MomentSumsMapper,
        reducer_factory=MomentSumsReducer,
        cache=DistributedCache(cache),
    )
    result = chain.run(f"{step_prefix}_moments", job, splits).as_dict()
    linear, weight_sum, weight_sq, scatter = result[_SUMS_KEY]
    means, covs = finalize_moments(linear, weight_sum, weight_sq, scatter, reg)
    return means, covs, weight_sum, result.get(_LL_KEY)


def run_em_mr(
    chain: JobChain,
    splits: list[InputSplit],
    cores: list,
    n: int,
    max_iter: int = 15,
    tol: float = 1e-5,
    reg: float = 1e-6,
    obs: Any = None,
    point_weights: np.ndarray | None = None,
) -> GaussianMixture:
    """Full MR-side EM: two-pass initialisation from cluster cores, then
    one MR job per EM iteration (Section 5.4), mirroring
    :func:`repro.core.em.initialize_from_cores` + :func:`repro.core.em.fit_em`.

    With ``point_weights`` (the coreset fast path) every moment is
    weighted and mixture weights normalise by the total weight ``W``
    instead of ``n`` — the summary stands in for ``W ≈ n`` points.

    ``obs`` (an :class:`repro.obs.Observability`) records the iteration
    count and the log-likelihood trajectory — the paper attributes
    P3C+-MR's runtime largely to EM iterations (Section 7.5.2).
    """
    from repro.core.em import relevant_attributes
    from repro.obs import NULL_OBS

    obs = obs or NULL_OBS

    point_weights = canonical_weights(point_weights)
    normalizer = float(n) if point_weights is None else float(point_weights.sum())

    attributes = relevant_attributes(cores)
    signatures = [core.signature for core in cores]

    # Initialisation pass 1: support-set moments.
    means, covs, _, _ = run_moment_jobs(
        chain,
        splits,
        CoreSupportWeights(signatures),
        attributes,
        "em_init_support",
        point_weights=point_weights,
    )
    # Initialisation pass 2: support sets + Mahalanobis-assigned strays.
    stray_model = SupportPlusStrayWeights(signatures, means, covs, attributes)
    means, covs, weight_sum, _ = run_moment_jobs(
        chain,
        splits,
        stray_model,
        attributes,
        "em_init_full",
        point_weights=point_weights,
    )
    weights = weight_sum / max(weight_sum.sum(), 1.0)
    weights = np.clip(weights, 1e-12, None)
    weights /= weights.sum()
    mixture = GaussianMixture(
        means=means, covariances=covs, weights=weights, attributes=attributes
    )

    history: list[float] = []
    for iteration in range(max_iter):
        model = ResponsibilityWeights(mixture)
        means, covs, totals, log_likelihood = run_moment_jobs(
            chain,
            splits,
            model,
            attributes,
            f"em_iter{iteration}",
            point_weights=point_weights,
        )
        if log_likelihood is not None:
            history.append(log_likelihood)
            obs.record("em.log_likelihood", log_likelihood)
        weights = np.clip(totals / normalizer, 1e-12, None)
        weights /= weights.sum()
        mixture = GaussianMixture(
            means=means, covariances=covs, weights=weights, attributes=attributes
        )
        if len(history) >= 2:
            previous, current = history[-2], history[-1]
            if abs(current - previous) <= tol * (abs(previous) + 1.0):
                break
    mixture.log_likelihood_history = history
    obs.gauge("em.iterations", len(history))
    obs.gauge("em.components", mixture.num_components)
    return mixture
