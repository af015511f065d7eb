"""Outlier detection: naive moments vs. the MVB estimator (Section 4.2.2).

Both variants flag a cluster member as an outlier when its squared
Mahalanobis distance to the cluster's location/scatter estimate exceeds
the chi-squared critical value with ``|A_rel|`` degrees of freedom at
``alpha = 0.001``.

- *Naive*: mean and covariance from **all** members — suffers from the
  masking effect (outliers inflate the very estimate meant to expose
  them).
- *MVB*: an approximate minimum-volume-ellipsoid.  Centre = the
  dimension-wise median of the members, radius = the median Euclidean
  distance to that centre; the moments are then re-estimated from only
  the points inside that ball (half the cluster), which resists masking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy import stats as sps

from repro.core.stats import chi2_critical_value, mahalanobis_squared


def ball_consistency_factor(dim: int) -> float:
    """Consistency correction for a covariance estimated from the points
    inside the median-radius ball.

    Truncating a Gaussian at its median radius shrinks the sample
    covariance by ``P(chi2_{m+2} <= q) / 0.5`` with ``q`` the chi-squared
    median — the standard MCD/MVE-style consistency constant.  Without
    the correction the Mahalanobis distances of ordinary members are
    systematically inflated and the detector over-flags.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    q = float(sps.chi2.ppf(0.5, df=dim))
    inner_mass = float(sps.chi2.cdf(q, df=dim + 2))
    return 0.5 / max(inner_mass, 1e-12)


@dataclass(frozen=True)
class MVBEstimate:
    """Minimum-volume-ball location/scatter estimate of one cluster."""

    center: np.ndarray  # dimension-wise median
    radius: float  # median distance to the centre
    mean: np.ndarray  # moments of the points inside the ball
    covariance: np.ndarray
    n_inside: int


def dimensionwise_median(points: np.ndarray) -> np.ndarray:
    """``Md_d`` of Section 5.5: the per-attribute sample median."""
    if len(points) == 0:
        raise ValueError("cannot take the median of zero points")
    return np.median(points, axis=0)


def mvb_estimate(points: np.ndarray, reg: float = 1e-9) -> MVBEstimate:
    """Fit the minimum-volume ball and the inside-ball moments.

    ``points`` are the cluster members already projected to ``A_rel``.
    The ball contains (at least) half of the members by construction of
    the median radius.

    A covariance estimated from fewer inside-ball points than twice the
    dimensionality is unusable (singular or wildly ill-conditioned, so
    nearly every point would be flagged); in that small-sample regime
    the estimate falls back to the diagonal variances of *all* members,
    which stays robust to location outliers while giving a sane scale.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dim = points.shape[1]
    center = dimensionwise_median(points)
    distances = np.linalg.norm(points - center, axis=1)
    radius = float(np.median(distances))
    inside = points[distances <= radius]
    if len(inside) == 0:
        inside = points
    mean = inside.mean(axis=0)
    if len(inside) >= max(2, 2 * dim):
        diff = inside - mean
        cov = ball_consistency_factor(dim) * (diff.T @ diff) / (len(inside) - 1)
    else:
        variances = points.var(axis=0, ddof=1) if len(points) > 1 else np.ones(dim)
        cov = np.diag(np.maximum(variances, 1e-12))
    cov = cov + reg * np.eye(dim)
    return MVBEstimate(
        center=center,
        radius=radius,
        mean=mean,
        covariance=cov,
        n_inside=len(inside),
    )


def detect_outliers_naive(
    members_sub: np.ndarray,
    mean: np.ndarray,
    covariance: np.ndarray,
    alpha: float = 0.001,
) -> np.ndarray:
    """Boolean outlier mask using the supplied (EM) moments directly.

    The chi-squared cutoff is widened by the same small-sample
    inflation as the MVB detector (the moments come from the cluster's
    own members)."""
    if len(members_sub) == 0:
        return np.zeros(0, dtype=bool)
    critical = outlier_critical_value(
        len(members_sub), members_sub.shape[1], alpha
    )
    return mahalanobis_squared(members_sub, mean, covariance) > critical


def small_sample_inflation(n_estimate: int, dim: int) -> float:
    """Correction factor for chi-squared outlier cutoffs under
    small-sample covariance estimates.

    A squared Mahalanobis distance computed with a covariance estimated
    from ``n`` points in ``m`` dimensions is inflated by roughly
    ``(n - 1) / (n - m - 2)`` relative to the true-parameter chi-squared
    reference; comparing against the uncorrected critical value then
    over-flags massively when ``n`` is close to ``m``.  The paper can
    ignore this (it targets huge data, where the factor is ~1); the
    colon-scale experiments cannot.  Returns 1 for comfortable sample
    sizes and the inflation factor otherwise.
    """
    if n_estimate <= dim + 2:
        return float("inf")
    return max(1.0, (n_estimate - 1) / (n_estimate - dim - 2))


def outlier_critical_value(
    n_estimate: int, dim: int, alpha: float = 0.001
) -> float:
    """Squared-Mahalanobis cutoff above which a point is an outlier.

    The chi-squared critical value with ``dim`` degrees of freedom at
    ``alpha``, widened by :func:`small_sample_inflation` of the number
    of points the moments were estimated from.  Moments estimated from
    too few points to be usable give an infinite cutoff: nothing is
    flagged.  Every outlier verdict (serial detectors, the OD job and
    the serving scorer) compares against this value.
    """
    inflation = small_sample_inflation(n_estimate, dim)
    if not np.isfinite(inflation):
        return float("inf")
    return chi2_critical_value(dim, alpha) * inflation


def detect_outliers_mvb(
    members_sub: np.ndarray,
    alpha: float = 0.001,
) -> tuple[np.ndarray, MVBEstimate]:
    """Boolean outlier mask using MVB-estimated moments.

    Returns the mask together with the fitted :class:`MVBEstimate` so
    drivers can report the robust moments (the MR formulation computes
    the same estimate with three jobs, Section 5.5).  The chi-squared
    cutoff is widened by :func:`small_sample_inflation` of the
    inside-ball count; when the covariance cannot be estimated at all
    (fewer points than dimensions) nothing is flagged.
    """
    if len(members_sub) == 0:
        raise ValueError("cluster has no members")
    estimate = mvb_estimate(members_sub)
    critical = outlier_critical_value(
        estimate.n_inside, members_sub.shape[1], alpha
    )
    d2 = mahalanobis_squared(members_sub, estimate.mean, estimate.covariance)
    return d2 > critical, estimate


# -- exact(er) MVE: the paper's unevaluated extension ------------------
#
# Section 4.2.2: "The exact MVE estimator will probably result in a
# better clustering quality but ... the calculation of MVE is a
# computationally expensive step.  Due to our focus on large data sets
# we therefore leave this point not evaluated."  This implementation
# closes that gap for the ablation bench: the minimum-volume ellipsoid
# covering half the points is approximated by Khachiyan's MVEE algorithm
# wrapped in FAST-MCD-style concentration steps (fit ellipsoid on the
# current half, re-select the half with the smallest ellipsoid
# distances, repeat until the subset stabilises).


@dataclass(frozen=True)
class MVEEstimate:
    """Minimum-volume-ellipsoid location/scatter estimate."""

    mean: np.ndarray
    covariance: np.ndarray
    subset_size: int
    iterations: int


def minimum_volume_enclosing_ellipsoid(
    points: np.ndarray,
    tolerance: float = 1e-4,
    max_iterations: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Khachiyan's algorithm: the MVEE of a point set.

    Returns ``(center, shape)`` with every point satisfying
    ``(x - center)^T shape (x - center) <= 1`` (up to ``tolerance``).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = points.shape
    if n == 0:
        raise ValueError("cannot fit an ellipsoid to zero points")
    if n == 1:
        return points[0].copy(), np.eye(m) * 1e12
    q = np.vstack([points.T, np.ones(n)])  # (m+1, n)
    u = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        weighted = q @ np.diag(u) @ q.T
        try:
            inv = np.linalg.inv(weighted)
        except np.linalg.LinAlgError:
            inv = np.linalg.pinv(weighted)
        distances = np.einsum("ij,jk,ik->i", q.T, inv, q.T)
        j = int(np.argmax(distances))
        maximum = distances[j]
        step = (maximum - m - 1.0) / ((m + 1.0) * (maximum - 1.0))
        if step <= tolerance:
            break
        u = (1.0 - step) * u
        u[j] += step
    center = points.T @ u
    diff = points - center
    scatter = (diff.T * u) @ diff
    try:
        shape = np.linalg.inv(scatter) / m
    except np.linalg.LinAlgError:
        shape = np.linalg.pinv(scatter) / m
    return center, shape


def mve_estimate(
    points: np.ndarray,
    max_concentration_steps: int = 20,
    reg: float = 1e-9,
) -> MVEEstimate:
    """Half-sample minimum-volume-ellipsoid moments.

    Concentration iteration: fit the MVEE of the current half-sample,
    rank all points by their ellipsoid distance, keep the closest half,
    repeat until the subset stabilises.  The final covariance gets the
    same median-truncation consistency correction as the MVB.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = points.shape
    h = (n + dim + 1) // 2
    h = min(max(h, min(n, dim + 1)), n)

    # Seed with the MVB's inside-ball half.
    center = dimensionwise_median(points)
    order = np.argsort(np.linalg.norm(points - center, axis=1))
    subset = np.sort(order[:h])

    iterations = 0
    for iterations in range(1, max_concentration_steps + 1):
        ell_center, ell_shape = minimum_volume_enclosing_ellipsoid(
            points[subset]
        )
        diff = points - ell_center
        distances = np.einsum("ij,jk,ik->i", diff, ell_shape, diff)
        new_subset = np.sort(np.argsort(distances)[:h])
        if np.array_equal(new_subset, subset):
            break
        subset = new_subset

    chosen = points[subset]
    mean = chosen.mean(axis=0)
    if len(chosen) >= max(2, 2 * dim):
        diff = chosen - mean
        cov = ball_consistency_factor(dim) * (diff.T @ diff) / (len(chosen) - 1)
    else:
        variances = points.var(axis=0, ddof=1) if n > 1 else np.ones(dim)
        cov = np.diag(np.maximum(variances, 1e-12))
    cov = cov + reg * np.eye(dim)
    return MVEEstimate(
        mean=mean,
        covariance=cov,
        subset_size=int(h),
        iterations=iterations,
    )


def detect_outliers_mve(
    members_sub: np.ndarray,
    alpha: float = 0.001,
) -> tuple[np.ndarray, MVEEstimate]:
    """Boolean outlier mask using half-sample MVE moments."""
    if len(members_sub) == 0:
        raise ValueError("cluster has no members")
    estimate = mve_estimate(members_sub)
    critical = outlier_critical_value(
        estimate.subset_size, members_sub.shape[1], alpha
    )
    d2 = mahalanobis_squared(members_sub, estimate.mean, estimate.covariance)
    return d2 > critical, estimate
