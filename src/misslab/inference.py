"""Combining rules for multiply imputed analyses and evaluation metrics.

Pooling follows the classical rules: the pooled point estimate averages the
per-imputation estimates, total variance adds the within-imputation average
to the between-imputation variance inflated by (1 + 1/m), and interval
endpoints use a t reference whose degrees of freedom collapse to infinity
when the estimates agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PooledEstimate:
    """Pooled scalar estimate with its variance decomposition."""

    estimate: float
    within: float
    between: float
    total: float
    df: float
    ci_low: float
    ci_high: float
    level: float
    m: int


def pool(
    estimates: Sequence[float],
    variances: Sequence[float],
    level: float = 0.95,
) -> PooledEstimate:
    """Combine per-imputation estimates and variances into one interval.

    Requires at least two imputations (the between-imputation variance is
    otherwise undefined) and non-negative variances. The degrees of freedom
    are ``inf`` when B is 0 or too small for df to be a finite float.
    """
    q = np.asarray(estimates, dtype=float)
    u = np.asarray(variances, dtype=float)
    m = len(q)
    if m < 2:
        raise ValueError("pooling needs m >= 2 estimates")
    if len(u) != m:
        raise ValueError("need one variance per estimate")
    if (u < 0).any():
        raise ValueError("variances must be non-negative")
    if not (0.0 < level < 1.0):
        raise ValueError("confidence level must lie in (0, 1)")
    q_bar = float(q.mean())
    u_bar = float(u.mean())
    b = float(q.var(ddof=1))
    inflated = (1.0 + 1.0 / m) * b
    t = u_bar + inflated
    if b == 0.0:
        df = np.inf
    else:
        try:
            df = (m - 1) * (1.0 + u_bar / inflated) ** 2
        except OverflowError:
            # Rubin's df grows without bound as B -> 0.
            df = np.inf
    crit = _t_quantile(df, 0.5 * (1.0 + level))
    half = crit * np.sqrt(t)
    return PooledEstimate(
        estimate=q_bar,
        within=u_bar,
        between=b,
        total=t,
        df=float(df),
        ci_low=q_bar - half,
        ci_high=q_bar + half,
        level=level,
        m=m,
    )


# Student's t is computed here rather than taken from scipy.special, whose
# import costs about 26 MB and a quarter of a second per process: pooling needs
# one quantile per interval, found by Newton steps on t_upper_tail.


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a). Differences of ``math.lgamma``
    cancel as ``a`` grows, so from 10 on it is the asymptotic series, whose
    first omitted term is below 2e-15 there."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (0.125 - r * (1 / 192 - r * (1 / 640 - r * (
        17 / 14336 - r * (31 / 18432 - r * 691 / 180224))))) / a


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """The continued fraction of I_x(a, b) = x^a y^b / B(a, b) * fraction,
    for y = 1 - x and lam = (a + b) y - b >= 0. This is ``bfrac`` of TOMS 708
    (DiDonato & Morris 1992), which takes 1 - x from ``y`` rather than from
    ``x``: near x = 1, as for a large ``df``, the textbook fraction loses
    digits to that subtraction (3e-11 relative at df = 8e5)."""
    c = 1.0 + lam
    c0, c1 = b / a, 1.0 + 1.0 / a
    p, s = 1.0, a + 1.0
    an, bn, an1, bn1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 10_000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * (y + 1.0))
        p, s = t + 1.0, s + 2.0
        an, an1 = an1, alpha * an + beta * an1
        bn, bn1 = bn1, alpha * bn + beta * bn1
        r0, r = r, an1 / bn1
        if abs(r - r0) <= 1e-16 * r:
            break
        an, bn, an1, bn1 = an / bn1, bn / bn1, r, 1.0
    return r


def t_upper_tail(t: float, df: float) -> float:
    """P(T > t) for Student's t with 0 < df < inf degrees of freedom, t >= 0.

    The tail is I_x(df/2, 1/2) / 2 at x = df / (df + t^2); where x is too
    close to 1 for that fraction to converge fast, it is 1/2 minus half the
    complement I_y(1/2, df/2), y = 1 - x. Against 40-digit arithmetic it
    is within 5e-14 relative where the tail exceeds 1e-100, and 2e-13 down
    to 1e-290. At t = 0 and t = inf the tail holds for any df; otherwise a
    NaN argument gives NaN.
    """
    if t == 0.0:
        return 0.5
    if t == math.inf:
        return 0.0
    if math.isnan(t) or math.isnan(df):
        return math.nan  # the continued fraction would never converge
    a = 0.5 * df
    s = t * t / df
    x, y = 1.0 / (1.0 + s), s / (1.0 + s)
    # x^a y^(1/2) / B(a, 1/2), with x^a from log1p.
    front = 0.5 * math.exp(-a * math.log1p(s) + 0.5 * math.log(y) + _log_gamma_ratio(a)
                           - 0.5 * math.log(math.pi))
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        return front * _beta_fraction(a, 0.5, x, y, lam)
    return 0.5 - front * _beta_fraction(0.5, a, y, x, -lam)


def _t_density(t: float, df: float) -> float:
    a = 0.5 * df
    return math.exp(_log_gamma_ratio(a) - (a + 0.5) * math.log1p(t * t / df)
                    - 0.5 * math.log(math.pi * df))


def _t_quantile(df: float, p: float) -> float:
    """The ``p`` quantile of Student's t, for 1/2 < p < 1 and 1 <= df <= inf.

    Above 1000 degrees of freedom it is the four-term Cornish-Fisher
    expansion about the normal quantile (Abramowitz & Stegun 26.7.5), which
    is the normal quantile itself at df = inf. Below, Newton steps on
    tail^(-1/df) start from the normal quantile: that function is nearly
    linear in t far into a heavy tail, so a few steps suffice even at df = 1.
    They stop when a step no longer shrinks. Against 40-digit arithmetic it
    is within 3e-14 relative for 0.75 <= p <= 0.9995. Beyond 0.9995 the
    expansion's error grows (2e-13 at p = 1 - 1e-10, df = 2300); below 0.75
    the error grows as 1e-17 / (p - 1/2), since the tail is then near 1/2.
    A NaN ``df`` gives NaN.
    """
    if math.isnan(df):
        return math.nan
    from statistics import NormalDist  # 6 ms to import; only pooling needs it

    z = NormalDist().inv_cdf(p)
    if df > 1000.0:
        z2 = z * z
        g1 = (z2 + 1.0) * z / 4.0
        g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
        g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
        g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
        return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
    q = 1.0 - p
    t, step = z, math.inf
    while True:
        tail = t_upper_tail(t, df)
        new = df * tail * math.expm1(math.log(tail / q) / df) / _t_density(t, df)
        if not abs(new) < abs(step):
            return t
        t, step = t + new, new


@dataclass(frozen=True)
class MetricsRecord:
    """Replicate-level evaluation of an estimand against its true value.

    ``mse`` equals ``bias_sq + variance`` exactly because the
    variance is taken around the replicate mean (no small-sample
    correction).
    """

    truth: float
    mean_estimate: float
    bias: float
    coverage: float
    mse: float
    bias_sq: float
    variance: float
    n_replicates: int


def replicate_metrics(
    estimates: Sequence[float],
    ci_low: Sequence[float],
    ci_high: Sequence[float],
    truth: float,
) -> MetricsRecord:
    """Bias, coverage and MSE (``bias_sq + variance``) over replicate
    estimates and their interval ends (one of each per replicate)."""
    q = np.asarray(estimates, dtype=float)
    if q.size == 0:
        raise ValueError("need at least one replicate")
    covered = (np.asarray(ci_low) <= truth) & (truth <= np.asarray(ci_high))
    mean_estimate = float(q.mean())
    bias = mean_estimate - truth
    variance = float(np.mean((q - mean_estimate) ** 2))
    mse = float(np.mean((q - truth) ** 2))
    return MetricsRecord(
        truth=truth,
        mean_estimate=mean_estimate,
        bias=bias,
        coverage=float(covered.mean()),
        mse=mse,
        bias_sq=bias * bias,
        variance=variance,
        n_replicates=len(q),
    )


def predict_mse(predictions: np.ndarray, truth: np.ndarray) -> float:
    """MSE of the pooled (averaged) prediction against the true responses.

    ``predictions`` holds one row per imputation.
    """
    preds = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if preds.ndim == 1:
        preds = preds[None, :]
    if preds.shape[1] != truth.shape[0]:
        raise ValueError(
            f"predictions cover {preds.shape[1]} rows but truth has {truth.shape[0]}"
        )
    pooled = preds.mean(axis=0)
    return float(np.mean((pooled - truth) ** 2))


@dataclass(frozen=True)
class OlsFit:
    """Least squares fit with the usual coefficient covariance."""

    coef: np.ndarray
    cov: np.ndarray

    def predict(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design, dtype=float) @ self.coef


def ols_fit(y: np.ndarray, design: np.ndarray) -> OlsFit:
    """Ordinary least squares of ``y`` on ``design`` (intercept included
    by the caller). Fewer rows than coefficients raise ``ValueError``: the
    fit would not be determined by the data."""
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    n, k = design.shape
    if n < k:
        raise ValueError(f"fewer rows ({n}) than coefficients ({k}) to fit")
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(n - k, 1)
    sigma2 = float(resid @ resid) / dof
    xtx = design.T @ design
    if rank == k:
        cov = sigma2 * np.linalg.inv(xtx)
    else:
        cov = sigma2 * np.linalg.pinv(xtx)
    return OlsFit(coef=coef, cov=cov)
