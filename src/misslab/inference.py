"""Combining rules for multiply imputed analyses and evaluation metrics.

Pooling follows the classical rules: the pooled point estimate averages the
per-imputation estimates, total variance adds the within-imputation average
to the between-imputation variance inflated by (1 + 1/m), and interval
endpoints use a t reference whose degrees of freedom collapse to infinity
when the estimates agree exactly.
"""

from __future__ import annotations

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
    from scipy.special import stdtrit  # what t.ppf calls; see misslab.analyzer

    crit = float(stdtrit(df, 0.5 * (1.0 + level)))
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


@dataclass(frozen=True)
class MetricsRecord:
    """Replicate-level evaluation of an estimand against its true value.

    ``mse`` decomposes exactly as ``bias_sq + variance`` because the
    variance is taken around the replicate mean (no small-sample
    correction).
    """

    estimand: str
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
    estimand: str = "",
) -> MetricsRecord:
    """Bias, coverage and decomposed MSE over replicate estimates and their
    interval ends (one of each per replicate)."""
    q = np.asarray(estimates, dtype=float)
    if q.size == 0:
        raise ValueError("need at least one replicate")
    covered = (np.asarray(ci_low) <= truth) & (truth <= np.asarray(ci_high))
    mean_estimate = float(q.mean())
    bias = mean_estimate - truth
    variance = float(np.mean((q - mean_estimate) ** 2))
    mse = float(np.mean((q - truth) ** 2))
    return MetricsRecord(
        estimand=estimand,
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
    sigma2: float
    dof: int

    def predict(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design, dtype=float) @ self.coef


def ols_fit(y: np.ndarray, design: np.ndarray) -> OlsFit:
    """Ordinary least squares of ``y`` on ``design`` (intercept included
    by the caller)."""
    y = np.asarray(y, dtype=float)
    design = np.asarray(design, dtype=float)
    n, k = design.shape
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(n - k, 1)
    sigma2 = float(resid @ resid) / dof
    xtx = design.T @ design
    if rank == k:
        cov = sigma2 * np.linalg.inv(xtx)
    else:
        cov = sigma2 * np.linalg.pinv(xtx)
    return OlsFit(coef=coef, cov=cov, sigma2=sigma2, dof=dof)
