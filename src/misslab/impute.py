"""Chained-equations multiple imputation with Bayesian-normal and
predictive-mean-matching column methods.

The sampler follows the conventional fully conditional scheme: each missing
cell starts as a uniform draw from its column's observed values, then for a
fixed number of sweeps every incomplete column is revisited left to right,
a univariate model is fitted on rows observed in that column, and the
column's missing cells are redrawn. Rows flagged in ``ignore`` never enter
any model fit (nor the initial donor pool) but their cells are still
imputed, which is how a test set is completed without leaking into the
training fit. Cells flagged logically missing are never imputed at all:
they stay empty in every completed copy and enter the fits of *other*
columns through a neutral mean fill.

Chains are mutually independent with sub-seeds spawned from the
configuration seed, so results are reproducible and chain order is
irrelevant to the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .tabular import DataMatrix

METHODS = ("norm", "pmm")

DEFAULT_RIDGE = 1e-5


class CollinearityError(np.linalg.LinAlgError):
    """Normal equations singular even after ridging."""

    def __init__(self, columns):
        self.columns = tuple(int(c) for c in columns)
        super().__init__(
            "design is singular; collinear design columns: "
            + ", ".join(str(c) for c in self.columns)
        )


class UnimputableColumnError(ValueError):
    """A column with missing cells has no observed values to learn from."""

    def __init__(self, column, name=None):
        self.column = int(column)
        label = f"{name!r} (index {column})" if name is not None else str(column)
        super().__init__(
            f"column {label} has no observed values among fitting rows"
        )


@dataclass(frozen=True)
class ImputationConfig:
    """Settings for :func:`fcs_impute`.

    ``ignore`` is a per-row boolean mask of rows excluded from model
    fitting but still imputed. ``method`` is one of :data:`METHODS`, used
    for every column.
    """

    m: int = 5
    maxit: int = 5
    method: str = "pmm"
    donors: int = 5
    ridge: float = DEFAULT_RIDGE
    ignore: tuple[bool, ...] | None = None
    seed: int | np.random.SeedSequence | None = None

    def validate(self, n: int) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.maxit < 1:
            raise ValueError("maxit must be a positive integer")
        if self.donors < 1:
            raise ValueError("donors must be >= 1")
        if not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be a finite number >= 0, got {self.ridge}")
        if self.ignore is not None and len(self.ignore) != n:
            raise ValueError("ignore mask length must equal the row count")


@dataclass(frozen=True)
class RegressionDraw:
    """One Bayesian univariate regression draw."""

    values: np.ndarray
    beta_hat: np.ndarray
    beta_star: np.ndarray
    sigma: float


def _bayes_regression(y_obs, x_obs, ridge, rng):
    """Point estimate plus posterior parameter draw for one column model.

    Solves the ridged normal equations (ridge scaled by the diagonal), then
    draws the residual variance from its scaled inverse chi-square
    conditional and the coefficients from their normal conditional.
    """
    from scipy import linalg as sla  # slow to import; only imputation needs it

    y_obs = np.asarray(y_obs, float)
    x_obs = np.asarray(x_obs, float)
    n, k = x_obs.shape
    if len(y_obs) != n:
        raise ValueError("response and design row counts differ")
    s = x_obs.T @ x_obs
    if ridge > 0:
        s = s + np.diag(ridge * np.diag(s))
    try:
        chol_s = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        _, r, piv = sla.qr(x_obs, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        tol = diag.max() * max(n, k) * np.finfo(float).eps if diag.size else 0.0
        rank = int((diag > tol).sum())
        raise CollinearityError(sorted(piv[rank:])) from None
    beta_hat = sla.cho_solve((chol_s, True), x_obs.T @ y_obs)
    dof = max(n - k, 1)
    rss = float(((y_obs - x_obs @ beta_hat) ** 2).sum())
    sigma = float(np.sqrt(rss / rng.chisquare(dof)))
    z = rng.standard_normal(k)
    # solve(L^T, z) has covariance (L L^T)^-1 = S^-1, as required.
    beta_star = beta_hat + sigma * sla.solve_triangular(chol_s.T, z, lower=False)
    return beta_hat, beta_star, sigma


def fit_norm_draw(
    y_obs, x_obs, x_mis, ridge: float = DEFAULT_RIDGE,
    rng: np.random.Generator | None = None,
) -> RegressionDraw:
    """Bayesian normal linear regression imputation for one column.

    Returns draws ``x_mis @ beta_star + sigma * noise`` together with the
    fitted and drawn coefficients.
    """
    rng = np.random.default_rng() if rng is None else rng
    x_mis = np.asarray(x_mis, float)
    beta_hat, beta_star, sigma = _bayes_regression(y_obs, x_obs, ridge, rng)
    values = x_mis @ beta_star + sigma * rng.standard_normal(x_mis.shape[0])
    return RegressionDraw(values, beta_hat, beta_star, sigma)


def _first_true(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-row bisection: the first index in ``[lo, hi)`` where the monotone
    (false, then true) predicate ``pred(rows, idx)`` holds, else ``hi``."""
    lo, hi = lo.copy(), hi.copy()
    rows = np.flatnonzero(lo < hi)
    while rows.size:
        mid = (lo[rows] + hi[rows]) // 2
        ok = pred(rows, mid)
        hi[rows] = np.where(ok, mid, hi[rows])
        lo[rows] = np.where(ok, lo[rows], mid + 1)
        rows = rows[lo[rows] < hi[rows]]
    return lo


def pmm_donors(
    eta_obs, eta_mis, donors: int, rng: np.random.Generator
) -> np.ndarray:
    """Index into ``eta_obs`` of one donor per entry of ``eta_mis``.

    The donor is uniform over a donor set of ``donors`` observed rows: every
    row strictly closer than the ``donors``-th smallest distance ``d_k``,
    plus a uniform subset of the rows tied at exactly ``d_k``. The set is
    never built. With ``c`` strictly closer rows and ``t`` tied ones, a draw
    ``u`` uniform on ``0..donors-1`` takes the ``u``-th closer row when
    ``u < c`` and otherwise a uniform member of the tie, which gives each
    closer row probability ``1/donors`` and each tied row
    ``(donors - c) / (donors * t)``, as the set would.

    Distances ``|eta_obs - eta_mis|`` fall and then rise along the sorted
    observed predictions, so the rows within ``d_k`` form one index range
    around each recipient's insertion point, the closer rows a range inside
    it, and the ``donors`` nearest lie among the ``2 * donors`` sorted
    neighbours of that point. Only a tie that runs past those neighbours
    (duplicate predictions) is followed further, by bisection.
    Memory is O(n_mis * donors + n_obs); time is
    O((n_obs + n_mis) log n_obs).
    """
    eta_obs = np.asarray(eta_obs, float)
    eta_mis = np.asarray(eta_mis, float)
    n_obs, n_mis, k = len(eta_obs), len(eta_mis), donors
    if not 1 <= k <= n_obs:
        raise ValueError(f"donors={k} must lie in 1..{n_obs}")
    if n_mis == 0:
        return np.empty(0, dtype=np.intp)
    if not (np.isfinite(eta_obs).all() and np.isfinite(eta_mis).all()):
        raise FloatingPointError("non-finite predictions to match on")
    order = np.argsort(eta_obs, kind="stable")
    srt = eta_obs[order]
    pos = np.searchsorted(srt, eta_mis)
    width = min(2 * k, n_obs)
    start = np.clip(pos - k, 0, n_obs - width)
    idx = start[:, None] + np.arange(width)
    dist = np.abs(srt[idx] - eta_mis[:, None])
    d_k = np.partition(dist, k - 1, axis=1)[:, k - 1]
    within = dist <= d_k[:, None]
    closer = dist < d_k[:, None]
    # Distances fall, then rise along the window, so the rows within d_k are
    # the range [lo, hi) and the n_close rows closer than d_k are the range
    # starting at lo_close inside it (lo_close is unused when n_close = 0).
    lo = start + within.argmax(axis=1)
    hi = lo + within.sum(axis=1)
    lo_close = start + closer.argmax(axis=1)
    n_close = closer.sum(axis=1)

    # A tie that reaches the window edge may run on past it.
    stop = start + width
    wide = np.flatnonzero((lo == start) & (start > 0))
    wide = wide[np.abs(srt[start[wide] - 1] - eta_mis[wide]) <= d_k[wide]]
    if wide.size:
        e, d = eta_mis[wide], d_k[wide]
        lo[wide] = _first_true(
            lambda r, j: np.abs(srt[j] - e[r]) <= d[r],
            np.zeros(wide.size, dtype=lo.dtype), start[wide],
        )
    wide = np.flatnonzero((hi == stop) & (stop < n_obs))
    wide = wide[np.abs(srt[stop[wide]] - eta_mis[wide]) <= d_k[wide]]
    if wide.size:
        e, d = eta_mis[wide], d_k[wide]
        hi[wide] = _first_true(
            lambda r, j: np.abs(srt[j] - e[r]) > d[r],
            stop[wide], np.full(wide.size, n_obs, dtype=hi.dtype),
        )

    u = rng.integers(0, k, size=n_mis)
    pick = lo_close + u
    tied = np.flatnonzero(u >= n_close)
    c = n_close[tied]
    v = lo[tied] + rng.integers(0, hi[tied] - lo[tied] - c)
    pick[tied] = np.where(v < lo_close[tied], v, v + c)
    return order[pick]


def fit_pmm_draw(
    y_obs, x_obs, x_mis, donors: int = 5, ridge: float = DEFAULT_RIDGE,
    rng: np.random.Generator | None = None,
) -> RegressionDraw:
    """Predictive mean matching imputation for one column.

    Matches on predictions: observed rows score with the point estimate,
    missing rows with the posterior draw. Each missing cell copies the
    observed value of one donor drawn uniformly from a set of ``donors``
    matches: every observed row strictly closer than the ``donors``-th
    smallest distance, plus a uniform subset of the rows tied at that
    distance (:func:`pmm_donors`). The search sorts the observed
    predictions once and bisects into them, so memory stays linear in the
    row counts.
    """
    rng = np.random.default_rng() if rng is None else rng
    y_obs = np.asarray(y_obs, float)
    x_mis = np.asarray(x_mis, float)
    n_obs = len(y_obs)
    if donors > n_obs:
        raise ValueError(
            f"donors={donors} exceeds the {n_obs} observed rows available"
        )
    beta_hat, beta_star, sigma = _bayes_regression(y_obs, x_obs, ridge, rng)
    eta_obs = np.asarray(x_obs, float) @ beta_hat
    eta_mis = x_mis @ beta_star
    values = y_obs[pmm_donors(eta_obs, eta_mis, donors, rng)]
    return RegressionDraw(values, beta_hat, beta_star, sigma)


@dataclass(frozen=True)
class ImputationResult:
    """Completed copies plus per-sweep chain statistics.

    ``chain_means``/``chain_sds`` have shape (m, maxit, p) and are NaN for
    columns that were never imputed. ``fitted_models`` holds, per chain,
    the final-sweep point-estimate coefficients of each visited column
    (intercept first, then the other columns in storage order).
    """

    completed: tuple[np.ndarray, ...]
    chain_means: np.ndarray
    chain_sds: np.ndarray
    fitted_models: tuple[dict[int, np.ndarray], ...]
    visited_columns: tuple[int, ...]
    col_names: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.completed)


def _design(work: np.ndarray, j: int) -> np.ndarray:
    n, p = work.shape
    out = np.empty((n, p))
    out[:, 0] = 1.0
    out[:, 1:] = np.delete(work, j, axis=1)
    return out


def fcs_impute(x: DataMatrix, cfg: ImputationConfig) -> ImputationResult:
    """Multiply impute ``x`` by fully conditional specification.

    Raises :class:`UnimputableColumnError` when a column has missing cells
    but no observed values among non-ignored rows, and ``ValueError`` on
    non-finite observed input; non-finite draws abort with the offending
    column and sweep named.
    """
    bits = x.missing.bits
    logical = x.missing.logical_bits()
    n, p = bits.shape
    cfg.validate(n)
    ignore = (
        np.zeros(n, dtype=bool)
        if cfg.ignore is None
        else np.asarray(cfg.ignore, dtype=bool)
    )

    observed_cells = bits == 0
    if not np.isfinite(x.values[observed_cells]).all():
        i, j = next(
            (int(a), int(b))
            for a, b in zip(*np.nonzero(observed_cells & ~np.isfinite(x.values)))
        )
        raise ValueError(f"non-finite observed value at row {i}, column {j}")

    imputable = (bits == 1) & (logical == 0)
    visit = tuple(j for j in range(p) if imputable[:, j].any())
    fit_rows = {j: (~ignore) & observed_cells[:, j] for j in visit}
    for j in visit:
        if not fit_rows[j].any():
            raise UnimputableColumnError(j, x.col_names[j])

    seed_seq = (
        cfg.seed
        if isinstance(cfg.seed, np.random.SeedSequence)
        else np.random.SeedSequence(cfg.seed)
    )
    chain_seeds = seed_seq.spawn(cfg.m)

    completed: list[np.ndarray] = []
    chain_means = np.full((cfg.m, cfg.maxit, p), np.nan)
    chain_sds = np.full((cfg.m, cfg.maxit, p), np.nan)
    fitted: list[dict[int, np.ndarray]] = []

    logical_cells = logical == 1
    mean_fill = np.zeros(p)
    for j in range(p):
        if logical_cells[:, j].any():
            pool = x.values[(~ignore) & observed_cells[:, j], j]
            if pool.size == 0:
                pool = x.values[observed_cells[:, j], j]
            mean_fill[j] = pool.mean() if pool.size else 0.0

    for chain_seed in chain_seeds:
        rng = np.random.default_rng(chain_seed)
        work = x.masked_values()
        for j in range(p):
            if logical_cells[:, j].any():
                work[logical_cells[:, j], j] = mean_fill[j]
        for j in visit:
            pool = x.values[fit_rows[j], j]
            work[imputable[:, j], j] = rng.choice(pool, size=imputable[:, j].sum())

        models: dict[int, np.ndarray] = {}
        for it in range(cfg.maxit):
            for j in visit:
                rows = fit_rows[j]
                design = _design(work, j)
                y_obs = work[rows, j]
                x_obs = design[rows]
                x_mis = design[imputable[:, j]]
                if cfg.method == "norm":
                    draw = fit_norm_draw(y_obs, x_obs, x_mis, cfg.ridge, rng)
                else:
                    # Sparse columns can have fewer observed rows than the
                    # requested pool; matching still works with what exists.
                    donors = min(cfg.donors, len(y_obs))
                    draw = fit_pmm_draw(
                        y_obs, x_obs, x_mis, donors, cfg.ridge, rng
                    )
                if not np.isfinite(draw.values).all():
                    raise FloatingPointError(
                        f"non-finite imputation for column "
                        f"{x.col_names[j]!r} at sweep {it + 1}"
                    )
                work[imputable[:, j], j] = draw.values
                chain_means[len(completed), it, j] = draw.values.mean()
                if draw.values.size >= 2:
                    chain_sds[len(completed), it, j] = draw.values.std(ddof=1)
                if it == cfg.maxit - 1:
                    models[j] = draw.beta_hat
        out = work.copy()
        out[logical_cells] = np.nan
        completed.append(out)
        fitted.append(models)

    return ImputationResult(
        completed=tuple(completed),
        chain_means=chain_means,
        chain_sds=chain_sds,
        fitted_models=tuple(fitted),
        visited_columns=visit,
        col_names=x.col_names,
    )


@dataclass(frozen=True)
class ChainDiagnostics:
    """Long-format imputation traces plus a between-chain spread."""

    # Header of the diagnostics CSV: one name per field of a row.
    columns: ClassVar[tuple[str, ...]] = ("chain", "iteration", "column", "mean", "sd")
    rows: tuple[tuple[int, int, str, float, float], ...]
    between_chain: dict[str, float]
    flags: tuple[str, ...]


def chain_diagnostics(result: ImputationResult) -> ChainDiagnostics:
    """Tabulate per-sweep means/sds of the imputed cells per chain.

    Columns with no imputed cells produce no rows. With a single chain the
    between-chain spread is undefined and flagged.
    """
    m, maxit, _ = result.chain_means.shape
    rows = []
    for chain in range(m):
        for it in range(maxit):
            for j in result.visited_columns:
                rows.append(
                    (
                        chain,
                        it + 1,
                        result.col_names[j],
                        float(result.chain_means[chain, it, j]),
                        float(result.chain_sds[chain, it, j]),
                    )
                )
    between: dict[str, float] = {}
    flags: list[str] = []
    for j in result.visited_columns:
        name = result.col_names[j]
        if m < 2:
            between[name] = float("nan")
            flags.append(f"between-chain spread undefined for {name!r} (m=1)")
        else:
            between[name] = float(result.chain_means[:, -1, j].std(ddof=1))
    return ChainDiagnostics(tuple(rows), between, tuple(flags))
