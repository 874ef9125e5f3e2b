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

The m chains advance together: each sweep visits each column once for all
chains. Their working values live in one stacked array of m * n * (p + 1)
floats (the values plus a shared intercept column), and the completed
copies may be views into it. Chains are mutually independent, each drawing
from its own generator spawned from the configuration seed, so results are
reproducible and a chain's draws do not depend on the others.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .tabular import DataMatrix

METHODS = ("norm", "pmm")

DEFAULT_RIDGE = 1e-5


class CollinearityError(np.linalg.LinAlgError):
    """Normal equations singular even after ridging. ``columns`` are the
    design columns, read left to right, that do not raise the rank of the
    columns before them: column ``j`` is named when
    ``numpy.linalg.matrix_rank(x[:, :j + 1])`` is no higher than the rank of
    ``x[:, :j]`` (0 for ``j = 0``). The rank is numpy's default: the count
    of singular values above ``s.max() * max(n, j + 1) * eps``. ``where``
    names the column and sweep being drawn (empty for a lone draw)."""

    def __init__(self, columns, where=""):
        self.columns = tuple(int(c) for c in columns)
        self.where = where
        super().__init__(
            f"design is singular{where}; collinear design columns: "
            + ", ".join(str(c) for c in self.columns)
        )

    # Study workers return errors by pickle, whose default rebuilds an error
    # from ``args``: here only the message.
    def __reduce__(self):
        return type(self), (self.columns, self.where)


class NonFiniteDrawError(ValueError):
    """A chain's draw, or the predictions PMM matches on, is not finite;
    ``where`` names the column and sweep (empty for a lone draw)."""

    def __init__(self, chain, where=""):
        self.chain = int(chain)
        self.where = where
        super().__init__(f"non-finite imputation{where} in chain {chain}")

    def __reduce__(self):
        return type(self), (self.chain, self.where)


class UnimputableColumnError(ValueError):
    """A column with missing cells has no observed values to learn from."""

    def __init__(self, column, name=None):
        self.column = int(column)
        self.name = name
        label = f"{name!r} (index {column})" if name is not None else str(column)
        super().__init__(
            f"column {label} has no observed values among fitting rows"
        )

    def __reduce__(self):
        return type(self), (self.column, self.name)


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
    """Bayesian univariate regression draws.

    Inside the engine every field has a leading chain axis: ``values`` is
    (m, n_mis), ``beta_hat`` and ``beta_star`` are (m, k) and ``sigma`` is
    (m,). The one-chain entry points return them without it.
    """

    values: np.ndarray
    beta_hat: np.ndarray
    beta_star: np.ndarray
    sigma: np.ndarray | float


def _collinear(x_obs: np.ndarray, where: str) -> CollinearityError:
    """The error for a design whose normal equations cannot be factored,
    naming each column that does not raise the rank of the columns before
    it (see :class:`CollinearityError`)."""
    k = x_obs.shape[1]
    ranks = [0] + [np.linalg.matrix_rank(x_obs[:, :j + 1]) for j in range(k)]
    return CollinearityError([j for j in range(k) if ranks[j + 1] <= ranks[j]], where)


def _draw(y_obs, x_obs, x_mis, donors, ridge, rngs, where="") -> RegressionDraw:
    """One column's draws for every chain at once.

    ``y_obs`` is (m, n_obs), ``x_obs`` (m, n_obs, k) and ``x_mis``
    (m, n_mis, k), all C-contiguous; ``rngs`` holds one generator per chain.
    ``donors`` is None for the normal draw and the donor count for PMM.

    Per chain: solve the ridged normal equations (ridge scaled by the
    diagonal), draw the residual variance from its scaled inverse chi-square
    conditional and the coefficients from their normal conditional, then
    the missing values, either ``x_mis @ beta_star + sigma * noise`` or by
    matching (:func:`pmm_donors`). Each chain draws from its own generator
    in the order a lone chain would. The products, the factorisation and
    the solves are batched NumPy calls over the chain axis.

    Raises :class:`CollinearityError` for the lowest chain whose equations
    cannot be factored and :class:`NonFiniteDrawError` for the lowest chain
    whose draw is not finite, each locating the draw by ``where``.
    """
    m, n_obs, k = x_obs.shape
    xt = x_obs.transpose(0, 2, 1)
    s = xt @ x_obs
    if ridge > 0:
        d = np.arange(k)
        s[:, d, d] += ridge * s[:, d, d]
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        for c in range(m):
            try:
                np.linalg.cholesky(s[c])
            except np.linalg.LinAlgError:
                raise _collinear(x_obs[c], where) from None
        raise
    beta_hat = np.linalg.solve(s, xt @ y_obs[..., None])[..., 0]
    dof = max(n_obs - k, 1)
    chi2 = np.empty(m)
    z = np.empty((m, k, 1))
    noise = np.empty(x_mis.shape[:2])
    for c, rng in enumerate(rngs):
        chi2[c] = rng.chisquare(dof)
        z[c, :, 0] = rng.standard_normal(k)
        if donors is None:
            noise[c] = rng.standard_normal(noise.shape[1])
    # solve(L^T, z) has covariance (L L^T)^-1 = S^-1, as required.
    step = np.linalg.solve(chol.transpose(0, 2, 1), z)[..., 0]
    fit = (x_obs @ beta_hat[..., None])[..., 0]
    sigma = np.sqrt(((y_obs - fit) ** 2).sum(axis=1) / chi2)
    beta_star = beta_hat + sigma[:, None] * step
    eta_mis = (x_mis @ beta_star[..., None])[..., 0]
    if donors is None:
        values = eta_mis + sigma[:, None] * noise
        bad = ~np.isfinite(values).all(axis=1)
    else:
        bad = ~(np.isfinite(fit).all(axis=1) & np.isfinite(eta_mis).all(axis=1))
    if bad.any():
        raise NonFiniteDrawError(bad.argmax(), where)
    if donors is not None:
        # Observed rows score with the point estimate, missing rows with
        # the posterior draw.
        values = np.take_along_axis(
            y_obs, _pmm_donors(fit, eta_mis, donors, rngs), axis=1)
    return RegressionDraw(values, beta_hat, beta_star, sigma)


def _quiet_draws() -> np.errstate:
    """Silence NumPy's overflow, divide and invalid warnings. A draw that
    goes non-finite raises :class:`NonFiniteDrawError`, so the warnings would
    only print ahead of that error. Entered once per public call, not once
    per draw."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _one_chain(y_obs, x_obs, x_mis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A lone chain's inputs, checked and given a leading chain axis."""
    y_obs = np.ascontiguousarray(y_obs, float)
    x_obs = np.ascontiguousarray(x_obs, float)
    x_mis = np.ascontiguousarray(x_mis, float)
    if len(y_obs) != len(x_obs):
        raise ValueError("response and design row counts differ")
    if not all(np.isfinite(a).all() for a in (y_obs, x_obs, x_mis)):
        raise ValueError("non-finite regression input")
    return y_obs[None], x_obs[None], x_mis[None]


def _first_chain(draw: RegressionDraw) -> RegressionDraw:
    return RegressionDraw(draw.values[0], draw.beta_hat[0], draw.beta_star[0],
                          float(draw.sigma[0]))


def fit_norm_draw(
    y_obs, x_obs, x_mis, ridge: float = DEFAULT_RIDGE,
    rng: np.random.Generator | None = None,
) -> RegressionDraw:
    """Bayesian normal linear regression imputation for one column.

    Returns draws ``x_mis @ beta_star + sigma * noise`` together with the
    fitted and drawn coefficients: the engine's draw for a single chain.
    """
    rng = np.random.default_rng() if rng is None else rng
    with _quiet_draws():
        return _first_chain(_draw(*_one_chain(y_obs, x_obs, x_mis), None, ridge, [rng]))


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


def _pmm_donors(eta_obs, eta_mis, donors: int, rngs) -> np.ndarray:
    """:func:`pmm_donors` for every chain at once: (m, n_obs) and (m, n_mis)
    finite predictions give (m, n_mis) donor indices, chain ``c`` drawing
    from ``rngs[c]``.

    The chains' sorted predictions are laid end to end in one flat array,
    each block between a -inf and a +inf sentinel, so every step below is
    one array operation over all m * n_mis recipients; a recipient's index
    range never leaves its own chain's block, and an index one past either
    end of it reads an infinite distance.
    """
    m, n_obs = eta_obs.shape
    n_mis, k = eta_mis.shape[1], operator.index(donors)
    if not 1 <= k <= n_obs:
        raise ValueError(f"donors={k} must lie in 1..{n_obs}")
    if n_mis == 0:
        return np.empty((m, 0), dtype=np.intp)
    order = np.zeros((m, n_obs + 2), dtype=np.intp)  # laid out as srt
    order[:, 1:-1] = np.argsort(eta_obs, axis=1, kind="stable")
    srt = np.empty((m, n_obs + 2))
    srt[:, 0], srt[:, -1] = -np.inf, np.inf
    srt[:, 1:-1] = np.take_along_axis(eta_obs, order[:, 1:-1], axis=1)
    srt, e = srt.ravel(), eta_mis.ravel()
    first = np.repeat(np.arange(m) * (n_obs + 2) + 1, n_mis)  # row 0 of a block

    # Binary lifting: each step adds 2^b to every count whose next 2^b rows
    # all lie below the recipient (a step that would pass the block reads
    # its +inf sentinel). n_left is the number of rows below, as a
    # left-sided ``searchsorted`` would give.
    n_left = np.zeros(m * n_mis, dtype=np.intp)
    for b in reversed(range(n_obs.bit_length())):
        t = np.minimum(n_left + (1 << b), n_obs + 1)
        n_left += (srt.take(first + (t - 1)) < e) << b
    at = first + n_left  # the first row at or right of each recipient

    def dist(j):
        return np.abs(srt[j] - e)

    def follow(rows, pred, lo, hi):
        """The first index in ``[lo, hi)`` of each of ``rows`` whose
        distance is ``pred(distance, d_k)``, else ``hi``."""
        ew, dw = e[rows], d_k[rows]
        return _first_true(lambda r, j: pred(np.abs(srt[j] - ew[r]), dw[r]), lo, hi)

    # Distances fall, then rise along the sorted rows: L[t] = dist(at - 1 - t)
    # and R[t] = dist(at + t) never decrease in t. The k nearest rows are
    # the i nearest on the left and the k - i nearest on the right, for the
    # least i from max(0, k - n_right) to i_max = min(k, n_left) with
    # L[i] >= R[k - 1 - i]. That test holds at i_max, by the sentinel or by
    # L[k] >= L[0] = R[-1], so binary lifting finds i in bit_length(k) steps
    # that never probe past i_max. Left of ``at`` a distance is e - srt and
    # right of it srt - e: the same value as |srt - e| to the bit, since
    # rounding is symmetric.
    i_max = np.minimum(n_left, k)
    i = np.maximum(n_left + (k - n_obs), 0)
    left_end, right_end = at - 1, at + (k - 1)
    for b in reversed(range(k.bit_length())):
        t = np.minimum(i + ((1 << b) - 1), i_max)
        i += (e - srt.take(left_end - t) < srt.take(right_end - t) - e) << b
    # The k nearest are [lo, hi); d_k is the larger of its end distances.
    lo = at - i
    hi = lo + k
    inner_l, inner_r = dist(lo), dist(hi - 1)
    d_k = np.maximum(inner_l, inner_r)
    # The rows closer than d_k are [lo_close, hi_close): [lo, hi) without
    # its ends at d_k. A second end row at d_k means a longer tie run.
    lo_close = lo + ((inner_l >= d_k) & (lo < at))
    hi_close = hi - ((inner_r >= d_k) & (hi > at))
    run = np.flatnonzero((lo_close < at) & (dist(lo_close) >= d_k))
    if run.size:
        lo_close[run] = follow(run, np.less, lo_close[run] + 1, at[run])
    run = np.flatnonzero((hi_close > at) & (dist(hi_close - 1) >= d_k))
    if run.size:
        hi_close[run] = follow(run, np.greater_equal, at[run], hi_close[run] - 1)
    # The rows within d_k are [lo, hi), widened where a tie at d_k runs on.
    run = np.flatnonzero(dist(lo - 1) <= d_k)
    if run.size:
        lo[run] = follow(run, np.less_equal, first[run], lo[run] - 1)
    run = np.flatnonzero(dist(hi) <= d_k)
    if run.size:
        hi[run] = follow(run, np.greater, hi[run] + 1, first[run] + n_obs)
    n_close = hi_close - lo_close

    u = np.concatenate([rng.integers(0, k, size=n_mis) for rng in rngs])
    pick = lo_close + u
    tied = np.flatnonzero(u >= n_close)
    n_c, v = n_close[tied], lo[tied]
    span = hi[tied] - v - n_c
    # A tie of one row draws 0 without consuming bits, so only the wider
    # ties go to the generators, and a chain with none makes no call.
    wide = np.flatnonzero(span > 1)
    cut = np.searchsorted(tied[wide], np.arange(m + 1) * n_mis).tolist()  # per chain
    for rng, a, b in zip(rngs, cut, cut[1:]):
        if b > a:
            v[wide[a:b]] += rng.integers(0, span[wide[a:b]])
    pick[tied] = np.where(v < lo_close[tied], v, v + n_c)
    return order.ravel()[pick].reshape(m, n_mis)


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
    observed predictions, so the ``donors`` nearest rows are the ``i``
    nearest left of a recipient's insertion point and the ``donors - i``
    nearest right of it, the rows within ``d_k`` one index range around
    them and the closer rows a range inside it. Bisection finds the
    insertion points and then ``i``: O(log n_obs) and O(log donors) passes
    over the recipients. Each range end then takes one comparison; only a
    tie at ``d_k`` that runs past it (duplicate predictions) is followed
    further, by bisection. Memory is O(n_mis + n_obs); time is
    O(n_obs log n_obs + n_mis log n_obs).
    """
    eta_obs = np.asarray(eta_obs, float)
    eta_mis = np.asarray(eta_mis, float)
    if not (np.isfinite(eta_obs).all() and np.isfinite(eta_mis).all()):
        raise ValueError("non-finite predictions to match on")
    return _pmm_donors(eta_obs[None], eta_mis[None], donors, [rng])[0]


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
    row counts. This is the engine's draw for a single chain.
    """
    rng = np.random.default_rng() if rng is None else rng
    y_obs, x_obs, x_mis = _one_chain(y_obs, x_obs, x_mis)
    n_obs = y_obs.shape[1]
    if donors > n_obs:
        raise ValueError(
            f"donors={donors} exceeds the {n_obs} observed rows available"
        )
    with _quiet_draws():
        return _first_chain(_draw(y_obs, x_obs, x_mis, donors, ridge, [rng]))


@dataclass(frozen=True)
class ImputationResult:
    """Completed copies plus per-sweep chain statistics.

    ``completed`` holds one (n, p) array per chain; they may be views into
    one stacked array. ``chain_means``/``chain_sds`` have shape
    (m, maxit, p) and are NaN for columns that were never imputed.
    ``fitted_models`` holds, per chain, the final-sweep point-estimate
    coefficients of each visited column (intercept first, then the other
    columns in storage order).
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


def _design(stack: np.ndarray, rows: np.ndarray, j: int) -> np.ndarray:
    """The (m, len(rows), p) C-contiguous design of column ``j`` for every
    chain, gathered in one ``take`` from ``stack`` (column 0 the intercept,
    columns 1..p the working values): the intercept, then the other columns
    in storage order."""
    m, _, q = stack.shape
    cols = [c for c in range(q) if c != j + 1]
    return stack.reshape(m, -1).take(rows[:, None] * q + cols, axis=1)


def fcs_impute(x: DataMatrix, cfg: ImputationConfig) -> ImputationResult:
    """Multiply impute ``x`` by fully conditional specification.

    The m chains advance together: every sweep visits each incomplete
    column once and draws it for all chains (:func:`_draw`). Chain ``c``
    draws from the generator of ``SeedSequence(seed).spawn(m)[c]``, so its
    values do not depend on the other chains.

    Every error it raises is a ``ValueError``, since each follows from the
    data and ``cfg``: :class:`UnimputableColumnError` when a column has
    missing cells but no observed values among non-ignored rows, and a
    plain ``ValueError`` on an invalid ``cfg`` or non-finite observed input.
    A draw that fails aborts the run, naming the column and sweep: a
    singular design raises :class:`CollinearityError` with the collinear
    design columns, a non-finite draw :class:`NonFiniteDrawError` with the
    chain. When several chains fail, the error is the one at the first
    (sweep, column) at which any chain fails, for the lowest such chain.
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
    fit_rows = {j: np.flatnonzero((~ignore) & observed_cells[:, j]) for j in visit}
    mis_rows = {j: np.flatnonzero(imputable[:, j]) for j in visit}
    for j in visit:
        if not fit_rows[j].size:
            raise UnimputableColumnError(j, x.col_names[j])

    seed_seq = (
        cfg.seed
        if isinstance(cfg.seed, np.random.SeedSequence)
        else np.random.SeedSequence(cfg.seed)
    )
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(cfg.m)]

    # Every chain lives in one (m, n, 1 + p) array: column 0 holds the
    # intercept of every design, and ``work`` views the working values.
    stack = np.empty((cfg.m, n, 1 + p))
    stack[..., 0] = 1.0
    work = stack[..., 1:]
    work[:] = x.values
    logical_cells = logical == 1
    for j in range(p):
        if logical_cells[:, j].any():
            pool = x.values[(~ignore) & observed_cells[:, j], j]
            if pool.size == 0:
                pool = x.values[observed_cells[:, j], j]
            work[:, logical_cells[:, j], j] = pool.mean() if pool.size else 0.0
    for c, rng in enumerate(rngs):
        for j in visit:
            work[c, mis_rows[j], j] = rng.choice(
                x.values[fit_rows[j], j], size=mis_rows[j].size
            )

    chain_means = np.full((cfg.m, cfg.maxit, p), np.nan)
    chain_sds = np.full((cfg.m, cfg.maxit, p), np.nan)
    fitted: tuple[dict[int, np.ndarray], ...] = tuple({} for _ in rngs)
    with _quiet_draws():
        for it in range(cfg.maxit):
            for j in visit:
                rows, mis = fit_rows[j], mis_rows[j]
                # Sparse columns can have fewer observed rows than the requested
                # pool; matching still works with what exists.
                donors = None if cfg.method == "norm" else min(cfg.donors, rows.size)
                draw = _draw(np.take(work[..., j], rows, axis=1),
                             _design(stack, rows, j), _design(stack, mis, j),
                             donors, cfg.ridge, rngs,
                             f" for column {x.col_names[j]!r} at sweep {it + 1}")
                work[:, mis, j] = draw.values
                chain_means[:, it, j] = draw.values.mean(axis=1)
                if mis.size >= 2:
                    chain_sds[:, it, j] = draw.values.std(axis=1, ddof=1)
                if it == cfg.maxit - 1:
                    for models, beta in zip(fitted, draw.beta_hat):
                        models[j] = beta
    work[:, logical_cells] = np.nan

    return ImputationResult(
        completed=tuple(work),
        chain_means=chain_means,
        chain_sds=chain_sds,
        fitted_models=fitted,
        visited_columns=visit,
        col_names=x.col_names,
    )


@dataclass(frozen=True)
class ChainDiagnostics:
    """Long-format imputation traces."""

    # Header of the diagnostics CSV: one name per field of a row.
    columns: ClassVar[tuple[str, ...]] = ("chain", "iteration", "column", "mean", "sd")
    rows: tuple[tuple[int, int, str, float, float], ...]


def chain_diagnostics(result: ImputationResult) -> ChainDiagnostics:
    """Tabulate per-sweep means/sds of the imputed cells per chain.

    Columns with no imputed cells produce no rows.
    """
    m, maxit, _ = result.chain_means.shape
    return ChainDiagnostics(tuple(
        (chain, it + 1, result.col_names[j], float(result.chain_means[chain, it, j]),
         float(result.chain_sds[chain, it, j]))
        for chain in range(m) for it in range(maxit) for j in result.visited_columns))
