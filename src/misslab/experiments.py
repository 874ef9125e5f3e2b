"""The three simulation studies, reproducible end to end at any scale.

* Study 1 (prediction): draw correlated Gaussian data, impose each named
  missingness structure on training and (optionally) test rows, impute by
  chained equations with predictive mean matching, fit the linear analysis
  model per imputation, and score pooled test predictions by MSE. One
  imputation per structure scores both test settings.
* Study 2 (inference, at-random structure): a three-variable chain where
  the third column's missingness depends on the second column's indicator
  with weight ``q``; bias and coverage of an analysis-model slope under
  Bayesian-normal imputation at two sweep budgets.
* Study 3 (inference, not-at-random structure): a latent driver makes the
  standard chained-equations route biased, while a single-pass regression
  on the first column's fully observed *indicator* recovers the mean.

Each study is declared once, as an entry of ``_STUDIES``: the config fields
it reads (in manifest order), its grid key columns, its result and summary
value columns, its replicate and summary functions, its manifest notes and,
for the inference studies, the spec and taxonomy label checked at each
``q``. One function runs every study: validate the fields it reads, check the
labels, map the replicates, sort the rows by key, summarise each grid point
and write the manifest.

Every output value is a pure function of (config, seed): replicate seeds
derive from labelled seed sequences, replicates may run in parallel, and
rows are emitted in a deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .analyzer import pairwise_dependence
from .builtins import BUILTIN_NAMES, builtin_structures, sim2_spec, sim3_spec
from .impute import ImputationConfig, fcs_impute
from .inference import ols_fit, pool, predict_mse, replicate_metrics
from .mechanisms import (
    MechanismSpec,
    SpecificationError,
    classify,
    field_types,
    read_typed,
    simulate_mask,
)
from .tabular import DataMatrix, MissMask, default_names, format_cell, write_table

EXPERIMENT_IDS = ("sim1", "sim2", "sim3")

SIM2_TRUE_SLOPE = 2.0
SIM3_TRUE_MEAN = 1.0

SIM3_TRUTH_NOTE = (
    "estimand truth: E[X2] = 1 + E[Z] + 2*E[X1] = 1 by linearity of the "
    "generative model; any quoted true value of 0 for this design is "
    "inconsistent with that model and is not used"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and seed settings for one experiment run."""

    experiment: str
    n_replicates: int = 200
    seed: int = 0
    out_dir: str | Path | None = None
    threads: int = 1
    m: int = 5
    # prediction study
    n_train: int = 100
    n_test: int = 1000
    p: int = 10
    rho_list: tuple[float, ...] = (0.0, 0.4)
    structures: tuple[str, ...] = BUILTIN_NAMES
    maxit: int = 5
    donors: int = 5
    missing_rate: float = 0.45
    # inference studies
    n: int = 1000
    q_grid: tuple[float, ...] | None = None
    maxit_list: tuple[int, ...] = (5, 50)
    sim3_maxit: int = 50

    def __post_init__(self):
        # Fields may come from JSON overrides. Check each against its
        # annotation by the spec file rule, naming it, and store float fields
        # as floats so that 0 and 0.0 write the same bytes.
        for name, kind in field_types(ExperimentConfig).values():
            if name != "out_dir":
                object.__setattr__(self, name, read_typed(kind, getattr(self, name), name))

    def validate(self) -> None:
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"choose one of {', '.join(EXPERIMENT_IDS)}"
            )
        # Only the fields this study reads are checked, ahead of any replicate.
        read = _STUDIES[self.experiment].fields
        for name in ("n_replicates", "threads", "m", "n_train", "n_test", "n"):
            if name in read and getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if "p" in read and self.p < 2:
            raise ValueError("p must be >= 2")
        if {"n_train", "p"} <= set(read) and self.n_train < self.p + 1:
            raise ValueError(f"n_train={self.n_train} is below p + 1 = {self.p + 1}: "
                             "each fit has p + 1 coefficients")
        if self.experiment in ("sim2", "sim3") and self.m < 2:
            raise ValueError(
                f"m must be >= 2 for {self.experiment}: pooling needs at least "
                "two imputations"
            )
        for rho in (self.rho_list if "rho_list" in read else ()):
            if not (-1.0 / (self.p - 1) < rho < 1.0):
                raise ValueError(
                    f"rho={rho} outside (-1/(p-1), 1); covariance not positive "
                    "definite"
                )
        for name in (self.structures if "structures" in read else ()):
            if name not in BUILTIN_NAMES:
                raise ValueError(f"unknown structure {name!r}")
        for q in (self.effective_q_grid() if "q_grid" in read else ()):
            if not (0.0 <= q <= 1.0):
                raise ValueError(f"q={q} outside [0, 1]")
        for name in ("rho_list", "structures", "q_grid", "maxit_list"):
            values = getattr(self, name)
            if name not in read or values is None:
                continue
            if values == ():
                raise ValueError(f"{name} must list at least one value")
            # A repeat would run a grid cell twice under one key.
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"{name} lists {repeats[0]!r} more than once")
        for name in ("maxit", "donors", "sim3_maxit"):
            if name in read and getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if "maxit_list" in read and min(self.maxit_list) < 1:
            raise ValueError("maxit_list entries must be positive integers")
        for name in (self.structures if "missing_rate" in read else ()):
            try:
                builtin_structures(name, self.p, self.missing_rate)
            except SpecificationError as exc:
                raise ValueError(f"missing_rate={self.missing_rate} for "
                                 f"structure {name}: {exc}") from None

    def effective_q_grid(self) -> tuple[float, ...]:
        if self.q_grid is not None:
            return self.q_grid
        if self.experiment == "sim2":
            return tuple(round(0.1 * i, 1) for i in range(11))
        return (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class ExperimentOutput:
    results: list[dict]
    summary: list[dict]
    manifest: str


def _seed_seq(cfg: ExperimentConfig, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [cfg.seed, EXPERIMENT_IDS.index(cfg.experiment) + 1, *[int(v) for v in path]]
    )


def _compound_symmetry_chol(p: int, rho: float) -> np.ndarray:
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return np.linalg.cholesky(sigma)


def _study_cell(cell: str, fn, *args):
    """``fn(*args)`` for one study cell. The studies draw data that their
    models can use at any large enough size, so a ``ValueError`` here (a
    column never observed, a singular design such as an indicator constant
    where its target is observed, or fewer rows than coefficients to fit) is
    a problem of the configured size: it is raised again naming the cell."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{cell}: {exc}; the sample is too small for this model") from None


# ---------------------------------------------------------------------------
# Study 1: prediction error across missingness structures
# ---------------------------------------------------------------------------


_SIM1_SETTINGS = ("complete", "missing")


def _sim1_cell(
    x: np.ndarray,
    y: np.ndarray,
    mask_bits: np.ndarray,
    name: str,
    cfg: ExperimentConfig,
    impute_seed: np.random.SeedSequence,
    cell: str,
) -> dict[str, float]:
    """Test MSE under each setting of one (rho, structure) cell; ``cell``
    names the cell in errors, with ``{}`` for the test setting.

    Test rows are ignored by the imputation, so the training completions
    have the same law whether or not the test rows have missing cells: one
    imputation of the "missing" setting scores both settings, predicting
    the completed test rows for "missing" and the observed ones for
    "complete". Deletion structures and a setting with no missing cell are
    fitted by OLS per setting.
    """
    n_train = cfg.n_train
    complete_test = mask_bits.copy()
    complete_test[n_train:, :] = 0
    settings = dict(zip(_SIM1_SETTINGS, (complete_test, mask_bits)))
    mse = {
        setting: _study_cell(cell.format(setting), _sim1_ols_mse, x, y, bits, n_train)
        for setting, bits in settings.items()
        if name in ("complete", "unit_block") or not bits.any()
    }
    if len(mse) < len(settings):
        imputed = _study_cell(cell.format("missing"), _sim1_imputed_mse, x, y,
                              mask_bits, cfg, impute_seed)
        mse = {**imputed, **mse}
    return mse


def _sim1_ols_mse(x: np.ndarray, y: np.ndarray, bits: np.ndarray, n_train: int) -> float:
    # Fully missing subjects, which only unit_block has, are dropped, not
    # imputed.
    keep = ~bits.all(axis=1)
    train = np.flatnonzero(keep[:n_train])
    test = n_train + np.flatnonzero(keep[n_train:])
    for rows, kept in (("training", train), ("test", test)):
        if not kept.size:
            raise ValueError(f"every {rows} row is fully missing")
    fit = ols_fit(y[train], _with_intercept(x[train]))
    pred = fit.predict(_with_intercept(x[test]))
    return float(np.mean((pred - y[test]) ** 2))


def _sim1_imputed_mse(
    x: np.ndarray,
    y: np.ndarray,
    bits: np.ndarray,
    cfg: ExperimentConfig,
    impute_seed: np.random.SeedSequence,
) -> dict[str, float]:
    n_train = cfg.n_train
    n = x.shape[0]
    dm = DataMatrix(x, MissMask(bits), default_names(cfg.p))
    ignore = np.zeros(n, dtype=bool)
    ignore[n_train:] = True
    impcfg = ImputationConfig(
        m=cfg.m,
        maxit=cfg.maxit,
        method="pmm",
        donors=cfg.donors,
        ignore=tuple(ignore),
        seed=impute_seed,
    )
    result = fcs_impute(dm, impcfg)
    observed_test = _with_intercept(x[n_train:])
    preds = {setting: np.empty((cfg.m, n - n_train)) for setting in _SIM1_SETTINGS}
    for k, completed in enumerate(result.completed):
        fit = ols_fit(y[:n_train], _with_intercept(completed[:n_train]))
        preds["complete"][k] = fit.predict(observed_test)
        preds["missing"][k] = fit.predict(_with_intercept(completed[n_train:]))
    return {setting: predict_mse(p, y[n_train:]) for setting, p in preds.items()}


def _with_intercept(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.shape[0]), x])


def _sim1_data(cfg: ExperimentConfig, rho_idx: int, rep: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) of one replicate at ``cfg.rho_list[rho_idx]``."""
    n = cfg.n_train + cfg.n_test
    rng = np.random.default_rng(_seed_seq(cfg, rho_idx, rep, 0))
    chol = _compound_symmetry_chol(cfg.p, cfg.rho_list[rho_idx])
    x = rng.standard_normal((n, cfg.p)) @ chol.T
    y = x.sum(axis=1) + 2.0 * rng.standard_normal(n)
    return x, y


def _sim1_replicate(cfg: ExperimentConfig, rep: int) -> list[dict]:
    rows: list[dict] = []
    specs = {
        name: builtin_structures(name, cfg.p, cfg.missing_rate)
        for name in cfg.structures
    }
    for rho_idx, rho in enumerate(cfg.rho_list):
        x, y = _sim1_data(cfg, rho_idx, rep)
        for s_idx, name in enumerate(cfg.structures):
            mask = simulate_mask(specs[name], x, _seed_seq(cfg, rho_idx, rep, 1, s_idx))
            # The cell's one imputation draws from the stream of the
            # "missing" setting (last index 1); index 0 is not used.
            mse = _sim1_cell(
                x, y, mask.bits, name, cfg, _seed_seq(cfg, rho_idx, rep, 2, s_idx, 1),
                f"study 1 at n_train={cfg.n_train}, rho={rho}, structure {name}, "
                f"test rows {{}}, replicate {rep}",
            )
            rows.extend({"rho": rho, "structure": name, "test_missingness": setting,
                         "replicate": rep, "mse": mse[setting]}
                        for setting in _SIM1_SETTINGS)
    return rows


def _mse_stats(group: list[dict]) -> dict:
    mse = [r["mse"] for r in group]
    return {"median_mse": _median(mse), "mean_mse": float(np.mean(mse)), "n_rep": len(mse)}


def _median(values: list[float]) -> float:
    """``np.median``'s value and arithmetic (the middle value, or the mean
    of the two middle values), without the ``numpy.ma`` import it costs."""
    s = sorted(values)
    half = len(s) // 2
    return float(s[half] if len(s) % 2 else (s[half - 1] + s[half]) / 2)


# ---------------------------------------------------------------------------
# Studies 2 and 3: bias and coverage of a pooled estimate
# ---------------------------------------------------------------------------


def _check_label(spec: MechanismSpec, context: str) -> None:
    got, declared = classify(spec), spec.declared_label
    if got != declared:
        raise SpecificationError(
            f"{context}: spec classifies as {got} but {declared} was declared"
        )


def _pooled_cell(cell: str, dm: DataMatrix, cfg: ExperimentConfig, maxit: int,
                 seed: np.random.SeedSequence, estimand) -> dict:
    """One inference cell: norm-impute ``dm``, take ``estimand(completed)``,
    an (estimate, variance) pair, on each completed copy and pool them."""
    impcfg = ImputationConfig(m=cfg.m, maxit=maxit, method="norm", seed=seed)
    pe = _study_cell(
        cell, lambda: pool(*zip(*map(estimand, fcs_impute(dm, impcfg).completed)))
    )
    return {"estimate": pe.estimate, "ci_low": pe.ci_low, "ci_high": pe.ci_high}


def _sim2_slope(completed: np.ndarray) -> tuple[float, float]:
    fit = ols_fit(completed[:, 2], _with_intercept(completed[:, :2]))
    return float(fit.coef[2]), float(fit.cov[2, 2])


def _sim2_replicate(cfg: ExperimentConfig, rep: int) -> list[dict]:
    rows: list[dict] = []
    n = cfg.n
    for q_idx, q in enumerate(cfg.effective_q_grid()):
        rng = np.random.default_rng(_seed_seq(cfg, q_idx, rep, 0))
        x1 = rng.standard_normal(n)
        x2 = 2.0 * x1 + rng.standard_normal(n)
        x3 = 1.0 + x1 + 2.0 * x2 + rng.standard_normal(n)
        x = np.column_stack([x1, x2, x3])
        mask = simulate_mask(sim2_spec(q), x, _seed_seq(cfg, q_idx, rep, 1))
        dm = DataMatrix(x, mask, ("X1", "X2", "X3"))
        for m_idx, maxit in enumerate(cfg.maxit_list):
            pooled = _pooled_cell(
                f"study 2 at n={n}, q={q}, replicate {rep}, maxit {maxit}", dm, cfg,
                maxit, _seed_seq(cfg, q_idx, rep, 2, m_idx), _sim2_slope,
            )
            rows.append({"q": q, "maxit": maxit, "replicate": rep, **pooled})
    return rows


def _sim3_mean(completed: np.ndarray) -> tuple[float, float]:
    col = completed[:, 1]
    return float(col.mean()), float(col.var(ddof=1) / len(col))


def _sim3_replicate(cfg: ExperimentConfig, rep: int) -> list[dict]:
    rows: list[dict] = []
    n = cfg.n
    for q_idx, q in enumerate(cfg.effective_q_grid()):
        rng = np.random.default_rng(_seed_seq(cfg, q_idx, rep, 0))
        z = rng.standard_normal(n)
        x1 = 2.0 * z + rng.standard_normal(n)
        x2 = 1.0 + z + 2.0 * x1 + rng.standard_normal(n)
        full = np.column_stack([z, x1, x2])
        mask = simulate_mask(sim3_spec(q), full, _seed_seq(cfg, q_idx, rep, 1))
        # The analyst never sees the latent column.
        analyst = DataMatrix(full[:, 1:], MissMask(mask.bits[:, 1:]), ("X1", "X2"))
        sign = pairwise_dependence(analyst.missing).pair(0, 1).sign
        # The indicator route regresses X2 on the fully observed M1 in one pass.
        indicator = DataMatrix(
            np.column_stack([mask.bits[:, 1].astype(float), full[:, 2]]),
            MissMask(np.column_stack([np.zeros(n, dtype=np.uint8), mask.bits[:, 2]])),
            ("M1", "X2"),
        )
        for a_idx, (approach, dm, maxit) in enumerate((
            ("fcs_on_values", analyst, cfg.sim3_maxit),
            ("regress_on_indicator", indicator, 1),
        )):
            pooled = _pooled_cell(
                f"study 3 at n={n}, q={q}, replicate {rep}, approach {approach}", dm,
                cfg, maxit, _seed_seq(cfg, q_idx, rep, 2, a_idx), _sim3_mean,
            )
            rows.append({"q": q, "approach": approach, "replicate": rep, **pooled,
                         "m1_m2_sign": sign})
    return rows


def _bias_coverage(group: list[dict], truth: float) -> dict:
    rec = replicate_metrics(
        *([r[c] for r in group] for c in ("estimate", "ci_low", "ci_high")), truth
    )
    return {"bias": rec.bias, "coverage": rec.coverage, "mse": rec.mse,
            "n_rep": rec.n_replicates}


def _sim3_stats(group: list[dict]) -> dict:
    values, counts = np.unique([r["m1_m2_sign"] for r in group], return_counts=True)
    return {**_bias_coverage(group, SIM3_TRUE_MEAN),
            "modal_sign": str(values[counts.argmax()])}


# ---------------------------------------------------------------------------
# The study table and the one runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Study:
    fields: tuple[str, ...]  # config fields read, in manifest order
    keys: tuple[str, ...]  # grid columns; results sort by these, then replicate
    values: tuple[str, ...]  # result columns after the replicate
    stats: tuple[str, ...]  # summary columns after the keys
    replicate: Callable[[ExperimentConfig, int], list[dict]]
    summarise: Callable[[list[dict]], dict]  # one grid point's rows -> stats
    notes: tuple[str, ...] = ()
    # The mechanism at each q, checked against the label it declares.
    spec: Callable[[float], MechanismSpec] | None = None
    # Summary row order, from the config; by default the sorted keys.
    order: Callable[[ExperimentConfig], Iterable[tuple]] | None = None


_COMMON_FIELDS = ("n_replicates", "seed", "threads", "m")
_POOLED = ("estimate", "ci_low", "ci_high")
_BIAS_COVERAGE = ("bias", "coverage", "mse", "n_rep")
_STUDIES = {
    "sim1": _Study(
        _COMMON_FIELDS + ("n_train", "n_test", "p", "rho_list", "structures",
                          "maxit", "donors", "missing_rate"),
        ("rho", "structure", "test_missingness"), ("mse",),
        ("median_mse", "mean_mse", "n_rep"), _sim1_replicate, _mse_stats,
        order=lambda cfg: product(cfg.rho_list, cfg.structures, _SIM1_SETTINGS),
    ),
    "sim2": _Study(
        _COMMON_FIELDS + ("n", "q_grid", "maxit_list"), ("q", "maxit"), _POOLED,
        _BIAS_COVERAGE, _sim2_replicate, partial(_bias_coverage, truth=SIM2_TRUE_SLOPE),
        notes=(f"analysis slope truth = {SIM2_TRUE_SLOPE}",),
        spec=sim2_spec,
    ),
    "sim3": _Study(
        _COMMON_FIELDS + ("n", "q_grid", "sim3_maxit"), ("q", "approach"),
        _POOLED + ("m1_m2_sign",), _BIAS_COVERAGE + ("modal_sign",), _sim3_replicate,
        _sim3_stats, notes=(SIM3_TRUTH_NOTE,), spec=sim3_spec,
    ),
}


def _run(cfg: ExperimentConfig, experiment: str) -> ExperimentOutput:
    cfg = replace(cfg, experiment=experiment)
    cfg.validate()
    study = _STUDIES[experiment]
    if study.spec is not None:
        for q in cfg.effective_q_grid():
            _check_label(study.spec(q),
                         f"study {EXPERIMENT_IDS.index(experiment) + 1} at q={q}")
    rows = _map_replicates(study.replicate, cfg)
    rows.sort(key=lambda r: (*(r[k] for k in study.keys), r["replicate"]))
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in study.keys), []).append(r)
    summary = [
        {**dict(zip(study.keys, key)), **study.summarise(groups[key])}
        for key in (study.order(cfg) if study.order else groups)
    ]
    return ExperimentOutput(rows, summary, _manifest(cfg))


def run_sim1(cfg: ExperimentConfig) -> ExperimentOutput:
    """Prediction study: MSE per (rho, structure, test setting, replicate)."""
    return _run(cfg, "sim1")


def run_sim2(cfg: ExperimentConfig) -> ExperimentOutput:
    """At-random structure study: slope estimates per (q, maxit, replicate)."""
    return _run(cfg, "sim2")


def run_sim3(cfg: ExperimentConfig) -> ExperimentOutput:
    """Not-at-random structure study: mean estimates per (q, approach)."""
    return _run(cfg, "sim3")


def _map_replicates(fn, cfg: ExperimentConfig) -> list[dict]:
    reps = range(cfg.n_replicates)
    if cfg.threads <= 1 or cfg.n_replicates == 1:
        chunks = [fn(cfg, rep) for rep in reps]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.threads) as pool_:
            chunks = list(pool_.map(fn, [cfg] * cfg.n_replicates, reps))
    return [row for chunk in chunks for row in chunk]


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    if cfg.experiment not in EXPERIMENT_IDS:
        cfg.validate()  # a ValueError naming the choices, not a failed lookup
    # Looked up by module global at call time, so that a wrapper installed
    # over run_simN (as the benchmark's tracer does) is what runs.
    output = globals()[f"run_{cfg.experiment}"](cfg)
    if cfg.out_dir is not None:
        write_outputs(cfg, output)
    return output


def write_outputs(cfg: ExperimentConfig, output: ExperimentOutput) -> list[Path]:
    study = _STUDIES[cfg.experiment]
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    tables = [("results", (*study.keys, "replicate", *study.values), output.results)]
    if output.summary:
        tables.append(("summary", study.keys + study.stats, output.summary))
    for kind, columns, rows in tables:
        path = out_dir / f"{cfg.experiment}_{kind}.csv"
        write_table(path, columns, ([r[c] for c in columns] for r in rows))
        paths.append(path)
    manifest_path = out_dir / "manifest.txt"
    manifest_path.write_text(output.manifest)
    paths.append(manifest_path)
    return paths


def _manifest(cfg: ExperimentConfig) -> str:
    study = _STUDIES[cfg.experiment]
    lines = [
        f"experiment: {cfg.experiment}",
        f"code_version: misslab {__version__}",
        "config:",
    ]
    for name in study.fields:
        value = cfg.effective_q_grid() if name == "q_grid" else getattr(cfg, name)
        if isinstance(value, tuple):
            value = ", ".join(format_cell(v) for v in value)
        lines.append(f"  {name}: {format_cell(value)}")
    if study.notes:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in study.notes)
    return "\n".join(lines) + "\n"
