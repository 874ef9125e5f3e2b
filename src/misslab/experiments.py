"""The three simulation studies, reproducible end to end at any scale.

* Study 1 (prediction): draw correlated Gaussian data, impose each named
  missingness structure on training and (optionally) test rows, impute by
  chained equations with predictive mean matching, fit the linear analysis
  model per imputation, and score pooled test predictions by MSE.
* Study 2 (inference, at-random structure): a three-variable chain where
  the third column's missingness depends on the second column's indicator
  with weight ``q``; bias and coverage of an analysis-model slope under
  Bayesian-normal imputation at two sweep budgets.
* Study 3 (inference, not-at-random structure): a latent driver makes the
  standard chained-equations route biased, while a single-pass regression
  on the first column's fully observed *indicator* recovers the mean.

Every output value is a pure function of (config, seed): replicate seeds
derive from labelled seed sequences, replicates may run in parallel, and
rows are emitted in a deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import pairwise_dependence
from .builtins import BUILTIN_NAMES, builtin_structures
from .fixtures import sim2_label, sim2_spec, sim3_label, sim3_spec
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

_SIM_TAG = {"sim1": 1, "sim2": 2, "sim3": 3}

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
        for name in ("n_replicates", "threads", "m", "n_train", "n_test", "n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.experiment in ("sim2", "sim3") and self.m < 2:
            raise ValueError(
                f"m must be >= 2 for {self.experiment}: pooling needs at least "
                "two imputations"
            )
        for rho in self.rho_list:
            if not (-1.0 / (self.p - 1) < rho < 1.0):
                raise ValueError(
                    f"rho={rho} outside (-1/(p-1), 1); covariance not positive "
                    "definite"
                )
        for name in self.structures:
            if name not in BUILTIN_NAMES:
                raise ValueError(f"unknown structure {name!r}")
        if self.q_grid is not None:
            for q in self.q_grid:
                if not (0.0 <= q <= 1.0):
                    raise ValueError(f"q={q} outside [0, 1]")
        # Checks of the fields this study reads, ahead of any replicate.
        read = _MANIFEST_FIELDS[self.experiment]
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
        if "missing_rate" in read:
            for name in self.structures:
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


# The config fields each study reads, in manifest order.
_COMMON_FIELDS = ("n_replicates", "seed", "threads", "m")
_MANIFEST_FIELDS = {
    "sim1": _COMMON_FIELDS + ("n_train", "n_test", "p", "rho_list", "structures",
                              "maxit", "donors", "missing_rate"),
    "sim2": _COMMON_FIELDS + ("n", "q_grid", "maxit_list"),
    "sim3": _COMMON_FIELDS + ("n", "q_grid", "sim3_maxit"),
}


@dataclass
class ExperimentOutput:
    results: list[dict]
    summary: list[dict]
    manifest: str
    result_columns: tuple[str, ...]
    summary_columns: tuple[str, ...]


def _seed_seq(cfg: ExperimentConfig, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [cfg.seed, _SIM_TAG[cfg.experiment], *[int(v) for v in path]]
    )


def _compound_symmetry_chol(p: int, rho: float) -> np.ndarray:
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return np.linalg.cholesky(sigma)


def _study_cell(cell: str, fn, *args):
    """``fn(*args)`` for one study cell. The studies draw data that their
    models can use at any large enough size, so a ``ValueError`` here (a
    column never observed, a singular design such as an indicator constant
    where its target is observed, or no rows left to fit or score) is a
    problem of the configured size: it is raised again naming the cell."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{cell}: {exc}; the sample is too small for this model") from None


# ---------------------------------------------------------------------------
# Study 1: prediction error across missingness structures
# ---------------------------------------------------------------------------


def _sim1_cell(
    x: np.ndarray,
    y: np.ndarray,
    mask_bits: np.ndarray,
    name: str,
    test_missing: bool,
    cfg: ExperimentConfig,
    impute_seed: np.random.SeedSequence,
) -> float:
    n_train = cfg.n_train
    n = x.shape[0]
    bits = mask_bits.copy()
    if not test_missing:
        bits[n_train:, :] = 0

    if name in ("complete", "unit_block") or not bits.any():
        # Fully missing subjects, which only unit_block has, are dropped,
        # not imputed.
        keep = ~bits.all(axis=1)
        train = np.flatnonzero(keep[:n_train])
        test = n_train + np.flatnonzero(keep[n_train:])
        for rows, kept in (("training", train), ("test", test)):
            if not kept.size:
                raise ValueError(f"every {rows} row is fully missing")
        fit = ols_fit(y[train], _with_intercept(x[train]))
        pred = fit.predict(_with_intercept(x[test]))
        return float(np.mean((pred - y[test]) ** 2))

    dm = DataMatrix(x.copy(), MissMask(bits), default_names(cfg.p))
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
    preds = np.empty((cfg.m, n - n_train))
    for k, completed in enumerate(result.completed):
        fit = ols_fit(y[:n_train], _with_intercept(completed[:n_train]))
        preds[k] = fit.predict(_with_intercept(completed[n_train:]))
    return predict_mse(preds, y[n_train:])


def _with_intercept(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.shape[0]), x])


def _sim1_replicate(cfg: ExperimentConfig, rep: int) -> list[dict]:
    rows: list[dict] = []
    specs = {
        name: builtin_structures(name, cfg.p, cfg.missing_rate)
        for name in cfg.structures
    }
    n = cfg.n_train + cfg.n_test
    for rho_idx, rho in enumerate(cfg.rho_list):
        rng = np.random.default_rng(_seed_seq(cfg, rho_idx, rep, 0))
        chol = _compound_symmetry_chol(cfg.p, rho)
        x = rng.standard_normal((n, cfg.p)) @ chol.T
        y = x.sum(axis=1) + 2.0 * rng.standard_normal(n)
        for s_idx, name in enumerate(cfg.structures):
            mask = simulate_mask(
                specs[name], x, _seed_seq(cfg, rho_idx, rep, 1, s_idx)
            )
            for t_idx, test_missing in enumerate((False, True)):
                setting = "missing" if test_missing else "complete"
                mse = _study_cell(
                    f"study 1 at n_train={cfg.n_train}, rho={rho}, structure "
                    f"{name}, test rows {setting}, replicate {rep}",
                    _sim1_cell,
                    x,
                    y,
                    mask.bits,
                    name,
                    test_missing,
                    cfg,
                    _seed_seq(cfg, rho_idx, rep, 2, s_idx, t_idx),
                )
                rows.append(
                    {
                        "rho": rho,
                        "structure": name,
                        "test_missingness": setting,
                        "replicate": rep,
                        "mse": mse,
                    }
                )
    return rows


def run_sim1(cfg: ExperimentConfig) -> ExperimentOutput:
    """Prediction study: MSE per (rho, structure, test setting, replicate)."""
    cfg = replace(cfg, experiment="sim1")
    cfg.validate()
    rows = _map_replicates(_sim1_replicate, cfg)
    rows.sort(
        key=lambda r: (r["rho"], r["structure"], r["test_missingness"], r["replicate"])
    )
    summary: list[dict] = []
    for rho in cfg.rho_list:
        for name in cfg.structures:
            for setting in ("complete", "missing"):
                sel = [
                    r["mse"]
                    for r in rows
                    if r["rho"] == rho
                    and r["structure"] == name
                    and r["test_missingness"] == setting
                ]
                summary.append(
                    {
                        "rho": rho,
                        "structure": name,
                        "test_missingness": setting,
                        "median_mse": float(np.median(sel)),
                        "mean_mse": float(np.mean(sel)),
                        "n_rep": len(sel),
                    }
                )
    manifest = _manifest(cfg, notes=())
    return ExperimentOutput(
        rows,
        summary,
        manifest,
        ("rho", "structure", "test_missingness", "replicate", "mse"),
        ("rho", "structure", "test_missingness", "median_mse", "mean_mse", "n_rep"),
    )


# ---------------------------------------------------------------------------
# Study 2: slope bias/coverage under at-random indicator structure
# ---------------------------------------------------------------------------


def _check_label(spec: MechanismSpec, expected, context: str) -> None:
    got = classify(spec)
    if got != expected:
        raise SpecificationError(
            f"{context}: spec classifies as {got} but {expected} was declared"
        )


def _sim2_replicate(cfg: ExperimentConfig, rep: int) -> list[dict]:
    rows: list[dict] = []
    q_grid = cfg.effective_q_grid()
    for q_idx, q in enumerate(q_grid):
        spec = sim2_spec(q)
        rng = np.random.default_rng(_seed_seq(cfg, q_idx, rep, 0))
        n = cfg.n
        x1 = rng.standard_normal(n)
        x2 = 2.0 * x1 + rng.standard_normal(n)
        x3 = 1.0 + x1 + 2.0 * x2 + rng.standard_normal(n)
        x = np.column_stack([x1, x2, x3])
        mask = simulate_mask(spec, x, _seed_seq(cfg, q_idx, rep, 1))
        dm = DataMatrix(x.copy(), mask, ("X1", "X2", "X3"))
        for m_idx, maxit in enumerate(cfg.maxit_list):
            result = _study_cell(
                f"study 2 at n={n}, q={q}, replicate {rep}, maxit {maxit}",
                fcs_impute,
                dm,
                ImputationConfig(
                    m=cfg.m,
                    maxit=maxit,
                    method="norm",
                    seed=_seed_seq(cfg, q_idx, rep, 2, m_idx),
                ),
            )
            estimates, variances = [], []
            for completed in result.completed:
                fit = ols_fit(
                    completed[:, 2], _with_intercept(completed[:, :2])
                )
                estimates.append(float(fit.coef[2]))
                variances.append(float(fit.cov[2, 2]))
            pe = pool(estimates, variances)
            rows.append(
                {
                    "q": q,
                    "maxit": maxit,
                    "replicate": rep,
                    "estimate": pe.estimate,
                    "ci_low": pe.ci_low,
                    "ci_high": pe.ci_high,
                }
            )
    return rows


def run_sim2(cfg: ExperimentConfig) -> ExperimentOutput:
    """At-random structure study: slope estimates per (q, maxit, replicate)."""
    cfg = replace(cfg, experiment="sim2")
    cfg.validate()
    for q in cfg.effective_q_grid():
        _check_label(sim2_spec(q), sim2_label(q), f"study 2 at q={q}")
    rows = _map_replicates(_sim2_replicate, cfg)
    rows.sort(key=lambda r: (r["q"], r["maxit"], r["replicate"]))
    summary = _bias_coverage_summary(rows, keys=("q", "maxit"), truth=SIM2_TRUE_SLOPE)
    manifest = _manifest(cfg, notes=(f"analysis slope truth = {SIM2_TRUE_SLOPE}",))
    return ExperimentOutput(
        rows,
        summary,
        manifest,
        ("q", "maxit", "replicate", "estimate", "ci_low", "ci_high"),
        ("q", "maxit", "bias", "coverage", "mse", "n_rep"),
    )


# ---------------------------------------------------------------------------
# Study 3: exploiting indicator structure under a latent driver
# ---------------------------------------------------------------------------


def _sim3_replicate(cfg: ExperimentConfig, rep: int) -> list[dict]:
    rows: list[dict] = []
    n = cfg.n
    for q_idx, q in enumerate(cfg.effective_q_grid()):
        spec = sim3_spec(q)
        rng = np.random.default_rng(_seed_seq(cfg, q_idx, rep, 0))
        z = rng.standard_normal(n)
        x1 = 2.0 * z + rng.standard_normal(n)
        x2 = 1.0 + z + 2.0 * x1 + rng.standard_normal(n)
        full = np.column_stack([z, x1, x2])
        mask = simulate_mask(spec, full, _seed_seq(cfg, q_idx, rep, 1))
        # The analyst never sees the latent column.
        analyst_bits = mask.bits[:, 1:]
        analyst = DataMatrix(
            full[:, 1:].copy(), MissMask(analyst_bits), ("X1", "X2")
        )
        sign = pairwise_dependence(analyst.missing).pair(0, 1).sign

        for approach, dm, maxit in (
            ("fcs_on_values", analyst, cfg.sim3_maxit),
            (
                "regress_on_indicator",
                DataMatrix(
                    np.column_stack(
                        [mask.bits[:, 1].astype(float), full[:, 2]]
                    ),
                    MissMask(
                        np.column_stack(
                            [np.zeros(n, dtype=np.uint8), mask.bits[:, 2]]
                        )
                    ),
                    ("M1", "X2"),
                ),
                1,
            ),
        ):
            result = _study_cell(
                f"study 3 at n={n}, q={q}, replicate {rep}, approach {approach}",
                fcs_impute,
                dm,
                ImputationConfig(
                    m=cfg.m,
                    maxit=maxit,
                    method="norm",
                    seed=_seed_seq(
                        cfg, q_idx, rep, 2, 0 if approach == "fcs_on_values" else 1
                    ),
                ),
            )
            estimates, variances = [], []
            for completed in result.completed:
                col = completed[:, 1]
                estimates.append(float(col.mean()))
                variances.append(float(col.var(ddof=1) / n))
            pe = pool(estimates, variances)
            rows.append(
                {
                    "q": q,
                    "approach": approach,
                    "replicate": rep,
                    "estimate": pe.estimate,
                    "ci_low": pe.ci_low,
                    "ci_high": pe.ci_high,
                    "m1_m2_sign": sign,
                }
            )
    return rows


def run_sim3(cfg: ExperimentConfig) -> ExperimentOutput:
    """Not-at-random structure study: mean estimates per (q, approach)."""
    cfg = replace(cfg, experiment="sim3")
    cfg.validate()
    for q in cfg.effective_q_grid():
        _check_label(sim3_spec(q), sim3_label(q), f"study 3 at q={q}")
    rows = _map_replicates(_sim3_replicate, cfg)
    rows.sort(key=lambda r: (r["q"], r["approach"], r["replicate"]))
    summary = _bias_coverage_summary(rows, keys=("q", "approach"), truth=SIM3_TRUE_MEAN)
    for entry in summary:
        signs = [
            r["m1_m2_sign"]
            for r in rows
            if all(r[k] == entry[k] for k in ("q", "approach"))
        ]
        values, counts = np.unique(signs, return_counts=True)
        entry["modal_sign"] = str(values[counts.argmax()])
    manifest = _manifest(cfg, notes=(SIM3_TRUTH_NOTE,))
    return ExperimentOutput(
        rows,
        summary,
        manifest,
        ("q", "approach", "replicate", "estimate", "ci_low", "ci_high",
         "m1_m2_sign"),
        ("q", "approach", "bias", "coverage", "mse", "n_rep", "modal_sign"),
    )


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


def _bias_coverage_summary(rows, keys, truth) -> list[dict]:
    combos: dict[tuple, list[dict]] = {}
    for r in rows:
        combos.setdefault(tuple(r[k] for k in keys), []).append(r)
    out = []
    for combo, group in sorted(combos.items()):
        rec = replicate_metrics(
            *([g[c] for g in group] for c in ("estimate", "ci_low", "ci_high")), truth
        )
        entry = dict(zip(keys, combo))
        entry.update(
            {
                "bias": rec.bias,
                "coverage": rec.coverage,
                "mse": rec.mse,
                "n_rep": rec.n_replicates,
            }
        )
        out.append(entry)
    return out


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
    runner = {"sim1": run_sim1, "sim2": run_sim2, "sim3": run_sim3}[cfg.experiment]
    output = runner(cfg)
    if cfg.out_dir is not None:
        write_outputs(cfg, output)
    return output


def write_outputs(cfg: ExperimentConfig, output: ExperimentOutput) -> list[Path]:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    tables = [("results", output.result_columns, output.results)]
    if output.summary:
        tables.append(("summary", output.summary_columns, output.summary))
    for kind, columns, rows in tables:
        path = out_dir / f"{cfg.experiment}_{kind}.csv"
        write_table(path, columns, ([r[c] for c in columns] for r in rows))
        paths.append(path)
    manifest_path = out_dir / "manifest.txt"
    manifest_path.write_text(output.manifest)
    paths.append(manifest_path)
    return paths


def _manifest(cfg: ExperimentConfig, notes: tuple[str, ...]) -> str:
    lines = [
        f"experiment: {cfg.experiment}",
        f"code_version: misslab {__version__}",
        "config:",
    ]
    for name in _MANIFEST_FIELDS[cfg.experiment]:
        value = cfg.effective_q_grid() if name == "q_grid" else getattr(cfg, name)
        if isinstance(value, tuple):
            value = ", ".join(format_cell(v) for v in value)
        lines.append(f"  {name}: {format_cell(value)}")
    if notes:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in notes)
    return "\n".join(lines) + "\n"
