"""The three workloads: their inputs, one round of operations, and checks.

A round is a fixed set of operations; the benchmark repeats identical
rounds. An operation is one study replicate or one CLI verb invocation.
Every input is a function of the workload seed and the scale.

The checks read the program's output files with the ``csv`` module and
numpy only, and compare them with computations made here or with
properties the method must have. Statistical tolerances are five standard
errors wide, so a correct method passes on any seed.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from misslab.builtins import builtin_structures
from misslab.cli import dispatch
from misslab.experiments import ExperimentConfig, run_experiment
from misslab.mechanisms import save_spec, simulate_mask

Z_TOL = 5.0  # standard errors allowed for a statistical check
Z_95 = 1.959963984540054

SCALES = {
    "full": {
        "sim1": dict(n_replicates=1),
        "sim2": dict(n_replicates=2, q_grid=(0.0, 0.9, 1.0), maxit_list=(5, 50)),
        "sim3": dict(n_replicates=2),
        "cli": dict(rows=20_000, cols=10, structure="mcar_ws_block", rate=0.3,
                    norm_m=5, norm_maxit=5, pmm_rows=3_000, pmm_cols=4,
                    pmm_rate=0.3, pmm_m=2, pmm_maxit=2),
    },
    "tiny": {
        "sim1": dict(n_replicates=1, n_train=60, n_test=200, m=2, maxit=2),
        "sim2": dict(n_replicates=4, n=300, q_grid=(0.0, 0.9, 1.0), maxit_list=(2, 5)),
        "sim3": dict(n_replicates=4, n=300, sim3_maxit=5),
        "cli": dict(rows=500, cols=10, structure="mcar_ws_block", rate=0.3,
                    norm_m=2, norm_maxit=2, pmm_rows=200, pmm_cols=4,
                    pmm_rate=0.3, pmm_m=2, pmm_maxit=2),
    },
}

SIM1_NOISE_VAR = 4.0  # y = sum(x) + 2 * N(0, 1)


def log_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def to_floats(body: list[list[str]]) -> np.ndarray:
    return np.array([[float(f) if f != "" else np.nan for f in r] for r in body])


def mean_and_se(rows: list[dict]) -> tuple[float, float]:
    """Mean estimate over replicates and its standard error, taken from
    the half-widths of the pooled 95% intervals (conservative: the t
    critical value is at least the normal one)."""
    est = np.array([float(r["estimate"]) for r in rows])
    se = np.array([(float(r["ci_high"]) - float(r["ci_low"])) / (2 * Z_95) for r in rows])
    return float(est.mean()), float(np.sqrt((se ** 2).sum()) / len(rows))


def check_grid(rows, keys, expected, where) -> list[str]:
    got = sorted(tuple(r[k] for k in keys) for r in rows)
    if got != sorted(expected):
        return [f"{where}: result grid {got[:6]}... does not match the {len(expected)} expected cells"]
    return []


def check_intervals(rows, where) -> list[str]:
    """Rubin's t interval contains its estimate and is symmetric about it.
    The q = 1 corners only need to be present."""
    problems = []
    for r in rows:
        if float(r["q"]) == 1.0:
            continue
        est, lo, hi = (float(r[k]) for k in ("estimate", "ci_low", "ci_high"))
        if not all(map(math.isfinite, (est, lo, hi))):
            problems.append(f"{where}: non-finite interval {r}")
        elif not lo <= est <= hi:
            problems.append(f"{where}: interval does not contain its estimate {r}")
        elif abs(0.5 * (lo + hi) - est) > 1e-9 * max(1.0, hi - lo):
            problems.append(f"{where}: interval not symmetric about its estimate {r}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Study:
    """A study workload: it runs in the worker process itself."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Sim1Prediction(Study):
    """``run_experiment`` for sim1: every builtin structure, both rho values."""

    name = "sim1_prediction"

    def __init__(self, seed: int, scale: str, inputs: Path, in_process: bool):
        self.cfg = ExperimentConfig(experiment="sim1", seed=seed, threads=1,
                                    **SCALES[scale]["sim1"])
        self.ops_per_round = self.cfg.n_replicates

    def setup(self) -> None:
        self.cfg.validate()

    def run_round(self, out: Path, tracer=None) -> int:
        try:
            run_experiment(replace(self.cfg, out_dir=out))
        except Exception:  # noqa: BLE001 - counted as failed replicates
            log_failure("sim1")
            return self.ops_per_round
        return 0

    def check(self, out: Path) -> list[str]:
        cfg = self.cfg
        rows = read_rows(out / "sim1_results.csv")
        expected = [
            (str(float(rho)), s, t, str(rep))
            for rho in cfg.rho_list for s in cfg.structures
            for t in ("complete", "missing") for rep in range(cfg.n_replicates)
        ]
        problems = check_grid(rows, ("rho", "structure", "test_missingness", "replicate"),
                              expected, "sim1")
        if problems:
            return problems
        # Test noise is independent of every prediction, so each MSE is at
        # least the noise variance, less the sampling error of a mean of
        # squared N(0, 4) residuals over the rows kept (unit_block keeps
        # about half of them).
        floor = SIM1_NOISE_VAR * (1 - Z_TOL * math.sqrt(2.0 / (cfg.n_test / 2)))
        for r in rows:
            mse = float(r["mse"])
            if not math.isfinite(mse) or mse <= floor:
                problems.append(f"sim1: MSE {mse} not finite or below the noise floor {floor:.3f}: {r}")
        # Complete data: out-of-sample error of least squares under a
        # Gaussian design, sigma^2 (1 + 1/n + p / (n - p - 2)).
        n, p, s2 = cfg.n_train, cfg.p, SIM1_NOISE_VAR
        target = s2 * (1 + 1 / n + p / (n - p - 2))
        sd = math.sqrt(2 * target ** 2 / cfg.n_test + 2 * s2 ** 2 * (p + 1) / (n - p - 2) ** 2)
        complete = {}
        for r in rows:
            if r["structure"] == "complete":
                complete.setdefault((r["rho"], r["replicate"]), set()).add(r["mse"])
        if any(len(v) != 1 for v in complete.values()):
            problems.append("sim1: complete structure gives different MSEs with and without test missingness")
        values = [float(next(iter(v))) for v in complete.values()]
        tol = Z_TOL * sd / math.sqrt(len(values))
        if abs(np.mean(values) - target) > tol:
            problems.append(f"sim1: complete-data MSE {np.mean(values):.4f} not within "
                            f"{tol:.3f} of {target:.4f}")
        for s in read_rows(out / "sim1_summary.csv"):
            if int(s["n_rep"]) != cfg.n_replicates:
                problems.append(f"sim1: summary n_rep {s['n_rep']} != {cfg.n_replicates}")
        return problems


class Sim23Inference(Study):
    """sim2 over q in {0, 0.9, 1} and maxit in {5, 50}, then sim3 on its
    default grid."""

    name = "sim23_inference"

    def __init__(self, seed: int, scale: str, inputs: Path, in_process: bool):
        self.cfgs = {
            exp: ExperimentConfig(experiment=exp, seed=seed, threads=1, **SCALES[scale][exp])
            for exp in ("sim2", "sim3")
        }
        self.ops_per_round = sum(c.n_replicates for c in self.cfgs.values())

    def setup(self) -> None:
        for cfg in self.cfgs.values():
            cfg.validate()

    def run_round(self, out: Path, tracer=None) -> int:
        failed = 0
        for exp, cfg in self.cfgs.items():
            try:
                run_experiment(replace(cfg, out_dir=out / exp))
            except Exception:  # noqa: BLE001 - counted as failed replicates
                log_failure(exp)
                failed += cfg.n_replicates
        return failed

    def check(self, out: Path) -> list[str]:
        problems = []
        c2, c3 = self.cfgs["sim2"], self.cfgs["sim3"]
        rows2 = read_rows(out / "sim2" / "sim2_results.csv")
        problems += check_grid(
            rows2, ("q", "maxit", "replicate"),
            [(str(float(q)), str(it), str(rep)) for q in c2.effective_q_grid()
             for it in c2.maxit_list for rep in range(c2.n_replicates)], "sim2")
        rows3 = read_rows(out / "sim3" / "sim3_results.csv")
        problems += check_grid(
            rows3, ("q", "approach", "replicate"),
            [(str(float(q)), a, str(rep)) for q in c3.effective_q_grid()
             for a in ("fcs_on_values", "regress_on_indicator") for rep in range(c3.n_replicates)],
            "sim3")
        if problems:
            return problems
        problems += check_intervals(rows2, "sim2") + check_intervals(rows3, "sim3")

        def cell(rows, **key):
            return [r for r in rows if all(r[k] == v for k, v in key.items())]

        for it in c2.maxit_list:
            mean, se = mean_and_se(cell(rows2, q="0.0", maxit=str(it)))
            if abs(mean - 2.0) > Z_TOL * se:
                problems.append(f"sim2 q=0 maxit={it}: slope {mean:.4f} not within {Z_TOL} SE ({se:.4f}) of 2")
        for q in c3.effective_q_grid():
            if q < 1.0:
                mean, se = mean_and_se(cell(rows3, q=str(float(q)), approach="regress_on_indicator"))
                if abs(mean - 1.0) > Z_TOL * se:
                    problems.append(f"sim3 q={q} regress_on_indicator: mean {mean:.4f} not within "
                                    f"{Z_TOL} SE ({se:.4f}) of 1")
        # Chained equations over the values is biased towards 0 when the
        # latent variable is unseen (truth 1); two standard errors below.
        mean, se = mean_and_se(cell(rows3, q="0.0", approach="fcs_on_values"))
        if not mean < 1.0 - 2 * se:
            problems.append(f"sim3 q=0 fcs_on_values: mean {mean:.4f} shows no downward bias "
                            f"(SE {se:.4f})")
        return problems


def _gaussian(rng, n, p, rho):
    chol = np.linalg.cholesky(np.full((p, p), rho) + (1 - rho) * np.eye(p))
    return rng.standard_normal((n, p)) @ chol.T


def write_table(path: Path, names, values: np.ndarray) -> None:
    """Shortest round-trip decimals; NaN is written as an empty field."""
    lines = [",".join(names)]
    for row in values.tolist():
        lines.append(",".join("" if v != v else repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


class CliPipeline:
    """The ``misslab`` verbs on CSV files, one process per verb.

    In a traced run the verbs go through ``misslab.cli.dispatch`` in the
    benchmark's process instead (``in_process``).
    """

    name = "cli_pipeline"
    ops_per_round = 4

    def __init__(self, seed: int, scale: str, inputs: Path, in_process: bool):
        self.seed = seed
        self.s = SCALES[scale]["cli"]
        self.inputs = inputs
        self.in_process = in_process
        self.round_peak_kb = 0

    def peak_rss_mb(self) -> float:
        """The largest peak resident memory of the last round's verbs."""
        return self.round_peak_kb / 1024

    def setup(self) -> None:
        s, d = self.s, self.inputs
        d.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 4242])
        names = [f"X{j + 1}" for j in range(s["cols"])]
        x = _gaussian(rng, s["rows"], s["cols"], 0.5)
        spec = builtin_structures(s["structure"], s["cols"], s["rate"])
        save_spec(spec, d / "spec.json")
        write_table(d / "complete.csv", names, x)
        # The mask the simulate verb must reproduce from the same inputs.
        self.mask = simulate_mask(spec, x, self.seed).bits
        write_table(d / "incomplete.csv", names, np.where(self.mask == 1, np.nan, x))
        # The same number of recipients in every column and on every seed,
        # so the donor searches do the same work whatever the seed.
        y = _gaussian(rng, s["pmm_rows"], s["pmm_cols"], 0.5)
        n_mis = round(s["pmm_rate"] * s["pmm_rows"])
        for j in range(s["pmm_cols"]):
            y[rng.permutation(s["pmm_rows"])[:n_mis], j] = np.nan
        write_table(d / "pmm.csv", [f"V{j + 1}" for j in range(s["pmm_cols"])], y)

    def commands(self, out: Path) -> list[list[str]]:
        s, d, seed = self.s, self.inputs, str(self.seed)
        return [
            ["simulate", "--spec", str(d / "spec.json"), "--data", str(d / "complete.csv"),
             "--seed", seed, "--out", str(out / "mask.csv")],
            ["analyze", "--mask", str(out / "mask.csv"), "--out", str(out / "report")],
            ["impute", "--data", str(d / "incomplete.csv"), "--method", "norm",
             "--m", str(s["norm_m"]), "--maxit", str(s["norm_maxit"]),
             "--seed", seed, "--out", str(out / "norm")],
            ["impute", "--data", str(d / "pmm.csv"),
             "--m", str(s["pmm_m"]), "--maxit", str(s["pmm_maxit"]),
             "--seed", seed, "--out", str(out / "pmm")],
        ]

    def run_round(self, out: Path, tracer=None) -> int:
        failed = 0
        self.round_peak_kb = 0
        for argv in self.commands(out):
            if self.in_process:
                if tracer is None:
                    code = dispatch(argv)
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        code = dispatch(argv)
            else:
                proc = subprocess.Popen(
                    [sys.executable, "-c",
                     "import sys; from misslab.cli import main; sys.argv[0] = 'misslab'; main()",
                     *argv],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                )
                # wait4 gives this verb's own peak memory.
                _, status, usage = os.wait4(proc.pid, 0)
                code = proc.returncode = os.waitstatus_to_exitcode(status)
                self.round_peak_kb = max(self.round_peak_kb, usage.ru_maxrss)
            if code != 0:
                print(f"perfbench: misslab {argv[0]} exited {code}", file=sys.stderr)
                failed += 1
        return failed

    def check(self, out: Path) -> list[str]:
        s = self.s
        problems = []
        names, body = read_table(out / "mask.csv")
        if any(f not in ("0", "1") for r in body for f in r):
            return ["cli: mask CSV holds entries other than 0/1"]
        mask = np.array(body, dtype=np.uint8)
        if not np.array_equal(mask, self.mask):
            problems.append("cli: simulate verb's mask differs from simulate_mask on the same inputs")
        # Rows are independent; the rate's SE comes from the row means.
        rate = mask.mean()
        se = mask.mean(axis=1).std(ddof=1) / math.sqrt(mask.shape[0])
        if abs(rate - s["rate"]) > Z_TOL * se:
            problems.append(f"cli: mask rate {rate:.4f} not within {Z_TOL} SE ({se:.4f}) of {s['rate']}")
        problems += check_report(mask, read_rows(out / "report.report.csv"))
        for prefix, data, method, m, maxit in (
            ("norm", "incomplete.csv", "norm", s["norm_m"], s["norm_maxit"]),
            ("pmm", "pmm.csv", "pmm", s["pmm_m"], s["pmm_maxit"]),
        ):
            problems += check_impute(out, prefix, self.inputs / data, method, m, maxit)
        return problems


def check_report(mask: np.ndarray, report: list[dict]) -> list[str]:
    """Odds ratios and chi-square statistics against 2x2 tables of the mask
    (add 0.5 to every cell when one is empty)."""
    problems = []
    n, p = mask.shape
    if len(report) != p * (p - 1) // 2:
        return [f"cli: analyze report has {len(report)} pairs, expected {p * (p - 1) // 2}"]
    m = mask.astype(bool)
    for r in report:
        j, k = int(r["col_j"]), int(r["col_k"])
        a = np.sum(m[:, j] & m[:, k])
        b = np.sum(m[:, j] & ~m[:, k])
        c = np.sum(~m[:, j] & m[:, k])
        d = np.sum(~m[:, j] & ~m[:, k])
        t = np.array([a, b, c, d], dtype=float)
        if t.min() == 0:
            t += 0.5
        a, b, c, d = t
        odds = a * d / (b * c)
        chi2 = t.sum() * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
        for key, want in (("odds_ratio", odds), ("chi2", chi2)):
            got = float(r[key])
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"cli: analyze {key} for ({j}, {k}) is {got}, 2x2 table gives {want}")
    return problems


def check_impute(out: Path, prefix: str, data: Path, method: str, m: int, maxit: int) -> list[str]:
    problems = []
    names, body = read_table(data)
    x = to_floats(body)
    observed = ~np.isnan(x)
    for k in range(1, m + 1):
        out_names, out_body = read_table(out / f"{prefix}.imp{k}.csv")
        if out_names != names:
            problems.append(f"cli: {prefix}.imp{k}.csv header {out_names} != {names}")
            continue
        if any(f == "" for r in out_body for f in r):
            problems.append(f"cli: {prefix}.imp{k}.csv has empty fields")
            continue
        y = to_floats(out_body)
        if y.shape != x.shape or not np.array_equal(y[observed], x[observed]):
            problems.append(f"cli: {prefix}.imp{k}.csv changes observed cells")
            continue
        if method == "pmm":
            for j in range(x.shape[1]):
                donors = x[observed[:, j], j]
                if not np.isin(y[~observed[:, j], j], donors).all():
                    problems.append(f"cli: {prefix}.imp{k}.csv column {j} has a value no donor holds")
    manifest = (out / f"{prefix}.manifest.txt").read_text().splitlines()
    listed = [line for line in manifest if line.startswith("outputs: ")]
    written = sorted(p.name for p in out.glob(f"{prefix}.*") if p.name != f"{prefix}.manifest.txt")
    named = sorted(e.replace("<prefix>", prefix) for e in listed[0][len("outputs: "):].split(", ")) \
        if listed else []
    if named != written:
        problems.append(f"cli: {prefix} manifest lists {named}, files written are {written}")
    imputed_cols = int((~observed).any(axis=0).sum())
    _, diag = read_table(out / f"{prefix}.diagnostics.csv")
    if len(diag) != m * maxit * imputed_cols:
        problems.append(f"cli: {prefix}.diagnostics.csv has {len(diag)} rows, "
                        f"expected {m} x {maxit} x {imputed_cols}")
    return problems


WORKLOADS = {w.name: w for w in (Sim1Prediction, Sim23Inference, CliPipeline)}
