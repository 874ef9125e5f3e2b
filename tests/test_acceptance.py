"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). The simulation-study fixtures run once per session at the stated
replicate counts; on two cores the whole module takes roughly ten minutes.
"""

import math
import time

import numpy as np
import pytest

import misslab
from misslab.builtins import BUILTIN_NAMES, builtin_structures
from misslab.cli import dispatch
from misslab.experiments import ExperimentConfig, run_sim1, run_sim2, run_sim3
from misslab.fixtures import (
    canonical_taxonomy_specs,
    sim2_spec,
    subject_effect_variant,
)
from misslab.impute import ImputationConfig, fcs_impute, fit_norm_draw, fit_pmm_draw
from misslab.inference import pool, replicate_metrics
from misslab.mechanisms import classify, mask_law, save_spec, simulate_mask
from misslab.tabular import DataMatrix, MissMask, pattern_summary, write_csv

SEED = 20268
THREADS = 2


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def sim2_output():
    cfg = ExperimentConfig(
        "sim2", n_replicates=200, seed=SEED, threads=THREADS,
        q_grid=(0.0, 0.9, 1.0), maxit_list=(5, 50),
    )
    return run_sim2(cfg)


@pytest.fixture(scope="session")
def sim3_output():
    return run_sim3(
        ExperimentConfig("sim3", n_replicates=200, seed=SEED, threads=THREADS)
    )


@pytest.fixture(scope="session")
def sim1_output():
    return run_sim1(
        ExperimentConfig("sim1", n_replicates=100, seed=SEED, threads=THREADS)
    )


def _summary(output, **keys):
    rows = [
        s for s in output.summary if all(s[k] == v for k, v in keys.items())
    ]
    assert len(rows) == 1, (keys, rows)
    return rows[0]


def test_criterion_1_mechanism_calibration():
    n_rows, p = 10_000, 10
    x = np.random.default_rng(SEED).normal(size=(n_rows, p))
    start = time.perf_counter()
    failures = []
    for name in BUILTIN_NAMES:
        if name == "complete":
            continue
        mask = simulate_mask(builtin_structures(name), x, seed=SEED + 1)
        rate = mask.overall_rate()
        if abs(rate - 0.45) > 0.01:
            failures.append(f"{name}: {rate:.4f}")
    spec = builtin_structures("mcar_u_2")
    mask = simulate_mask(spec, x, seed=SEED + 2)
    patterns, probs = mask_law(spec)
    expect = patterns.T @ probs
    got = mask.column_rates()
    for j in range(p):
        se = math.sqrt(expect[j] * (1 - expect[j]) / n_rows)
        if abs(got[j] - expect[j]) > 3 * se + 1e-12:
            failures.append(f"mcar_u_2 col {j}: {got[j]:.4f} vs {expect[j]:.2f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(1, ok, f"builtin calibration over {n_rows * p} cells "
                  f"({elapsed:.1f}s){'; ' + '; '.join(failures) if failures else ''}")
    assert not failures, failures
    assert elapsed < 10.0, f"calibration took {elapsed:.1f}s (limit 10s)"


def test_criterion_2_taxonomy_classification():
    start = time.perf_counter()
    specs = dict(canonical_taxonomy_specs())
    assert len(specs) == 11
    specs["MCAR-U + subject effect"] = subject_effect_variant()
    mismatches = [
        f"{name}: {classify(spec).short()} != {spec.declared_label.short()}"
        for name, spec in specs.items()
        if classify(spec) != spec.declared_label
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 1.0
    report(2, ok, f"{len(specs)} canonical cells classified ({elapsed:.2f}s)"
                  f"{'; ' + '; '.join(mismatches) if mismatches else ''}")
    assert not mismatches, mismatches
    assert elapsed < 1.0


def test_criterion_3_sim2_trend(sim2_output):
    q0_m5 = _summary(sim2_output, q=0.0, maxit=5)
    q9_m5 = _summary(sim2_output, q=0.9, maxit=5)
    q9_m50 = _summary(sim2_output, q=0.9, maxit=50)
    q1_m50 = _summary(sim2_output, q=1.0, maxit=50)

    clauses = {
        "q=0 |bias|<0.05": abs(q0_m5["bias"]) < 0.05,
        "q=0 coverage in [0.92,0.98]": 0.92 <= q0_m5["coverage"] <= 0.98,
        "q=0.9 |bias(5)|-|bias(50)|>0.05":
            abs(q9_m5["bias"]) - abs(q9_m50["bias"]) > 0.05,
        "q=1 maxit=50 |bias|>0.1": abs(q1_m50["bias"]) > 0.1,
        "q=1 maxit=50 coverage<0.5": q1_m50["coverage"] < 0.5,
    }
    detail = (
        f"q0: bias={q0_m5['bias']:+.3f} cov={q0_m5['coverage']:.3f}; "
        f"q0.9: |bias| {abs(q9_m5['bias']):.3f}@5 vs {abs(q9_m50['bias']):.3f}@50; "
        f"q1@50: bias={q1_m50['bias']:+.3f} cov={q1_m50['coverage']:.3f}"
    )
    ok = all(clauses.values())
    report(3, ok, "sim2 bias/coverage trend - " + detail)
    failed = [name for name, good in clauses.items() if not good]
    assert not failed, f"failed clauses: {failed}; {detail}"


def test_criterion_4_sim3(sim3_output):
    clauses = {}
    details = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        row = _summary(sim3_output, q=q, approach="regress_on_indicator")
        clauses[f"(b) q={q} |bias|<0.05"] = abs(row["bias"]) < 0.05
        clauses[f"(b) q={q} coverage"] = 0.92 <= row["coverage"] <= 0.98
        details.append(f"q={q}: bias={row['bias']:+.3f} cov={row['coverage']:.3f}")
    fcs_q0 = _summary(sim3_output, q=0.0, approach="fcs_on_values")
    mean_estimate = fcs_q0["bias"] + 1.0
    clauses["(a) q=0 estimate<0.5"] = mean_estimate < 0.5
    details.append(f"(a) q=0 estimate={mean_estimate:.3f}")
    ok = all(clauses.values())
    report(4, ok, "sim3 indicator-regression route - " + "; ".join(details))
    failed = [name for name, good in clauses.items() if not good]
    assert not failed, f"failed clauses: {failed}"


def test_criterion_5_sim1_ordering(sim1_output):
    def median(structure, rho, setting):
        row = _summary(sim1_output, structure=structure, rho=rho,
                       test_missingness=setting)
        return row["median_mse"]

    clauses = {}
    for rho in (0.0, 0.4):
        med = median("complete", rho, "complete")
        clauses[f"complete rho={rho} in [4.0,5.5]"] = 4.0 <= med <= 5.5
    at_heavy = {s: median(s, 0.4, "missing") for s in BUILTIN_NAMES}
    top = max(at_heavy, key=at_heavy.get)
    clauses["mcar_ss_block is max at rho=0.4/missing"] = top == "mcar_ss_block"
    structured = ("mcar_ws_block", "mcar_ws_seq", "mcar_ss_block", "mcar_ss_seq")
    for s in structured:
        clauses[f"{s}: mse(0.4)>mse(0) on missing test"] = (
            median(s, 0.4, "missing") > median(s, 0.0, "missing")
        )
    detail = (
        f"complete medians {median('complete',0.0,'complete'):.2f}/"
        f"{median('complete',0.4,'complete'):.2f}; "
        f"max at heavy setting: {top} ({at_heavy[top]:.2f})"
    )
    ok = all(clauses.values())
    report(5, ok, "sim1 error ordering - " + detail)
    failed = [name for name, good in clauses.items() if not good]
    assert not failed, f"failed clauses: {failed}; medians {at_heavy}"


def test_criterion_6_engine_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(200, 2))
    design = np.column_stack([np.ones(200), x])
    y = design @ [0.5, 1.5, -2.0] + rng.normal(size=200)
    draw = fit_norm_draw(y, design, design[:1], ridge=0.0,
                         rng=np.random.default_rng(SEED + 1))
    oracle, *_ = np.linalg.lstsq(design, y, rcond=None)
    rel = np.max(np.abs(draw.beta_hat - oracle)) / np.max(np.abs(oracle))
    norm_ok = rel < 1e-10

    y_pool = rng.normal(size=500)
    pool_design = np.column_stack([np.ones(500), rng.normal(size=500)])
    values = fit_pmm_draw(
        y_pool, pool_design, pool_design[rng.integers(0, 500, size=10_000)],
        donors=5, ridge=1e-5, rng=np.random.default_rng(SEED + 2),
    ).values
    violations = int((~np.isin(values, y_pool)).sum())
    ok = norm_ok and violations == 0
    report(6, ok, f"normal-equations relative error {rel:.2e}; "
                  f"{violations} closure violations over 10000 draws")
    assert norm_ok, rel
    assert violations == 0


def test_criterion_7_pooling_algebra():
    pe = pool([0.0, 2.0], [1.0, 1.0])
    exact = (
        abs(pe.estimate - 1.0) < 1e-12
        and abs(pe.within - 1.0) < 1e-12
        and abs(pe.between - 2.0) < 1e-12
        and abs(pe.total - 4.0) < 1e-12
        and abs(pe.df - (1 + 1 / 3) ** 2) < 1e-12
    )
    rng = np.random.default_rng(SEED)
    identity_ok = True
    worst = 0.0
    for _ in range(200):
        n_rep = int(rng.integers(1, 40))
        ests = rng.normal(scale=10.0, size=n_rep)
        pes = [
            pool([e, e + rng.normal()], [1.0, 1.0]) for e in ests
        ]
        rec = replicate_metrics([p.estimate for p in pes], [p.ci_low for p in pes],
                                [p.ci_high for p in pes], truth=float(rng.normal()))
        gap = abs(rec.mse - (rec.bias_sq + rec.variance))
        rel = gap / max(1.0, abs(rec.mse))
        worst = max(worst, rel)
        identity_ok &= rel < 1e-10
    ok = exact and identity_ok
    report(7, ok, f"hand-computed pooling exact to 1e-12; "
                  f"worst decomposition residual {worst:.2e}")
    assert exact
    assert identity_ok, worst


def test_criterion_8_file_matching_robustness():
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = 1000
        x1 = rng.standard_normal(n)
        x2 = 2 * x1 + rng.standard_normal(n)
        x3 = 1 + x1 + 2 * x2 + rng.standard_normal(n)
        x = np.column_stack([x1, x2, x3])
        mask = simulate_mask(sim2_spec(1.0), x, seed=2000 + seed)
        summary = pattern_summary(mask)
        if (1, 2) not in summary.file_matching_pairs:
            failures.append(f"seed {seed}: pair not flagged")
            continue
        d = DataMatrix(x.copy(), mask, ("X1", "X2", "X3"))
        try:
            fcs_impute(d, ImputationConfig(m=5, maxit=5, method="norm",
                                           seed=3000 + seed))
        except Exception as exc:  # noqa: BLE001 - the criterion is "no error"
            failures.append(f"seed {seed}: {exc}")
    ok = not failures
    report(8, ok, f"50-seed file-matching sweep"
                  f"{'; ' + '; '.join(failures[:3]) if failures else ''}")
    assert not failures, failures


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(SEED)
    data = DataMatrix.complete(rng.normal(size=(60, 3)), ("Z", "X1", "X2"))
    data_path = tmp_path / "data.csv"
    write_csv(data, data_path)
    spec_path = tmp_path / "spec.json"
    save_spec(sim2_spec(0.4), spec_path)

    incomplete = rng.normal(size=(50, 3))
    bits = (rng.random((50, 3)) < 0.3).astype(np.uint8)
    incomplete_path = tmp_path / "incomplete.csv"
    write_csv(DataMatrix(incomplete, MissMask(bits), ("a", "b", "c")),
              incomplete_path)
    mask_path = tmp_path / "mask.csv"
    from misslab.tabular import write_mask_csv

    write_mask_csv(MissMask(bits), mask_path, ("a", "b", "c"))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        '{"n": 150, "m": 2, "q_grid": [0.0, 1.0], "maxit_list": [2]}'
    )

    commands = {
        "simulate": lambda tag: [
            "simulate", "--spec", spec_path, "--data", data_path,
            "--seed", "7", "--out", tmp_path / f"sim-{tag}.csv",
        ],
        "classify": lambda tag: ["classify", "--spec", spec_path],
        "analyze": lambda tag: [
            "analyze", "--mask", mask_path, "--out", tmp_path / f"an-{tag}",
        ],
        "impute": lambda tag: [
            "impute", "--data", incomplete_path, "--method", "pmm",
            "--m", "2", "--maxit", "2", "--seed", "9",
            "--out", tmp_path / f"imp-{tag}",
        ],
        "experiment": lambda tag: [
            "experiment", "--id", "sim2", "--reps", "2", "--seed", "11",
            "--config", config_path, "--out", tmp_path / f"exp-{tag}",
        ],
        "export-graph": lambda tag: [
            "export-graph", "--spec", spec_path,
            "--out", tmp_path / f"g-{tag}.dot",
        ],
    }
    import contextlib
    import io

    mismatches = []
    for verb, argv in commands.items():
        outputs = []
        for tag in ("a", "b"):
            before = {p for p in tmp_path.rglob("*") if p.is_file()}
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = dispatch([str(a) for a in argv(tag)])
            assert code == 0, (verb, code)
            created = sorted(
                p for p in tmp_path.rglob("*") if p.is_file() and p not in before
            )
            run_output = {p.name.replace(f"-{tag}", "-X"): p.read_bytes()
                          for p in created}
            run_output["<stdout>"] = buffer.getvalue()
            outputs.append(run_output)
        if outputs[0] != outputs[1]:
            mismatches.append(verb)
    ok = not mismatches
    report(9, ok, "all six verbs byte-identical across reruns"
                  f"{'; differs: ' + ', '.join(mismatches) if mismatches else ''}")
    assert not mismatches, mismatches
