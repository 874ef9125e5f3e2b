"""Diagnostics for structure in an observed missingness mask.

Pairwise indicator dependence is judged from per-pair 2x2 contingency
tables: chi-square with one degree of freedom, odds ratios, and an
association sign at a significance threshold. Tables with empty cells get
the add-0.5-everywhere correction and are flagged, so deterministic
couplings surface as flagged degenerate odds ratios rather than misleading
finite numbers. The audit additionally tests mask columns against observed
data columns and renders an advisory verdict; with finite samples these are
screening tools, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tabular import DataMatrix, MissMask

# scipy.stats is imported inside the functions that use it: the import takes
# about a second, which every command-line verb would otherwise pay.

ALPHA_DEFAULT = 0.01

SIGN_POSITIVE = "positive"
SIGN_NEGATIVE = "negative"
SIGN_NONE = "none"
SIGN_UNDETERMINED = "undetermined"

VERDICT_UNSTRUCTURED = "consistent-with-unstructured"
VERDICT_STRUCTURED = "structured-indicators"
VERDICT_DATA = "data-dependent"


# Header of the report CSV: one column per PairStat field, in field order.
REPORT_COLUMNS = ("col_j", "col_k", "odds_ratio", "chi2", "p_value", "sign", "flag")


@dataclass(frozen=True)
class PairStat:
    """Association summary for one pair of mask columns."""

    j: int
    k: int
    odds_ratio: float
    chi2: float
    p_value: float
    sign: str
    flag: str  # "" | "degenerate" | "undetermined"

    @property
    def degenerate(self) -> bool:
        return self.flag == "degenerate"


@dataclass(frozen=True)
class DependenceReport:
    pairs: tuple[PairStat, ...]
    sign_matrix: np.ndarray
    conditional_flags: tuple[tuple[int, int, str, str], ...]
    alpha: float
    n_rows: int

    def pair(self, j: int, k: int) -> PairStat:
        if j == k:
            raise ValueError("pairwise statistics are undefined on the diagonal")
        a, b = min(j, k), max(j, k)
        for ps in self.pairs:
            if (ps.j, ps.k) == (a, b):
                return ps
        raise KeyError((j, k))

    def significant_pairs(self, bonferroni: bool = True) -> list[PairStat]:
        thr = self.alpha / len(self.pairs) if (bonferroni and self.pairs) else self.alpha
        return [
            ps
            for ps in self.pairs
            if ps.flag != "undetermined" and ps.p_value < thr
        ]


def _tables(bits: np.ndarray):
    m = bits.astype(np.int64)
    o = 1 - m
    return m.T @ m, m.T @ o, o.T @ m, o.T @ o  # (1,1) (1,0) (0,1) (0,0)


def _chi2_table(a: float, b: float, c: float, d: float) -> float:
    n = a + b + c + d
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / denom


def pairwise_dependence(m: MissMask, alpha: float = ALPHA_DEFAULT) -> DependenceReport:
    """Test every pair of mask columns for association.

    Constant columns yield pairs flagged ``undetermined``. A raw zero cell
    yields a ``degenerate`` flag; statistics are then computed on the
    corrected (+0.5 everywhere) table. The sign is the direction of the
    odds ratio when the pair is significant at ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    from scipy import stats

    bits = m.bits
    n, p = bits.shape
    if n < 2:
        raise ValueError("pairwise dependence needs at least two rows")
    n11, n10, n01, n00 = _tables(bits)
    rates = bits.mean(axis=0)
    constant = (rates == 0.0) | (rates == 1.0)

    pairs: list[PairStat] = []
    sign_matrix = np.full((p, p), SIGN_NONE, dtype=object)
    np.fill_diagonal(sign_matrix, SIGN_UNDETERMINED)
    flags: list[tuple[int, int, str, str]] = []
    for j in range(p):
        for k in range(j + 1, p):
            if constant[j] or constant[k]:
                ps = PairStat(j, k, np.nan, np.nan, np.nan,
                              SIGN_UNDETERMINED, "undetermined")
                pairs.append(ps)
                sign_matrix[j, k] = sign_matrix[k, j] = SIGN_UNDETERMINED
                flags.append((j, k, "unconditional", "undetermined"))
                continue
            a, b = float(n11[j, k]), float(n10[j, k])
            c, d = float(n01[j, k]), float(n00[j, k])
            flag = ""
            if min(a, b, c, d) == 0.0:
                flag = "degenerate"
                a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
            odds = (a * d) / (b * c)
            stat = _chi2_table(a, b, c, d)
            pval = float(stats.chi2.sf(stat, 1))
            if pval < alpha:
                sign = SIGN_POSITIVE if odds > 1.0 else SIGN_NEGATIVE
            else:
                sign = SIGN_NONE
            pairs.append(PairStat(j, k, odds, stat, pval, sign, flag))
            sign_matrix[j, k] = sign_matrix[k, j] = sign
            flags.append(
                (j, k, "unconditional",
                 "dependent" if pval < alpha else "independent")
            )

    report = DependenceReport(tuple(pairs), sign_matrix, tuple(flags), alpha, n)
    extra = _single_column_conditioning(bits, report)
    return DependenceReport(tuple(pairs), sign_matrix, tuple(flags) + extra,
                            alpha, n)


def _single_column_conditioning(bits: np.ndarray, report: DependenceReport):
    """For significant pairs, note any single mask column that explains them.

    Uses the Mantel-Haenszel statistic across the two strata of a third
    column; a non-significant stratified test suggests the marginal
    dependence is induced rather than direct. A column with fewer than two
    rows in a stratum (a constant one, say) conditions nothing.
    """
    from scipy import stats

    n, p = bits.shape
    sig = report.significant_pairs(bonferroni=False)
    if not sig or p < 3:
        return ()
    js = np.array([ps.j for ps in sig])
    ks = np.array([ps.k for ps in sig])
    # Exact 3-way counts, stratum 0 then 1 on the leading axis, per
    # significant pair (rows) and column l (columns): ns rows with M_l in
    # the stratum, r1 and c1 of them with M_j or M_k missing, a with both.
    # Blocks of 2048 rows bound the memory of the pairs' joint indicators.
    a1 = sum(np.einsum("nq,nl->ql", block[:, js] & block[:, ks], block, dtype=np.int64)
             for block in np.array_split(bits, -(-n // 2048)))
    m1 = np.einsum("nj,nl->jl", bits, bits, dtype=np.int64)
    ns1 = m1.diagonal()
    ns = np.stack([n - ns1, ns1])[:, None, :]
    # ns * ns * (ns - 1) in Python integers, which cannot overflow.
    scale = np.reshape([float(v * v * (v - 1)) for v in ns.ravel().tolist()], ns.shape)
    a = np.stack([m1[js, ks, None] - a1, a1]).astype(float)
    r1 = np.stack([ns1[js, None] - m1[js], m1[js]]).astype(float)
    c1 = np.stack([ns1[ks, None] - m1[ks], m1[ks]]).astype(float)
    # A stratum where M_j or M_k is constant carries no information.
    informative = (r1 > 0) & (r1 < ns) & (c1 > 0) & (c1 < ns)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.where(informative, a - r1 * c1 / ns, 0.0)
        den = np.where(informative,
                       r1 * (ns - r1) * c1 * (ns - c1) / scale, 0.0)
    num, den = num[0] + num[1], den[0] + den[1]
    tested = (ns >= 2).all(axis=0) & (den != 0.0)
    rows = np.arange(len(sig))
    tested[rows, js] = tested[rows, ks] = False
    q, l = np.nonzero(tested)
    stat = num[q, l] * num[q, l] / den[q, l]
    pval = stats.chi2.sf(stat, 1)
    return tuple((sig[i].j, sig[i].k, f"given M{c + 1}", "independent")
                 for i, c, pv in zip(q.tolist(), l.tolist(), pval)
                 if pv >= report.alpha)


@dataclass(frozen=True)
class SequentialSignature:
    monotone_fraction: float
    forward_only: bool


def sequential_signature(
    m: MissMask, ordering: Sequence[int], alpha: float = ALPHA_DEFAULT
) -> SequentialSignature:
    """Quantify how dropout-like a mask is under a declared column order.

    ``monotone_fraction`` is the share of rows whose missing cells form a
    suffix of the ordered columns (fully observed rows count as monotone).
    ``forward_only`` holds when, for every significant pair, the forward
    conditional P(later missing | earlier missing) strictly exceeds the
    backward one; it is vacuously true with no significant pairs.
    """
    bits = m.bits
    n, p = bits.shape
    ordering = tuple(int(j) for j in ordering)
    if sorted(ordering) != list(range(p)):
        raise ValueError("ordering must be a permutation of 0..p-1")
    arranged = bits[:, list(ordering)]
    seen = np.maximum.accumulate(arranged, axis=1)
    monotone_rows = ~np.any((arranged == 0) & (seen == 1), axis=1)
    fraction = float(monotone_rows.mean())

    pos = {j: t for t, j in enumerate(ordering)}
    forward = True
    report = pairwise_dependence(m, alpha)
    for ps in report.significant_pairs():
        early, late = (ps.j, ps.k) if pos[ps.j] < pos[ps.k] else (ps.k, ps.j)
        me = bits[:, early].astype(bool)
        ml = bits[:, late].astype(bool)
        lagged = (me & ml).sum() / max(me.sum(), 1)
        lead = (me & ml).sum() / max(ml.sum(), 1)
        if not lagged > lead:
            forward = False
            break
    return SequentialSignature(fraction, forward)


@dataclass(frozen=True)
class AuditReport:
    pairwise: DependenceReport
    data_associations: tuple[tuple[int, int, float, float], ...]
    verdict: str
    evidence: tuple[str, ...]
    alpha: float


def mcar_structure_audit(x: DataMatrix, alpha: float = ALPHA_DEFAULT) -> AuditReport:
    """Screen a masked data set for departures from unstructured MCAR.

    Runs (a) all pairwise mask-column tests and (b) two-sample tests of each
    observed data column split by each other column's indicator. Verdicts
    use a Bonferroni threshold within each family and are advisory:
    ``data-dependent`` dominates ``structured-indicators`` dominates
    ``consistent-with-unstructured``.
    """
    from scipy import stats

    bits = x.missing.bits
    n, p = bits.shape
    report = pairwise_dependence(x.missing, alpha)

    data_rows: list[tuple[int, int, float, float]] = []
    for j in range(p):
        col_rate = bits[:, j].mean()
        if col_rate in (0.0, 1.0):
            continue
        for k in range(p):
            if k == j:
                continue
            observed_k = bits[:, k] == 0
            vals = x.values[observed_k, k]
            groups = bits[observed_k, j]
            g1 = vals[groups == 1]
            g0 = vals[groups == 0]
            if len(g1) < 2 or len(g0) < 2:
                continue
            stat, pval = stats.ttest_ind(g1, g0, equal_var=False)
            if np.isnan(pval):
                continue
            data_rows.append((j, k, float(stat), float(pval)))

    evidence: list[str] = []
    n_pairs = sum(1 for ps in report.pairs if ps.flag != "undetermined")
    pair_thr = alpha / n_pairs if n_pairs else alpha
    sig_pairs = [
        ps for ps in report.pairs
        if ps.flag != "undetermined" and ps.p_value < pair_thr
    ]
    data_thr = alpha / len(data_rows) if data_rows else alpha
    sig_data = [row for row in data_rows if row[3] < data_thr]

    for ps in sig_pairs:
        evidence.append(
            f"mask columns {ps.j + 1} and {ps.k + 1} associated "
            f"(p={ps.p_value:.3g}, sign={ps.sign})"
        )
    for j, k, stat, pval in sig_data:
        evidence.append(
            f"indicator of column {j + 1} shifts observed values of column "
            f"{k + 1} (t={stat:.2f}, p={pval:.3g})"
        )

    if sig_data:
        verdict = VERDICT_DATA
    elif sig_pairs:
        verdict = VERDICT_STRUCTURED
    else:
        verdict = VERDICT_UNSTRUCTURED
        evidence.append("no indicator pair or indicator-data association "
                        "survived the Bonferroni threshold")
    return AuditReport(report, tuple(data_rows), verdict, tuple(evidence), alpha)


def summary_text(report: DependenceReport) -> str:
    lines = [
        f"pairwise dependence over {len(report.pairs)} column pairs "
        f"(n={report.n_rows}, alpha={report.alpha})",
    ]
    sig = report.significant_pairs()
    if not sig:
        lines.append("no significant pairwise dependence (Bonferroni)")
    for ps in sig:
        deg = ", degenerate table" if ps.degenerate else ""
        lines.append(
            f"  M{ps.j + 1} ~ M{ps.k + 1}: OR={ps.odds_ratio:.3g}, "
            f"chi2={ps.chi2:.3g}, p={ps.p_value:.3g}, sign={ps.sign}{deg}"
        )
    induced = [f for f in report.conditional_flags if f[3] == "independent"
               and f[2] != "unconditional"]
    for j, k, cond, _ in induced:
        lines.append(f"  M{j + 1} ~ M{k + 1} explained away {cond}")
    return "\n".join(lines) + "\n"
