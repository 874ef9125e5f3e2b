"""Diagnostics for structure in an observed missingness mask.

Pairwise indicator dependence is judged from per-pair 2x2 contingency
tables: chi-square with one degree of freedom, odds ratios, and an
association sign at a significance threshold. Tables with empty cells get
the add-0.5-everywhere correction and are flagged, so deterministic
couplings surface as flagged degenerate odds ratios rather than misleading
finite numbers. Single-column conditioning asks whether a third indicator
explains a significant pair away. These are screening tools, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tabular import MissMask, joint_counts, monotone_rows

# P-values are computed here, not taken from SciPy, whose statistics modules
# cost a process about 26 MB and a quarter of a second to import: the
# chi-square(1) tail is erfc(sqrt(x / 2)).

ALPHA_DEFAULT = 0.01

SIGN_POSITIVE = "positive"
SIGN_NEGATIVE = "negative"
SIGN_NONE = "none"
SIGN_UNDETERMINED = "undetermined"


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
    # (j, k, "given M<l>", "independent"): column l explains the pair away.
    conditional_flags: tuple[tuple[int, int, str, str], ...]
    alpha: float
    n_rows: int
    pair_counts: np.ndarray  # the mask's pair counts the tables were built from

    def pair(self, j: int, k: int) -> PairStat:
        if j == k:
            raise ValueError("pairwise statistics are undefined on the diagonal")
        a, b = min(j, k), max(j, k)
        for ps in self.pairs:
            if (ps.j, ps.k) == (a, b):
                return ps
        raise KeyError((j, k))

    def significant_pairs(self) -> list[PairStat]:
        """The determined pairs significant at the Bonferroni threshold:
        alpha over all pairs, undetermined ones included."""
        thr = self.alpha / len(self.pairs) if self.pairs else self.alpha
        return [
            ps
            for ps in self.pairs
            if ps.flag != "undetermined" and ps.p_value < thr
        ]


def pairwise_dependence(m: MissMask, alpha: float = ALPHA_DEFAULT) -> DependenceReport:
    """Test every pair of mask columns for association.

    Constant columns yield pairs flagged ``undetermined``. A raw zero cell
    yields a ``degenerate`` flag; statistics are then computed on the
    corrected (+0.5 everywhere) table. The sign is the direction of the
    odds ratio when the pair is significant at ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    bits = m.bits
    n, p = bits.shape
    if n < 2:
        raise ValueError("pairwise dependence needs at least two rows")
    both = m.pair_counts()
    miss = both.diagonal()
    constant = (miss == 0) | (miss == n)
    # Pairs j < k in row-major order; each 2x2 table by integer subtraction:
    # a rows with both missing, b with only M_j, c with only M_k, d neither.
    j, k = np.triu_indices(p, 1)
    a = both[j, k]
    b, c = miss[j] - a, miss[k] - a
    d = n - miss[j] - c
    undetermined = constant[j] | constant[k]
    # A constant column leaves a zero cell too, so no margin below is zero.
    zero = np.minimum(np.minimum(a, b), np.minimum(c, d)) == 0
    a, b, c, d = (np.where(zero, v + 0.5, v) for v in (a, b, c, d))
    odds = (a * d) / (b * c)
    # float_power is C pow, as Python's float ** 2 is; above 2**53 that is
    # not always the correctly rounded x * x.
    stat = (a + b + c + d) * np.float_power(a * d - b * c, 2) / (
        (a + b) * (c + d) * (a + c) * (b + d))
    pval = _chi2_tail(stat)
    significant = (pval < alpha) & ~undetermined
    sign = np.where(significant, np.where(odds > 1.0, SIGN_POSITIVE, SIGN_NEGATIVE),
                    np.where(undetermined, SIGN_UNDETERMINED, SIGN_NONE)).astype(object)
    flag = np.where(undetermined, "undetermined",
                    np.where(zero, "degenerate", "")).astype(object)
    values = np.stack([odds, stat, pval]).astype(object)
    values[:, undetermined] = np.nan

    sign_matrix = np.full((p, p), SIGN_UNDETERMINED, dtype=object)
    sign_matrix[j, k] = sign_matrix[k, j] = sign
    pairs = tuple(map(PairStat, j.tolist(), k.tolist(), *values.tolist(),
                      sign.tolist(), flag.tolist()))
    flags = _single_column_conditioning(bits, both, j[significant], k[significant], alpha)
    return DependenceReport(pairs, sign_matrix, flags, alpha, n, both)


def _chi2_tail(stat: np.ndarray) -> np.ndarray:
    """P(X > stat) for chi-square with one degree of freedom, stat >= 0."""
    return np.array([math.erfc(math.sqrt(x / 2)) for x in stat.tolist()], dtype=float)


def _single_column_conditioning(bits: np.ndarray, both: np.ndarray,
                                js: np.ndarray, ks: np.ndarray, alpha: float):
    """For the significant pairs ``(js, ks)``, note any single mask column
    that explains them; ``both`` is the mask's pair-count matrix.

    Uses the Mantel-Haenszel statistic across the two strata of a third
    column; a non-significant stratified test suggests the marginal
    dependence is induced rather than direct. A column with fewer than two
    rows in a stratum (a constant one, say) conditions nothing.
    """
    n, p = bits.shape
    if not len(js) or p < 3:
        return ()
    # Exact 3-way counts, stratum 0 then 1 on the leading axis, per
    # significant pair (rows) and column l (columns): ns rows with M_l in
    # the stratum, r1 and c1 of them with M_j or M_k missing, a with both.
    a1 = joint_counts(bits, js, ks)
    ns1 = both.diagonal()
    ns = np.stack([n - ns1, ns1])[:, None, :]
    # ns * ns * (ns - 1) in Python integers, which cannot overflow.
    scale = np.reshape([float(v * v * (v - 1)) for v in ns.ravel().tolist()], ns.shape)
    a = np.stack([both[js, ks, None] - a1, a1]).astype(float)
    r1 = np.stack([ns1[js, None] - both[js], both[js]]).astype(float)
    c1 = np.stack([ns1[ks, None] - both[ks], both[ks]]).astype(float)
    # A stratum where M_j or M_k is constant carries no information.
    informative = (r1 > 0) & (r1 < ns) & (c1 > 0) & (c1 < ns)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.where(informative, a - r1 * c1 / ns, 0.0)
        den = np.where(informative,
                       r1 * (ns - r1) * c1 * (ns - c1) / scale, 0.0)
    num, den = num[0] + num[1], den[0] + den[1]
    tested = (ns >= 2).all(axis=0) & (den != 0.0)
    rows = np.arange(len(js))
    tested[rows, js] = tested[rows, ks] = False
    q, l = np.nonzero(tested)
    stat = num[q, l] * num[q, l] / den[q, l]
    keep = _chi2_tail(stat) >= alpha
    return tuple((j, k, f"given M{c + 1}", "independent")
                 for j, k, c in zip(js[q[keep]].tolist(), ks[q[keep]].tolist(),
                                    l[keep].tolist()))


@dataclass(frozen=True)
class SequentialSignature:
    monotone_fraction: float
    forward_only: bool


def sequential_signature(
    m: MissMask, ordering: Sequence[int], report: DependenceReport
) -> SequentialSignature:
    """Quantify how dropout-like a mask is under a declared column order.

    ``report`` is ``m``'s dependence report; its significant pairs, alpha
    and pair counts are read, not recomputed.

    ``monotone_fraction`` is the share of rows whose missing cells form a
    suffix of the ordered columns (fully observed rows count as monotone).
    ``forward_only`` holds when, for every significant pair, the forward
    conditional P(later missing | earlier missing) strictly exceeds the
    backward one; it is vacuously true with no significant pairs.
    """
    p = m.p
    ordering = tuple(int(j) for j in ordering)
    if sorted(ordering) != list(range(p)):
        raise ValueError("ordering must be a permutation of 0..p-1")
    if report.pair_counts.shape != (p, p) or report.n_rows != m.n:
        raise ValueError("the dependence report was built from a different mask")
    fraction = float(monotone_rows(m.bits, ordering).mean())

    pos = np.argsort(ordering)
    sig = report.significant_pairs()
    j = np.array([ps.j for ps in sig], dtype=np.intp)
    k = np.array([ps.k for ps in sig], dtype=np.intp)
    early, late = np.where(pos[j] < pos[k], j, k), np.where(pos[j] < pos[k], k, j)
    both = report.pair_counts
    miss = both.diagonal()
    lagged = both[early, late] / np.maximum(miss[early], 1)
    lead = both[early, late] / np.maximum(miss[late], 1)
    return SequentialSignature(fraction, bool((lagged > lead).all()))


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
    for j, k, cond, _ in report.conditional_flags:
        lines.append(f"  M{j + 1} ~ M{k + 1} explained away {cond}")
    return "\n".join(lines) + "\n"
