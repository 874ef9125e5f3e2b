import math
from dataclasses import astuple

import numpy as np
import pytest

from misslab.analyzer import (
    REPORT_COLUMNS,
    _chi2_tail,
    PairStat,
    pairwise_dependence,
    sequential_signature,
    summary_text,
)
from misslab.builtins import builtin_structures, sim3_spec
from misslab.mechanisms import simulate_mask
from misslab.tabular import MissMask, write_table


def loop_pairs(bits, alpha):
    """Reference for the pair tests: each pair j < k in turn, its 2x2 table
    counted from the rows and tested in Python arithmetic."""
    n, p = bits.shape
    pairs = []
    for j in range(p):
        for k in range(j + 1, p):
            mj, mk = bits[:, j] == 1, bits[:, k] == 1
            if mj.all() or not mj.any() or mk.all() or not mk.any():
                pairs.append(PairStat(j, k, np.nan, np.nan, np.nan,
                                      "undetermined", "undetermined"))
                continue
            a, b = float((mj & mk).sum()), float((mj & ~mk).sum())
            c, d = float((~mj & mk).sum()), float((~mj & ~mk).sum())
            flag = ""
            if min(a, b, c, d) == 0.0:
                flag = "degenerate"
                a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
            odds = (a * d) / (b * c)
            total = a + b + c + d
            stat = total * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
            pval = math.erfc(math.sqrt(stat / 2))
            sign = "none"
            if pval < alpha:
                sign = "positive" if odds > 1.0 else "negative"
            pairs.append(PairStat(j, k, odds, stat, pval, sign, flag))
    return pairs


def loop_conditioning(bits, report):
    """Reference for the conditional flags: the Mantel-Haenszel statistic
    of each significant pair given each other column, one stratum at a
    time in Python arithmetic, stratum 0 before stratum 1."""
    out = []
    significant = [ps for ps in report.pairs if ps.p_value < report.alpha]
    for ps in significant:
        for l in range(bits.shape[1]):
            if l in (ps.j, ps.k):
                continue
            num = den = 0.0
            degenerate = False
            for stratum in (0, 1):
                rows = bits[:, l] == stratum
                ns = int(rows.sum())
                if ns < 2:
                    degenerate = True
                    break
                mj, mk = bits[rows, ps.j], bits[rows, ps.k]
                a, r1, c1 = float((mj & mk).sum()), float(mj.sum()), float(mk.sum())
                if r1 in (0.0, ns) or c1 in (0.0, ns):
                    continue
                num += a - r1 * c1 / ns
                den += r1 * (ns - r1) * c1 * (ns - c1) / (ns * ns * (ns - 1))
            if degenerate or den == 0.0:
                continue
            if math.erfc(math.sqrt(num * num / den / 2)) >= report.alpha:
                out.append((ps.j, ps.k, f"given M{l + 1}", "independent"))
    return out


class TestPairwiseDependence:
    def test_pairs_equal_loop_reference(self):
        # Constant, copied and complemented columns, two rows, two columns,
        # and copies at rate one half over 40 000 rows, where (ad - bc)^2
        # passes 2**53 and is rounded.
        rng = np.random.default_rng(15)
        masks = [np.array([[0, 1], [1, 0]]), np.array([[1, 1], [0, 1]]),
                 np.array([[0, 0], [1, 1]])]
        for n in (2, 3, 30, 400, 5000):
            for p in (2, 3, 6):
                bits = (rng.random((n, p)) < rng.random(p)).astype(np.uint8)
                bits[:, p - 1] = bits[:, 0] if n % 2 else 1 - bits[:, 0]
                masks.append(bits)
                masks.append(np.column_stack([bits, np.zeros(n, np.uint8),
                                              np.ones(n, np.uint8)]))
        for name in ("mcar_ws_block", "mcar_ss_seq", "mcar_u_2"):
            spec = builtin_structures(name, 6, 0.3)
            masks.append(simulate_mask(spec, rng.normal(size=(3000, 6)), rng).bits)
        base = (rng.random(40_000) < 0.5).astype(np.uint8)
        noise = (rng.random((40_000, 2)) < 0.002).astype(np.uint8)
        masks.append(np.column_stack([base, base ^ noise[:, 0], 1 - base ^ noise[:, 1]]))
        for bits in masks:
            for alpha in (0.01, 0.3, 0.9):
                report = pairwise_dependence(MissMask(bits), alpha)
                assert [repr(astuple(ps)) for ps in report.pairs] == [
                    repr(astuple(ps)) for ps in loop_pairs(bits, alpha)]

    def test_conditional_flags_equal_loop_reference(self):
        # Shared latent blocks, chains, a constant column, a copied column
        # and tiny samples, at several thresholds.
        rng = np.random.default_rng(14)
        masks = []
        for name in ("mcar_ws_block", "mcar_ws_seq", "mcar_ss_block", "mcar_u_2"):
            spec = builtin_structures(name, 6, 0.3)
            for n in (3, 40, 3000):
                masks.append(simulate_mask(spec, rng.normal(size=(n, 6)), rng).bits)
        for n in (2, 5, 60, 500):
            latent = rng.random((n, 1)) < 0.4
            bits = (rng.random((n, 5)) < np.where(latent, 0.8, 0.1)).astype(np.uint8)
            bits[:, 3] = bits[:, 1]
            bits[:, 4] = 1
            masks.append(bits)
        flagged = 0
        for bits in masks:
            for alpha in (0.01, 0.3, 0.9):
                report = pairwise_dependence(MissMask(bits), alpha)
                assert list(report.conditional_flags) == loop_conditioning(bits, report)
                flagged += len(report.conditional_flags)
        assert flagged > 20

    def test_chi2_tail_matches_scipy(self):
        # erfc(sqrt(x / 2)) against chi2.sf(x, 1) from 0 to past the point
        # where scipy's tail underflows to 0.
        from scipy import stats

        x = np.concatenate([np.linspace(0.0, 1500.0, 300_001), np.geomspace(1e-300, 1.0, 1000)])
        ours, ref = _chi2_tail(x), stats.chi2.sf(x, 1)
        big = ref > 1e-290
        assert np.all(np.abs(ours[big] - ref[big]) <= 1e-12 * ref[big])
        assert np.all(ours[~big] < 1e-280) and (~big).sum() > 10_000

    def test_type_one_error_rate_calibrated(self):
        rng = np.random.default_rng(12)
        bits = (rng.random((100_000, 20)) < 0.5).astype(np.uint8)
        report = pairwise_dependence(MissMask(bits), alpha=0.01)
        rejected = [p for p in report.pairs if p.p_value < 0.01]
        assert len(rejected) / len(report.pairs) <= 0.03

    def test_perfect_negative_dependence_flagged_degenerate(self):
        rng = np.random.default_rng(1)
        m1 = (rng.random(2000) < 0.5).astype(np.uint8)
        report = pairwise_dependence(MissMask(np.column_stack([m1, 1 - m1])))
        pair = report.pair(0, 1)
        assert pair.degenerate
        assert pair.sign == "negative"
        assert pair.odds_ratio < 1.0

    def test_positive_sign_for_low_q(self):
        x = np.random.default_rng(2).normal(size=(20_000, 3))
        mask = simulate_mask(sim3_spec(0.1), x, seed=3)
        report = pairwise_dependence(MissMask(mask.bits[:, 1:]))
        assert report.pair(0, 1).sign == "positive"

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        bits = (rng.random((500, 4)) < 0.3).astype(np.uint8)
        report = pairwise_dependence(MissMask(bits))
        assert report.pair(2, 1) is report.pair(1, 2)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        bits = (rng.random((800, 3)) < 0.4).astype(np.uint8)
        a = pairwise_dependence(MissMask(bits))
        b = pairwise_dependence(MissMask(bits[rng.permutation(800)]))
        for pa, pb in zip(a.pairs, b.pairs):
            assert pa == pb

    def test_constant_column_undetermined(self):
        bits = np.zeros((100, 2), dtype=np.uint8)
        bits[:30, 1] = 1
        report = pairwise_dependence(MissMask(bits))
        assert report.pair(0, 1).flag == "undetermined"
        assert report.pair(0, 1).sign == "undetermined"

    def test_strong_coupling_never_a_quiet_finite_number(self):
        x = np.random.default_rng(6).normal(size=(5000, 10))
        mask = simulate_mask(builtin_structures("mcar_ss_block"), x, seed=7)
        report = pairwise_dependence(MissMask(mask.bits[:, 1:]))
        for p in report.pairs:
            assert p.degenerate  # identical columns leave empty off-cells

    def test_significant_pairs_use_bonferroni_over_all_pairs(self):
        # M1 is constant, so two of the three pairs are undetermined. The
        # M2-M3 table has p = 0.0073: significant at alpha over the one
        # determined pair, but not at alpha over all three pairs, the
        # threshold of significant_pairs and summary_text.
        tables = {(1, 1): 20, (1, 0): 50, (0, 1): 50, (0, 0): 280}
        bits = np.zeros((400, 3), dtype=np.uint8)
        bits[:, 1:] = np.repeat(np.array(list(tables)), list(tables.values()), axis=0)
        report = pairwise_dependence(MissMask(bits), alpha=0.01)
        assert 0.01 / 3 < report.pair(1, 2).p_value < 0.01
        assert report.significant_pairs() == []
        assert "no significant pairwise dependence" in summary_text(report)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two rows"):
            pairwise_dependence(MissMask([[0, 1]]))

    def test_csv_and_summary_render(self, tmp_path):
        rng = np.random.default_rng(8)
        bits = (rng.random((400, 3)) < 0.4).astype(np.uint8)
        bits[:, 2] = 0  # constant column: its pairs are undetermined
        report = pairwise_dependence(MissMask(bits))
        path = tmp_path / "report.csv"
        write_table(path, REPORT_COLUMNS, map(astuple, report.pairs))
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header == ["col_j", "col_k", "odds_ratio", "chi2", "p_value",
                          "sign", "flag"]
        assert len(rows) == len(report.pairs) == 3
        assert float(rows[0][3]) == report.pair(0, 1).chi2
        for row in rows[1:]:
            assert row[2:5] == ["", "", ""]
            assert row[5:] == ["undetermined", "undetermined"]
        assert "pairwise dependence" in summary_text(report)


class TestSequentialSignature:
    def test_monotone_dropout_scores_one(self):
        x = np.random.default_rng(0).normal(size=(10_000, 10))
        mask = simulate_mask(builtin_structures("mcar_ss_seq"), x, seed=1)
        sig = sequential_signature(mask, range(10), pairwise_dependence(mask))
        assert sig.monotone_fraction == 1.0
        assert sig.forward_only

    def test_all_observed_vacuous(self):
        mask = MissMask(np.zeros((50, 4), dtype=np.uint8))
        sig = sequential_signature(mask, range(4), pairwise_dependence(mask))
        assert sig.monotone_fraction == 1.0
        assert sig.forward_only

    def test_symmetric_block_not_forward_only(self):
        x = np.random.default_rng(2).normal(size=(5000, 10))
        mask = simulate_mask(builtin_structures("mcar_ss_block"), x, seed=3)
        bank = MissMask(mask.bits[:, 1:])
        sig = sequential_signature(bank, range(9), pairwise_dependence(bank))
        assert not sig.forward_only

    def test_fraction_counts_suffix_rows(self):
        bits = np.array([[0, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 0]],
                        dtype=np.uint8)
        mask = MissMask(bits)
        sig = sequential_signature(mask, range(3), pairwise_dependence(mask))
        assert sig.monotone_fraction == 0.75

    def test_bad_ordering_rejected(self):
        mask = MissMask(np.zeros((3, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="permutation"):
            sequential_signature(mask, (0, 0), pairwise_dependence(mask))

    def test_report_of_another_mask_rejected(self):
        mask = MissMask(np.zeros((3, 2), dtype=np.uint8))
        other = MissMask(np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="different mask"):
            sequential_signature(mask, (0, 1), pairwise_dependence(other))
