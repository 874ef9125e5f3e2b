import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misslab.inference import (
    _t_quantile,
    ols_fit,
    pool,
    predict_mse,
    replicate_metrics,
    t_upper_tail,
)

finite = st.floats(-1e6, 1e6, allow_nan=False)
variances = st.floats(0.0, 1e6, allow_nan=False)


class TestPool:
    def test_degenerate_between_variance(self):
        pe = pool([1.0, 1.0, 1.0], [0.04, 0.04, 0.04])
        assert pe.estimate == 1.0
        assert pe.between == 0.0
        assert pe.total == 0.04
        assert math.isinf(pe.df)
        z = 1.959963984540054
        assert abs(pe.ci_high - (1.0 + z * 0.2)) < 1e-12
        assert abs(pe.ci_low - (1.0 - z * 0.2)) < 1e-12

    def test_hand_computed_two_imputations(self):
        pe = pool([0.0, 2.0], [1.0, 1.0])
        assert abs(pe.estimate - 1.0) < 1e-12
        assert abs(pe.within - 1.0) < 1e-12
        assert abs(pe.between - 2.0) < 1e-12
        assert abs(pe.total - 4.0) < 1e-12
        assert abs(pe.df - (2 - 1) * (1 + 1.0 / 3.0) ** 2) < 1e-12

    def test_permutation_invariance(self):
        a = pool([0.3, -0.1, 0.9], [0.5, 0.2, 0.7])
        b = pool([0.9, 0.3, -0.1], [0.7, 0.5, 0.2])
        for field in ("estimate", "within", "between", "total", "df",
                      "ci_low", "ci_high"):
            assert getattr(a, field) == pytest.approx(getattr(b, field),
                                                      rel=1e-12, abs=1e-12)

    def test_single_imputation_rejected(self):
        with pytest.raises(ValueError, match="m >= 2"):
            pool([1.0], [1.0])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pool([1.0, 2.0], [1.0, -0.5])

    @given(
        st.lists(finite, min_size=2, max_size=10),
        st.floats(1e-6, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    # Tiny nonzero B: Rubin's df overflows a float and must become inf.
    @example(estimates=[0.0, 1.2083245322030456e-143], u=1.0)
    # B = 5e-11: negligible next to U-bar = 1, yet not within 1e-12 of 0.
    @example(estimates=[0.0, 1e-05], u=1.0)
    def test_total_dominates_within(self, estimates, u):
        pe = pool(estimates, [u] * len(estimates))
        assert pe.total >= pe.within - 1e-12
        # T exceeds U-bar by exactly the inflated B, so it collapses to
        # U-bar precisely when the estimates agree.
        assert pe.total - pe.within == pytest.approx((1 + 1 / pe.m) * pe.between)
        if pe.between == 0.0:
            assert pe.total == pe.within
        assert pe.ci_low <= pe.estimate <= pe.ci_high

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.90, 0.95, 0.99, 0.999])
    def test_interval_is_the_student_t_quantile(self, level):
        # The interval is exactly est -+ crit * sqrt(T), and crit stays
        # within 1e-12 of stats.t.ppf from df near 1 up to inf (equal
        # estimates).
        from scipy import stats
        dfs = []
        for m in (2, 3, 5, 20):
            for spread in [0.0, *np.geomspace(1e-8, 1e4, 50)]:
                pe = pool(spread * np.linspace(-1.0, 1.0, m), np.linspace(0.5, 2.0, m),
                          level=level)
                crit = _t_quantile(pe.df, 0.5 * (1.0 + level))
                half = crit * np.sqrt(pe.total)
                assert (pe.ci_low, pe.ci_high) == (pe.estimate - half, pe.estimate + half)
                ref = float(stats.t.ppf(0.5 * (1.0 + level), pe.df))
                assert abs(crit - ref) <= 1e-12 * ref
                dfs.append(pe.df)
        assert math.inf in dfs and min(dfs) < 1.5 and max(d for d in dfs if d < math.inf) > 1e15

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.90, 0.95, 0.99, 0.999])
    def test_t_quantile_closed_forms(self, level):
        p = 0.5 * (1.0 + level)
        q = 1.0 - p
        # df = 1: tan(pi (p - 1/2)), written as 1 / tan(pi q) to keep its
        # digits near p = 1.
        assert _t_quantile(1.0, p) == pytest.approx(1.0 / math.tan(math.pi * q), rel=1e-14, abs=0)
        # df = 2: (2p - 1) / sqrt(2p (1 - p)).
        assert _t_quantile(2.0, p) == pytest.approx((p - q) / math.sqrt(2.0 * p * q),
                                                    rel=1e-14, abs=0)
        assert _t_quantile(math.inf, p) == NormalDist().inv_cdf(p)

    def test_nan_degrees_of_freedom_give_nan(self):
        # The continued fraction never meets its stopping rule on NaN, so
        # without a check it runs to its iteration cap.
        assert math.isnan(_t_quantile(math.nan, 0.975))
        assert math.isnan(t_upper_tail(1.0, math.nan))
        assert math.isnan(t_upper_tail(math.nan, 3.0))
        assert math.isnan(pool([math.nan, 1.0], [1.0, 1.0]).ci_low)

    def test_interval_widens_with_between_variance(self):
        tight = pool([1.0, 1.01, 0.99], [0.1] * 3)
        loose = pool([0.5, 1.5, 1.0], [0.1] * 3)
        assert (loose.ci_high - loose.ci_low) > (tight.ci_high - tight.ci_low)


def _intervals(estimates, half):
    """Estimates with symmetric intervals of half-width ``half``."""
    q = np.asarray(estimates, dtype=float)
    return q, q - half, q + half


class TestReplicateMetrics:
    def test_single_exact_replicate(self):
        rec = replicate_metrics(*_intervals([3.0], 1.0), truth=3.0)
        assert rec.bias == 0.0
        assert rec.coverage == 1.0
        assert rec.mse == 0.0

    def test_symmetric_estimates_have_zero_bias(self):
        rec = replicate_metrics(*_intervals([2.0, 4.0], 0.1), truth=3.0)
        assert abs(rec.bias) < 1e-12
        assert rec.mse == pytest.approx(rec.variance)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_mse_decomposition_identity(self, estimates, truth):
        rec = replicate_metrics(*_intervals(estimates, 1.0), truth)
        scale = max(1.0, abs(rec.mse))
        assert abs(rec.mse - (rec.bias_sq + rec.variance)) < 1e-10 * scale

    def test_nominal_coverage_well_specified(self):
        # Full pipeline on the easiest well-specified problem: a normal
        # mean with cells missing completely at random, properly imputed.
        from misslab.impute import ImputationConfig, fcs_impute
        from misslab.tabular import DataMatrix, MissMask

        rng = np.random.default_rng(1234)
        n, m = 60, 10
        pooled = []
        for rep in range(1000):
            data = rng.normal(0.0, 1.0, size=(n, 1))
            bits = (rng.random((n, 1)) < 0.3).astype(np.uint8)
            if bits.sum() in (0, n):
                bits[0, 0] = 1 - bits[0, 0]
            d = DataMatrix(data.copy(), MissMask(bits), ("y",))
            res = fcs_impute(
                d, ImputationConfig(m=m, maxit=1, method="norm", seed=50_000 + rep)
            )
            ests = [float(c[:, 0].mean()) for c in res.completed]
            variances = [float(c[:, 0].var(ddof=1) / n) for c in res.completed]
            pooled.append(pool(ests, variances))
        rec = replicate_metrics([p.estimate for p in pooled],
                                [p.ci_low for p in pooled],
                                [p.ci_high for p in pooled], truth=0.0)
        assert 0.93 <= rec.coverage <= 0.97

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one replicate"):
            replicate_metrics([], [], [], truth=0.0)


class TestPredictMse:
    def test_perfect_predictions(self):
        truth = np.arange(5.0)
        assert predict_mse(np.tile(truth, (3, 1)), truth) == 0.0

    def test_zero_predictor_matches_response_variance(self):
        rng = np.random.default_rng(2)
        n = 200_000
        x = rng.normal(size=(n, 10))
        y = x.sum(axis=1) + 2.0 * rng.normal(size=n)
        mse = predict_mse(np.zeros((1, n)), y)
        assert abs(mse - 14.0) < 0.2

    def test_complete_data_linear_fit_error(self):
        # Expected test error sigma^2 * (1 + k/n_train) for a fresh fit.
        rng = np.random.default_rng(3)
        n_train, n_test, p = 100, 1000, 10
        mses = []
        for _ in range(200):
            x = rng.normal(size=(n_train + n_test, p))
            y = x.sum(axis=1) + 2.0 * rng.normal(size=n_train + n_test)
            fit = ols_fit(y[:n_train],
                          np.column_stack([np.ones(n_train), x[:n_train]]))
            pred = fit.predict(np.column_stack([np.ones(n_test), x[n_train:]]))
            mses.append(predict_mse(pred[None, :], y[n_train:]))
        assert abs(np.mean(mses) - 4.0 * (1 + 11 / 100)) < 0.15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="truth has"):
            predict_mse(np.zeros((2, 4)), np.zeros(5))

    def test_pooling_averages_imputations(self):
        preds = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert predict_mse(preds, np.array([1.0, 1.0])) == 0.0


class TestOlsFit:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5000, 3))
        y = 1.0 + x @ [2.0, -1.0, 0.5] + 0.1 * rng.normal(size=5000)
        fit = ols_fit(y, np.column_stack([np.ones(5000), x]))
        assert np.allclose(fit.coef, [1.0, 2.0, -1.0, 0.5], atol=0.02)
        assert fit.cov.shape == (4, 4)

    def test_fewer_rows_than_coefficients_raise(self):
        design = np.column_stack([np.ones(3), np.arange(12.0).reshape(3, 4)])
        with pytest.raises(ValueError, match=r"^fewer rows \(3\) than coefficients \(5\)"):
            ols_fit(np.zeros(3), design)
        fit = ols_fit(np.arange(5.0), np.vstack([design, design[:2] + 1.0]))
        assert fit.coef.shape == (5,)
