import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blas_kernel import kernel_note, running_core
from misslab.impute import (
    CollinearityError,
    ImputationConfig,
    NonFiniteDrawError,
    UnimputableColumnError,
    _collinear,
    _draw,
    _pmm_donors,
    chain_diagnostics,
    fcs_impute,
    fit_norm_draw,
    fit_pmm_draw,
    pmm_donors,
)
from misslab.tabular import DataMatrix, MissMask, write_table


def design(x):
    return np.column_stack([np.ones(len(x)), x])


def full_sort_donors(eta_obs, eta_mis, donors, rng):
    """Reference matcher: shuffle every row of the n_mis x n_obs distance
    matrix, stable-sort it in full and draw one of its first ``donors``
    columns. Quadratic in memory; for small inputs only."""
    n_obs, n_mis = len(eta_obs), len(eta_mis)
    dist = np.abs(eta_obs[None, :] - eta_mis[:, None])
    perm = rng.permuted(np.tile(np.arange(n_obs), (n_mis, 1)), axis=1)
    shuffled = np.take_along_axis(dist, perm, axis=1)
    order = np.argsort(shuffled, axis=1, kind="stable")[:, :donors]
    donor_idx = np.take_along_axis(perm, order, axis=1)
    return donor_idx[np.arange(n_mis), rng.integers(0, donors, size=n_mis)]


def loop_donors(eta_obs, eta_mis, donors, rngs):
    """Reference for ``_pmm_donors``, one recipient at a time: sort all of a
    recipient's distances to find d_k, take the index ranges of the sorted
    rows within and closer than d_k, then draw ``u`` and the tie draws from
    each chain's generator exactly as the engine does. Quadratic in time."""
    m, n_mis = eta_mis.shape
    out = np.empty((m, n_mis), dtype=np.intp)
    for c, rng in enumerate(rngs):
        order = np.argsort(eta_obs[c], kind="stable")
        srt = eta_obs[c][order]
        lo, hi, lo_close, n_close = (np.zeros(n_mis, dtype=np.intp)
                                     for _ in range(4))
        for r, target in enumerate(eta_mis[c]):
            dist = np.abs(srt - target)
            d_k = np.sort(dist)[donors - 1]
            within = np.flatnonzero(dist <= d_k)
            closer = np.flatnonzero(dist < d_k)
            # Distances fall, then rise along the sorted rows: both are ranges.
            assert within[-1] + 1 - within[0] == within.size
            assert closer.size == 0 or closer[-1] + 1 - closer[0] == closer.size
            lo[r], hi[r] = within[0], within[-1] + 1
            n_close[r] = closer.size
            lo_close[r] = closer[0] if closer.size else 0
        u = rng.integers(0, donors, size=n_mis)
        pick = lo_close + u
        tied = np.flatnonzero(u >= n_close)
        v = lo[tied] + rng.integers(0, hi[tied] - lo[tied] - n_close[tied])
        pick[tied] = np.where(v < lo_close[tied], v, v + n_close[tied])
        out[c] = order[pick]
    return out


@st.composite
def tie_heavy_searches(draw):
    """Chains of predictions on a coarse grid (long runs of equal values,
    distances tied on both sides), with recipients on a finer grid that
    reaches past both ends, and any donor count from 1 to n_obs."""
    m = draw(st.integers(1, 4))
    n_obs = draw(st.integers(1, 30))
    n_mis = draw(st.integers(1, 25))
    donors = draw(st.integers(1, n_obs))
    spread = draw(st.sampled_from([0, 1, 2, 4, 1000]))
    grid = st.integers(-spread, spread)
    eta_obs = np.array(draw(st.lists(grid, min_size=m * n_obs, max_size=m * n_obs)),
                       dtype=float).reshape(m, n_obs)
    targets = st.integers(-4 * spread - 4, 4 * spread + 4)
    eta_mis = np.array(draw(st.lists(targets, min_size=m * n_mis, max_size=m * n_mis)),
                       dtype=float).reshape(m, n_mis) / 2
    return eta_obs, eta_mis, donors, draw(st.integers(0, 2**32 - 1))


def candidates(eta_obs, target, donors):
    """Rows strictly closer than the ``donors``-th smallest distance, and
    rows tied at it, from a full sort."""
    dist = np.abs(eta_obs - target)
    d_k = np.sort(dist)[donors - 1]
    return dist < d_k, dist == d_k


def counts_by_recipient(idx, n_targets, reps, n_obs):
    return np.stack([
        np.bincount(idx[t * reps:(t + 1) * reps], minlength=n_obs)
        for t in range(n_targets)
    ])


def assert_full_sort_law(idx, eta_obs, targets, donors, reps, rng, context):
    """Donors ``idx`` for ``reps`` recipients at each of ``targets`` come
    only from the candidate set, reach every candidate, and have the
    full-sort oracle's frequencies within 5 SE of a two-sample difference."""
    n_obs = len(eta_obs)
    new = counts_by_recipient(idx, len(targets), reps, n_obs)
    old = counts_by_recipient(
        full_sort_donors(eta_obs, np.repeat(targets, reps), donors, rng),
        len(targets), reps, n_obs)
    for t, target in enumerate(targets):
        closer, tied = candidates(eta_obs, target, donors)
        allowed = closer | tied
        assert new[t, ~allowed].sum() == 0, (context, target)
        assert (new[t, allowed] > 0).all(), (context, target)
        p = (new[t] + old[t]) / (2 * reps)
        se = np.sqrt(p * (1 - p) * 2 / reps)
        gap = np.abs(new[t] - old[t]) / reps
        assert (gap <= 5 * se + 1e-12).all(), (context, target)


def masked(values, bits, names=None, logical=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"X{j+1}" for j in range(values.shape[1]))
    return DataMatrix(values, MissMask(np.asarray(bits, dtype=np.uint8), logical),
                      names)


class TestNormDraw:
    def test_exact_fit_collapses_to_truth(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        d = fit_norm_draw(2 * x, design(x), design(x[:10]), ridge=0.0,
                          rng=np.random.default_rng(1))
        assert np.allclose(d.beta_star, [0.0, 2.0], atol=1e-12)
        assert np.allclose(d.values, 2 * x[:10], atol=1e-12)

    def test_point_estimate_matches_least_squares_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 2))
        y = x @ [1.5, -0.5] + rng.normal(size=200)
        X = design(x)
        d = fit_norm_draw(y, X, X[:1], ridge=0.0, rng=np.random.default_rng(3))
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.max(np.abs(d.beta_hat - oracle)) < 1e-10 * max(1, np.abs(oracle).max())

    def test_intercept_only_mean_recovered(self):
        n = 10_000
        rng = np.random.default_rng(4)
        y = rng.normal(5.0, 1.0, size=n)
        X = np.ones((n, 1))
        d = fit_norm_draw(y, X, np.ones((n, 1)), ridge=0.0,
                          rng=np.random.default_rng(5))
        assert abs(d.values.mean() - 5.0) < 3.0 / math.sqrt(n) + 3.0 / math.sqrt(n)

    def test_posterior_draws_center_on_point_estimate(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=100)
        y = 1.0 + 0.5 * x + rng.normal(size=100)
        X = design(x)
        draw_rng = np.random.default_rng(7)
        draws = np.array(
            [fit_norm_draw(y, X, X[:0], 0.0, draw_rng).beta_star for _ in range(10_000)]
        )
        point = fit_norm_draw(y, X, X[:0], 0.0, np.random.default_rng(8)).beta_hat
        se = draws.std(axis=0) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - point) < 4 * se)

    def test_singular_design_names_columns(self):
        x = np.ones((50, 1))
        X = np.column_stack([x, x])  # duplicated constant, ridge 0
        with pytest.raises(CollinearityError, match="collinear design columns: 1$"):
            fit_norm_draw(np.zeros(50), X, X, ridge=0.0,
                          rng=np.random.default_rng(9))


def exact_rank(x):
    """Rank of an integer matrix by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(v)) for v in row] for row in x]
    rank = 0
    for col in range(x.shape[1]):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def planted_designs(draw):
    """Integer designs with some columns planted as zero, or as a copy, a
    multiple or a sum of earlier columns."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    x = draw(arrays(np.int64, (n, k), elements=st.integers(-3, 3)))
    for j in range(k):
        kind = draw(st.sampled_from(("free", "zero", "copy", "scale", "sum")[:5 if j else 2]))
        earlier = st.integers(0, j - 1)
        if kind == "zero":
            x[:, j] = 0
        elif kind == "copy":
            x[:, j] = x[:, draw(earlier)]
        elif kind == "scale":
            x[:, j] = draw(st.sampled_from((-3, -2, -1, 2, 3))) * x[:, draw(earlier)]
        elif kind == "sum":
            x[:, j] = x[:, draw(earlier)] + x[:, draw(earlier)]
    return x


@given(planted_designs())
@example(np.array([[1, 2], [-2, -4], [3, 6]]))  # [x, 2x]: column 1 is the copy
@settings(max_examples=300, deadline=None)
def test_collinear_names_the_columns_that_add_no_exact_rank(x):
    ranks = [exact_rank(x[:, :j]) for j in range(x.shape[1] + 1)]
    want = tuple(j for j in range(x.shape[1]) if ranks[j + 1] == ranks[j])
    assert _collinear(x.astype(float), "").columns == want


@pytest.mark.parametrize("fit", [fit_norm_draw, fit_pmm_draw])
def test_no_observed_rows_is_an_error(fit):
    with pytest.raises(ValueError, match="^no observed rows to fit$"):
        fit(np.zeros(0), np.zeros((0, 2)), np.ones((3, 2)),
            rng=np.random.default_rng(0))


class TestPmmDraw:
    def test_single_observed_donor(self):
        d = fit_pmm_draw(
            np.array([7.0]), np.ones((1, 1)), np.ones((4, 1)), donors=1,
            ridge=0.0, rng=np.random.default_rng(0),
        )
        assert np.all(d.values == 7.0)

    def test_closure_over_observed_values(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 2))
        y = x @ [1.0, 2.0] + rng.normal(size=300)
        X = design(x)
        d = fit_pmm_draw(y, X, X, donors=5, ridge=1e-5,
                         rng=np.random.default_rng(2))
        assert np.isin(d.values, y).all()

    def test_binary_target_stays_binary(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        y = (x > 0).astype(float)
        X = design(x)
        d = fit_pmm_draw(y, X, X[:100], donors=5, ridge=1e-5,
                         rng=np.random.default_rng(4))
        assert set(np.unique(d.values)) <= {0.0, 1.0}

    def test_donor_shortage_is_an_error(self):
        with pytest.raises(ValueError, match="donors=5 exceeds"):
            fit_pmm_draw(np.ones(3), np.ones((3, 1)), np.ones((1, 1)), donors=5,
                         ridge=0.0, rng=np.random.default_rng(5))

    def test_tied_predictions_spread_over_donors(self):
        # All predictions identical: donor sets are uniform over candidates.
        y = np.arange(20.0)
        X = np.ones((20, 1))
        rng = np.random.default_rng(6)
        values = fit_pmm_draw(y, X, np.ones((4000, 1)), donors=20, ridge=0.0,
                              rng=rng).values
        counts = np.bincount(values.astype(int), minlength=20)
        assert counts.min() > 100  # roughly uniform, 200 expected each


class TestPmmDonors:
    GOLDEN = "a7bef31b791ad747f6afb1cdfdc06c99cead98d7ed5976d49cb9f84c6ad9cfc3"

    def test_matches_full_sort_oracle_on_heavy_ties(self):
        # Integer predictions and half-integer recipients give ties on one
        # side and on both sides of a recipient, and runs of equal values
        # longer than 2 * donors.
        rng = np.random.default_rng(40)
        reps = 4000
        for trial in range(12):
            n_obs = int(rng.integers(1, 21))
            eta_obs = np.round(rng.normal(scale=1.5, size=n_obs))
            targets = np.arange(-4.0, 4.5, 0.5)
            eta_mis = np.repeat(targets, reps)
            for donors in sorted({1, (n_obs + 1) // 2, n_obs,
                                  int(rng.integers(1, n_obs + 1))}):
                assert_full_sort_law(pmm_donors(eta_obs, eta_mis, donors, rng),
                                     eta_obs, targets, donors, reps, rng,
                                     (trial, donors))

    def test_tie_run_past_the_window_is_uniform(self):
        # Runs of 3 * donors + 3 equal predictions at 0 and at 1: a
        # recipient at 0.25 draws only from the run at 0 (to its left), one
        # at 0.75 only from the run at 1 (to its right), one at 0.5 from
        # both; each run is longer than the 2 * donors sorted neighbours.
        donors, run = 4, 15
        eta_obs = np.concatenate([
            np.arange(-20.0, 0.0), np.zeros(run), np.ones(run),
            np.arange(2.0, 22.0),
        ])
        shuffle = np.random.default_rng(41).permutation(len(eta_obs))
        eta_obs = eta_obs[shuffle]
        reps = 30_000
        targets = (0.25, 0.75, 0.5)
        idx = pmm_donors(eta_obs, np.repeat(targets, reps), donors,
                         np.random.default_rng(42))
        counts = counts_by_recipient(idx, len(targets), reps, len(eta_obs))
        for t, members in enumerate((eta_obs == 0, eta_obs == 1,
                                     (eta_obs == 0) | (eta_obs == 1))):
            assert counts[t, ~members].sum() == 0
            p = 1 / members.sum()
            se = math.sqrt(reps * p * (1 - p))
            assert (np.abs(counts[t, members] - reps * p) < 5 * se).all()

    def test_memory_stays_linear(self):
        # The full-sort matcher needs 3.2 GB for each 20 000 x 20 000 array.
        n, donors = 20_000, 5
        rng = np.random.default_rng(43)
        x = np.column_stack([np.ones(2 * n), rng.normal(size=(2 * n, 2))])
        y = x[:n] @ [1.0, 2.0, 3.0] + rng.normal(size=n)
        x_obs, x_mis = x[:n].copy(), x[n:].copy()
        bound = 400 * (n + n)  # bytes
        for args in ((y, x_obs, x_mis, donors, 1e-5),
                     # constant design: every prediction tied
                     (y, np.ones((n, 1)), np.ones((n, 1)), donors, 0.0)):
            tracemalloc.start()
            try:
                fit_pmm_draw(*args, rng=np.random.default_rng(44))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, peak

    def test_no_recipients(self):
        idx = pmm_donors(np.arange(5.0), np.empty(0), 3,
                         np.random.default_rng(45))
        assert idx.shape == (0,)
        d = fit_pmm_draw(np.arange(5.0), np.ones((5, 1)), np.empty((0, 1)),
                         donors=3, ridge=0.0, rng=np.random.default_rng(45))
        assert d.values.shape == (0,)

    def test_donors_equal_to_observed_rows_is_uniform(self):
        eta_obs = np.array([0.0, 0.1, 0.5, 2.0, 7.0])
        reps = 20_000
        idx = pmm_donors(eta_obs, np.full(reps, 0.2), 5,
                         np.random.default_rng(46))
        counts = np.bincount(idx, minlength=5)
        se = math.sqrt(reps * 0.2 * 0.8)
        assert (np.abs(counts - reps * 0.2) < 5 * se).all()

    def test_single_observed_row(self):
        idx = pmm_donors(np.array([3.0]), np.array([-1.0, 3.0, 9.0]), 1,
                         np.random.default_rng(47))
        assert idx.tolist() == [0, 0, 0]

    def test_numpy_integer_donor_count(self):
        eta_obs, eta_mis = np.arange(6.0), np.array([0.4, 2.5, 9.0])
        idx = [pmm_donors(eta_obs, eta_mis, donors, np.random.default_rng(5))
               for donors in (3, np.int64(3))]
        assert np.array_equal(*idx)

    def test_donor_count_out_of_range(self):
        with pytest.raises(ValueError, match="donors=4"):
            pmm_donors(np.arange(3.0), np.zeros(1), 4, np.random.default_rng(0))

    def test_non_finite_predictions_rejected(self):
        with pytest.raises(ValueError, match="non-finite predictions"):
            pmm_donors(np.array([0.0, np.nan]), np.zeros(1), 1,
                       np.random.default_rng(0))

    def test_batched_chains_match_full_sort_oracle(self):
        # Three chains at once, each with its own integer-rounded (so
        # heavily duplicated) predictions and its own generator. Each chain
        # must equal a lone search from the same generator state, and its
        # donor frequencies must match the full-sort oracle.
        rng = np.random.default_rng(48)
        m, n_obs, donors, reps = 3, 15, 4, 4000
        eta_obs = np.round(rng.normal(scale=1.5, size=(m, n_obs)))
        eta_obs[1, :6] = eta_obs[1, 0]  # a tie run longer than 2 * donors
        eta_obs[2, 3:12] = 0.0
        targets = np.arange(-3.0, 3.5, 0.5)
        eta_mis = np.tile(np.repeat(targets, reps), (m, 1))
        seeds = np.random.SeedSequence(49).spawn(m)
        batched = _pmm_donors(eta_obs, eta_mis, donors,
                              [np.random.default_rng(s) for s in seeds])
        assert batched.shape == (m, len(targets) * reps)
        for c in range(m):
            alone = pmm_donors(eta_obs[c], eta_mis[c], donors,
                               np.random.default_rng(seeds[c]))
            assert np.array_equal(batched[c], alone)
            assert_full_sort_law(batched[c], eta_obs[c], targets, donors, reps,
                                 rng, c)

    @staticmethod
    def assert_equals_loop_reference(eta_obs, eta_mis, donors, seeds):
        # The same donors, and every generator left in the same state as by
        # the reference, which makes a tie draw for every tied recipient.
        engine = [np.random.default_rng(s) for s in seeds]
        loop = [np.random.default_rng(s) for s in seeds]
        assert np.array_equal(_pmm_donors(eta_obs, eta_mis, donors, engine),
                              loop_donors(eta_obs, eta_mis, donors, loop))
        assert ([r.bit_generator.state for r in engine]
                == [r.bit_generator.state for r in loop])

    @given(tie_heavy_searches())
    @settings(max_examples=400, deadline=None)
    def test_equals_loop_reference(self, case):
        eta_obs, eta_mis, donors, seed = case
        self.assert_equals_loop_reference(
            eta_obs, eta_mis, donors, np.random.SeedSequence(seed).spawn(len(eta_obs)))

    @pytest.mark.parametrize("n_obs, donors", [(1, 1), (9, 9), (40, 3)])
    def test_equals_loop_reference_at_the_edges(self, n_obs, donors):
        # One observed row, every row a donor, and a run of 20 equal
        # predictions (longer than 2 * donors) with recipients on it, beside
        # it, and beyond both ends.
        rng = np.random.default_rng(55)
        eta_obs = np.round(rng.normal(scale=2.0, size=(2, n_obs)))
        eta_obs[:, :n_obs // 2] = 1.0
        eta_mis = np.tile(np.arange(-12.0, 12.5, 0.5), (2, 1))
        self.assert_equals_loop_reference(eta_obs, eta_mis, donors,
                                          np.random.SeedSequence(56).spawn(2))

    @pytest.mark.parametrize("scale", [None, 1.0, 3.0])
    def test_tie_draws_only_where_a_tie_spans_rows(self, scale):
        # Distinct predictions (no tie wider than one row, so no tie draw
        # at all), then integer-rounded ones, where some chains' tied
        # recipients all have one-row ties and others have wider ones.
        rng = np.random.default_rng(59)
        eta_obs = rng.normal(size=(4, 55))
        eta_mis = rng.normal(size=(4, 495))
        if scale is not None:
            eta_obs, eta_mis = np.round(eta_obs * scale), np.round(eta_mis * scale, 1)
        self.assert_equals_loop_reference(eta_obs, eta_mis, 5,
                                          np.random.SeedSequence(60).spawn(4))

    def test_golden_digest(self):
        # Recorded with the earlier search over 2 * donors-wide windows.
        rng = np.random.default_rng(57)
        eta_obs = np.round(rng.normal(scale=2.0, size=(3, 60)))
        eta_obs[1, 10:40] = 0.0
        eta_mis = np.round(rng.normal(scale=4.0, size=(3, 3000)), 1)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(58).spawn(3)]
        assert sha256(_pmm_donors(eta_obs, eta_mis, 5, rngs)) == self.GOLDEN


class TestFcsImpute:
    def test_complete_input_passes_through(self):
        d = masked(np.arange(12.0).reshape(4, 3), np.zeros((4, 3)))
        res = fcs_impute(d, ImputationConfig(m=3, maxit=2, seed=0))
        assert res.visited_columns == ()
        for completed in res.completed:
            assert np.array_equal(completed, d.values)

    def test_mcar_column_mean_recovered(self):
        n = 5000
        rng = np.random.default_rng(10)
        data = np.column_stack([
            rng.normal(3.0, 1.0, n), rng.normal(size=n), rng.normal(size=n)
        ])
        bits = np.zeros((n, 3), dtype=np.uint8)
        bits[rng.random(n) < 0.2, 0] = 1
        d = masked(data, bits)
        res = fcs_impute(d, ImputationConfig(m=20, maxit=5, method="norm", seed=11))
        pooled_mean = np.mean([c[:, 0].mean() for c in res.completed])
        assert abs(pooled_mean - data[:, 0].mean()) < 3.0 / math.sqrt(n)

    def test_observed_cells_untouched(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(200, 3))
        bits = (rng.random((200, 3)) < 0.3).astype(np.uint8)
        bits[:, 0] = 0
        d = masked(data, bits)
        res = fcs_impute(d, ImputationConfig(m=4, maxit=3, method="pmm", seed=13))
        obs = bits == 0
        for completed in res.completed:
            assert np.array_equal(completed[obs], data[obs])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(150, 3))
        bits = (rng.random((150, 3)) < 0.25).astype(np.uint8)
        d = masked(data, bits)
        cfg = ImputationConfig(m=3, maxit=4, method="pmm", seed=15)
        a = fcs_impute(d, cfg)
        b = fcs_impute(d, cfg)
        for ca, cb in zip(a.completed, b.completed):
            assert np.array_equal(ca, cb)
        c = fcs_impute(d, ImputationConfig(m=3, maxit=4, method="pmm", seed=16))
        assert not all(
            np.array_equal(ca, cc) for ca, cc in zip(a.completed, c.completed)
        )

    def test_ignored_rows_never_influence_fits(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(120, 3))
        bits = (rng.random((120, 3)) < 0.3).astype(np.uint8)
        ignore = np.zeros(120, dtype=bool)
        ignore[100:] = True
        cfg = ImputationConfig(m=2, maxit=3, method="norm",
                               ignore=tuple(ignore), seed=18)
        res_a = fcs_impute(masked(data, bits), cfg)

        poisoned = data.copy()
        poisoned[100:] = 99.0  # dummy values, dims preserved
        res_b = fcs_impute(masked(poisoned, bits), cfg)

        keep = ~ignore
        for ca, cb in zip(res_a.completed, res_b.completed):
            assert np.array_equal(ca[keep], cb[keep])

    def test_ignored_rows_still_imputed(self):
        rng = np.random.default_rng(19)
        data = rng.normal(size=(60, 2))
        bits = np.zeros((60, 2), dtype=np.uint8)
        bits[40:, 1] = 1
        ignore = np.zeros(60, dtype=bool)
        ignore[40:] = True
        res = fcs_impute(
            masked(data, bits),
            ImputationConfig(m=2, maxit=2, method="norm",
                             ignore=tuple(ignore), seed=20),
        )
        for completed in res.completed:
            assert np.isfinite(completed[40:, 1]).all()

    def test_pmm_closure_engine_level(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(500, 3))
        bits = (rng.random((500, 3)) < 0.4).astype(np.uint8)
        d = masked(data, bits)
        res = fcs_impute(d, ImputationConfig(m=2, maxit=3, method="pmm", seed=22))
        for j in range(3):
            observed = data[bits[:, j] == 0, j]
            for completed in res.completed:
                assert np.isin(completed[bits[:, j] == 1, j], observed).all()

    def test_fully_missing_column_reported(self):
        data = np.ones((10, 2))
        bits = np.zeros((10, 2), dtype=np.uint8)
        bits[:, 1] = 1
        with pytest.raises(UnimputableColumnError, match="'X2'"):
            fcs_impute(masked(data, bits), ImputationConfig(seed=0))

    def test_nonfinite_observed_cell_rejected(self):
        data = np.ones((5, 2))
        data[0, 0] = np.inf
        bits = np.zeros((5, 2), dtype=np.uint8)
        bits[1, 1] = 1
        with pytest.raises(ValueError, match="non-finite observed value"):
            fcs_impute(masked(data, bits), ImputationConfig(seed=0))

    @pytest.mark.parametrize("method", ["mice", ("norm", "pmm")])
    def test_method_must_be_one_known_name(self, method):
        data = np.ones((5, 2))
        bits = np.zeros((5, 2), dtype=np.uint8)
        bits[1, 1] = 1
        with pytest.raises(ValueError, match="unknown method"):
            fcs_impute(masked(data, bits), ImputationConfig(method=method, seed=0))

    def test_logical_cells_stay_empty(self):
        rng = np.random.default_rng(23)
        data = rng.normal(size=(80, 3))
        bits = np.zeros((80, 3), dtype=np.uint8)
        bits[:20, 1] = 1   # logically missing
        bits[20:40, 1] = 1  # ordinary missing
        logical = np.zeros((80, 3), dtype=np.uint8)
        logical[:20, 1] = 1
        d = masked(data, bits, logical=logical)
        res = fcs_impute(d, ImputationConfig(m=2, maxit=2, method="norm", seed=24))
        for completed in res.completed:
            assert np.isnan(completed[:20, 1]).all()
            assert np.isfinite(completed[20:40, 1]).all()

    def test_file_matching_runs_to_completion(self):
        from misslab.builtins import sim2_spec
        from misslab.mechanisms import simulate_mask

        rng = np.random.default_rng(25)
        n = 1000
        x1 = rng.standard_normal(n)
        x2 = 2 * x1 + rng.standard_normal(n)
        x3 = 1 + x1 + 2 * x2 + rng.standard_normal(n)
        x = np.column_stack([x1, x2, x3])
        mask = simulate_mask(sim2_spec(1.0), x, seed=26)
        d = DataMatrix(x.copy(), mask, ("X1", "X2", "X3"))
        res = fcs_impute(d, ImputationConfig(m=5, maxit=50, method="norm", seed=27))
        for completed in res.completed:
            assert np.isfinite(completed).all()


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def engine_case():
    """A small table with ties, ignored rows and logically missing cells."""
    rng = np.random.default_rng(2024)
    data = np.round(rng.normal(size=(40, 4)), 1)
    bits = (rng.random((40, 4)) < 0.3).astype(np.uint8)
    bits[:3] = 0
    logical = np.zeros_like(bits)
    logical[np.flatnonzero(bits[:, 2])[:2], 2] = 1
    ignore = tuple(np.arange(40) >= 32)
    return masked(data, bits, ("a", "b", "c", "d"), logical), ignore


def lapack_draw(y_obs, x_obs, x_mis, ridge, rng, norm):
    """Reference for one chain of ``_draw``, solving with scipy's LAPACK
    wrappers as the engine once did: ``dpotrs`` on the Cholesky factor for
    beta_hat and ``dtrtrs`` on its transpose for the step. Returns beta_hat,
    the step, sigma and, for ``norm``, the drawn values."""
    from scipy.linalg.lapack import dpotrs, dtrtrs

    n_obs, k = x_obs.shape
    s = x_obs.T @ x_obs
    d = np.arange(k)
    s[d, d] += ridge * s[d, d]
    chol = np.linalg.cholesky(s)
    beta_hat = dpotrs(chol, x_obs.T @ y_obs, lower=1)[0]
    chi2 = rng.chisquare(max(n_obs - k, 1))
    step = dtrtrs(chol.T, rng.standard_normal(k))[0]
    sigma = np.sqrt(((y_obs - x_obs @ beta_hat) ** 2).sum() / chi2)
    values = (x_mis @ (beta_hat + sigma * step)
              + sigma * rng.standard_normal(len(x_mis))) if norm else None
    return beta_hat, step, sigma, values


class FailingChain:
    """A chain generator whose ``chisquare`` returns 0, an infinite residual
    scale and so a non-finite draw, from its ``fail_at``-th call on (one
    call per visited column and sweep)."""

    def __init__(self, rng, fail_at):
        self._rng, self._left = rng, fail_at

    def chisquare(self, dof):
        self._left -= 1
        return 0.0 if self._left <= 0 else self._rng.chisquare(dof)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestEngine:
    # Digests of the completed arrays and chain_means. pmm was recorded with
    # the earlier engine that ran the chains one after another. norm was
    # re-recorded when the normal equations moved from scipy's per-chain
    # dpotrs/dtrtrs to batched numpy.linalg.solve: beta_hat, and with it
    # every norm draw, moves in its last bits (test_solves_match_lapack_reference
    # bounds the move); the pmm donors do not change.
    GOLDEN = {
        "norm": ("6742bc284ec6a46d60dc34fe84c310306e152cafbdd5df6b8d1776b16dd155f9",
                 "6232af201631db67343d3bdd5c40ec0b83f8ee4071f47806653ade25e8881de4"),
        "pmm": ("b6e6e25820d33fbbb4d22cc8c82e29bd76b89193165c620c1701454df3307e6e",
                "cef2b4e96b0268579d28a2ec3fcffd81e7c6d60b57c1ef0b7d2f86e1f57a0d86"),
    }

    @pytest.mark.parametrize("method", ["norm", "pmm"])
    def test_golden_digests(self, method):
        d, ignore = engine_case()
        res = fcs_impute(d, ImputationConfig(m=3, maxit=3, method=method, donors=3,
                                             ignore=ignore, seed=99))
        assert (sha256(np.stack(res.completed)), sha256(res.chain_means)) == (
            self.GOLDEN[method]), kernel_note()

    def test_digest_failures_name_the_blas_kernel(self, tmp_path):
        assert running_core()
        assert running_core(tmp_path) == "unknown"  # no bundled OpenBLAS there

    @pytest.mark.parametrize("method", ["norm", "pmm"])
    def test_solves_match_lapack_reference(self, method):
        # Correlated columns and a pure-noise response, so the step is of
        # the order of beta_hat. Chains differ in their designs.
        rng = np.random.default_rng(61)
        m, n_obs, n_mis, k = 4, 90, 30, 6
        x = rng.normal(size=(m, n_obs + n_mis, k)) + rng.normal(size=(m, n_obs + n_mis, 1))
        x[..., 0] = 1.0
        y_obs = rng.normal(size=(m, n_obs))
        x_obs, x_mis = x[:, :n_obs].copy(), x[:, n_obs:].copy()
        seeds = np.random.SeedSequence(62).spawn(m)
        donors = None if method == "norm" else 5
        draw = _draw(y_obs, x_obs, x_mis, donors, 1e-5,
                     [np.random.default_rng(s) for s in seeds])
        for c, seed in enumerate(seeds):
            beta_hat, step, sigma, values = lapack_draw(
                y_obs[c], x_obs[c], x_mis[c], 1e-5, np.random.default_rng(seed),
                method == "norm")
            np.testing.assert_allclose(draw.beta_hat[c], beta_hat, rtol=1e-12, atol=0)
            np.testing.assert_allclose(draw.sigma[c], sigma, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                (draw.beta_star[c] - draw.beta_hat[c]) / draw.sigma[c], step,
                rtol=0, atol=1e-12)
            if values is not None:
                np.testing.assert_allclose(draw.values[c], values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", ["norm", "pmm"])
    def test_chains_are_independent(self, method):
        # Chain c draws from SeedSequence(seed).spawn(m)[c]. A seed sequence
        # that has already spawned c children spawns that same sequence as
        # its next one, so a one-chain run from it must give chain c.
        d, ignore = engine_case()
        seed, m = 7, 4
        cfg = ImputationConfig(m=m, maxit=3, method=method, donors=3,
                               ignore=ignore, seed=seed)
        together = fcs_impute(d, cfg)
        for c in range(m):
            parent = np.random.SeedSequence(seed, n_children_spawned=c)
            alone = fcs_impute(d, ImputationConfig(
                m=1, maxit=3, method=method, donors=3, ignore=ignore, seed=parent))
            assert parent.n_children_spawned == c + 1
            assert np.array_equal(together.completed[c], alone.completed[0],
                                  equal_nan=True)
            assert np.array_equal(together.chain_means[c], alone.chain_means[0],
                                  equal_nan=True)
            assert np.array_equal(together.chain_sds[c], alone.chain_sds[0],
                                  equal_nan=True)

    @pytest.mark.parametrize("method", ["norm", "pmm"])
    def test_collinear_design_names_columns(self, method):
        rng = np.random.default_rng(50)
        base = rng.normal(size=60)
        values = np.column_stack([base, rng.normal(size=60), 2 * base,
                                  rng.normal(size=60)])
        bits = np.zeros((60, 4), dtype=np.uint8)
        bits[40:, 3] = 1
        bits[:5, 1] = 1
        with pytest.raises(CollinearityError) as info:
            fcs_impute(masked(values, bits), ImputationConfig(
                m=3, maxit=2, method=method, ridge=0.0, seed=1))
        # Design columns: the intercept, then X1 (base), X3 (2 * base), X4.
        assert info.value.columns == (2,)
        assert str(info.value).startswith("design is singular for column 'X2' at sweep 1;")

    @staticmethod
    def overflowing_case():
        # Residuals near 1e160 square past the float range: every chain's
        # residual scale, and so its draw, is infinite.
        rng = np.random.default_rng(51)
        values = np.column_stack([rng.normal(size=60), rng.normal(size=60) * 1e160])
        bits = np.zeros((60, 2), dtype=np.uint8)
        bits[:10, 1] = 1
        return values, bits

    @pytest.mark.parametrize("method", ["norm", "pmm"])
    def test_non_finite_draw_names_column_sweep_and_chain(self, method):
        values, bits = self.overflowing_case()
        with pytest.raises(NonFiniteDrawError,
                           match="column 'X2' at sweep 1 in chain 0"):
            fcs_impute(masked(values, bits), ImputationConfig(
                m=3, maxit=2, method=method, seed=2))

    def test_non_finite_draw_raises_without_numpy_warnings(self):
        values, bits = self.overflowing_case()
        x = design(values[:, 0])
        y_obs, x_obs, x_mis = values[10:, 1], x[10:], x[:10]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for method in ("norm", "pmm"):
                with pytest.raises(NonFiniteDrawError):
                    fcs_impute(masked(values, bits), ImputationConfig(
                        m=3, maxit=2, method=method, seed=2))
            with pytest.raises(NonFiniteDrawError):
                fit_norm_draw(y_obs, x_obs, x_mis, rng=np.random.default_rng(2))
            with pytest.raises(NonFiniteDrawError):
                fit_pmm_draw(y_obs, x_obs, x_mis, rng=np.random.default_rng(2))
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("fail_at, expected", [
        # chain 0 first fails at sweep 2, chain 1 at sweep 1: sweep 1 wins
        ((3, 1, None), "column 'X1' at sweep 1 in chain 1"),
        # chains 0 and 2 fail at the same (sweep, column): the lower wins
        ((2, None, 2), "column 'X3' at sweep 1 in chain 0"),
        # the second visited column of sweep 2 comes before sweep 3
        ((None, 6, 4), "column 'X3' at sweep 2 in chain 2"),
    ])
    def test_first_failing_sweep_and_column_then_lowest_chain(
            self, monkeypatch, recwarn, fail_at, expected):
        rng = np.random.default_rng(52)
        bits = (rng.random((80, 3)) < 0.2).astype(np.uint8)
        bits[:, 1] = 0  # visited columns: X1, X3
        d = masked(rng.normal(size=(80, 3)), bits)
        real = np.random.default_rng
        made = []

        def default_rng(seed):
            chain = FailingChain(real(seed), fail_at[len(made)] or 10**6)
            made.append(chain)
            return chain

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        with pytest.raises(NonFiniteDrawError, match=expected):
            fcs_impute(d, ImputationConfig(m=3, maxit=3, method="norm", seed=3))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestChainDiagnostics:
    def _result(self, m, maxit=4, seed=30):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(200, 3))
        bits = np.zeros((200, 3), dtype=np.uint8)
        bits[rng.random(200) < 0.3, 1] = 1
        d = masked(data, bits)
        return fcs_impute(d, ImputationConfig(m=m, maxit=maxit, method="norm",
                                              seed=seed))

    def test_complete_columns_produce_no_rows(self):
        diag = chain_diagnostics(self._result(m=3))
        assert all(name == "X2" for _, _, name, _, _ in diag.rows)
        assert len(diag.rows) == 3 * 4

    def test_csv_rows_shape(self, tmp_path):
        rng = np.random.default_rng(33)
        bits = np.zeros((50, 3), dtype=np.uint8)
        bits[rng.random(50) < 0.3, 1] = 1
        bits[7, 2] = 1  # one imputed cell: its sd is undefined
        result = fcs_impute(masked(rng.normal(size=(50, 3)), bits),
                            ImputationConfig(m=2, maxit=4, method="norm", seed=33))
        diag = chain_diagnostics(result)
        path = tmp_path / "diagnostics.csv"
        write_table(path, diag.columns, diag.rows)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header == ["chain", "iteration", "column", "mean", "sd"]
        assert len(rows) == 2 * 4 * 2
        for _, _, name, mean, sd in rows:
            assert mean and not math.isnan(float(mean))
            assert (sd == "") == (name == "X3")

    def test_slow_convergence_visible_at_high_q(self):
        # At heavy indicator coupling the chains need far more than five
        # sweeps: the quantity that moves is the partial association (read
        # off as the completed-data slope), which shifts between sweep 5
        # and sweep 50 by much more than the final between-chain spread.
        # The plain imputed-value mean trace equilibrates within a sweep
        # here, so the slope is the honest convergence readout.
        from misslab.builtins import sim2_spec
        from misslab.inference import ols_fit
        from misslab.mechanisms import simulate_mask

        rng = np.random.default_rng(31)
        n = 1000
        x1 = rng.standard_normal(n)
        x2 = 2 * x1 + rng.standard_normal(n)
        x3 = 1 + x1 + 2 * x2 + rng.standard_normal(n)
        x = np.column_stack([x1, x2, x3])
        mask = simulate_mask(sim2_spec(0.9), x, seed=32)
        d = DataMatrix(x.copy(), mask, ("X1", "X2", "X3"))
        slopes = {}
        for maxit in (5, 50):
            res = fcs_impute(
                d, ImputationConfig(m=5, maxit=maxit, method="norm", seed=33)
            )
            slopes[maxit] = np.array([
                ols_fit(c[:, 2], np.column_stack([np.ones(n), c[:, :2]])).coef[2]
                for c in res.completed
            ])
        gap = abs(slopes[5].mean() - slopes[50].mean())
        spread = slopes[50].std(ddof=1)
        assert gap > 2 * spread
