"""Robust (MM) and least-squares fitting, plus the M-scale of residuals."""
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtri

from robustroc import robust
from robustroc import (
    ContaminationKind,
    ContaminationScheme,
    DegenerateScaleWarning,
    Family,
    Group,
    MMConfig,
    PopulationSample,
    RegressionSpec,
    ScenarioKind,
    ScenarioSpec,
    bisquare_rho,
    bisquare_weight,
    fit_least_squares,
    fit_mm_linear,
    fit_mm_nonlinear,
    generate,
    m_scale,
)

CFG = MMConfig()
LINEAR_SPEC = RegressionSpec(Family.LINEAR)
EXP_SPEC = RegressionSpec(Family.EXPONENTIAL)
# 1 / Phi^-1(3/4): the screen starts each row's scale solve at this multiple
# of `_scale_start`
CONSISTENT = 1.482602218505602


class TestBisquare:
    def test_rho_bounds_and_normalization(self):
        u = np.linspace(-10, 10, 201)
        r = bisquare_rho(u, 1.54764)
        assert np.all((0 <= r) & (r <= 1))
        assert bisquare_rho(0.0, 1.54764) == 0.0
        assert bisquare_rho(1.54764, 1.54764) == 1.0
        assert bisquare_rho(50.0, 1.54764) == 1.0

    def test_weight_vanishes_outside_tuning(self):
        assert bisquare_weight(4.685, 4.685) == 0.0
        assert bisquare_weight(0.0, 4.685) == 1.0
        assert bisquare_weight(10.0, 4.685) == 0.0


class TestMScale:
    def test_all_zero_residuals_degenerate(self):
        with pytest.warns(DegenerateScaleWarning):
            assert m_scale(np.zeros(10), CFG) == 0.0

    def test_two_point_bisection_oracle(self):
        # residuals {-c, +c}: s solves rho(c/s) = 0.5, found here by an
        # independent 1-d root finder on the same monotone map
        c = 3.7
        expected = brentq(
            lambda s: float(np.mean(bisquare_rho(np.array([-c, c]) / s,
                                                 CFG.rho_s_tuning))) - 0.5,
            1e-6, 1e6, xtol=1e-13)
        assert m_scale(np.array([-c, c]), CFG) == pytest.approx(expected,
                                                                abs=1e-10)

    def test_normal_consistency(self):
        # tuning c = 1.54764, b = 0.5 makes the M-scale consistent for the
        # standard deviation at the normal
        rng = np.random.default_rng(42)
        r = rng.standard_normal(10000)
        assert m_scale(r, CFG) == pytest.approx(1.0, abs=0.05)

    def test_defining_equation_holds(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(200)
        s = m_scale(r, CFG)
        assert np.mean(bisquare_rho(r / s, CFG.rho_s_tuning)) == pytest.approx(
            0.5, abs=1e-12)

    @given(st.floats(min_value=-12.0, max_value=12.0),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_defining_equation_holds_at_every_magnitude(self, log_c, seed):
        # the solver stops on a relative step, so the residual of the
        # equation is rounding whatever the units of r
        rng = np.random.default_rng(seed)
        r = 10.0 ** log_c * rng.standard_normal(int(rng.integers(5, 200)))
        s = m_scale(r, CFG)
        assert np.mean(bisquare_rho(r / s, CFG.rho_s_tuning)) == pytest.approx(
            0.5, abs=1e-14)

    @given(st.floats(min_value=-12.0, max_value=12.0),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    @example(log_c=-9.0, seed=0)
    @example(log_c=12.0, seed=1)
    def test_scale_equivariance(self, log_c, seed):
        c = 10.0 ** log_c
        r = np.random.default_rng(seed).standard_normal(50)
        assert m_scale(c * r, CFG) == pytest.approx(c * m_scale(r, CFG),
                                                    rel=1e-12)


def _linear_sample(seed, n=200, contaminate=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 1 + 2 * x + rng.standard_normal(n)
    if contaminate:
        y[:contaminate] = y[:contaminate] + 15.0
    return PopulationSample(Group.HEALTHY, y, x), x, y


class TestFitMMLinear:
    def test_exact_data_degenerate(self):
        x = np.array([0.0, 0.5, 1.0, 2.0])
        s = PopulationSample(Group.HEALTHY, 1 + 2 * x, x)
        with pytest.warns(DegenerateScaleWarning):
            fit = fit_mm_linear(s, intercept=True, cfg=CFG)
        assert fit.degenerate_scale and fit.sigma_hat == 0.0
        np.testing.assert_allclose(fit.beta_hat, [1.0, 2.0], atol=1e-8)

    def test_clean_data_matches_least_squares(self):
        s, x, y = _linear_sample(7)
        fit = fit_mm_linear(s, intercept=True, cfg=CFG)
        ols = np.polynomial.polynomial.polyfit(x, y, 1)
        np.testing.assert_allclose(fit.beta_hat, ols, atol=0.1)
        assert fit.converged

    def test_resists_ten_percent_large_outliers(self):
        # oracle: least squares on the clean subsample; median over seeds
        mm_err, ls_err = [], []
        for seed in range(50):
            s, x, y = _linear_sample(seed, contaminate=20)
            fit = fit_mm_linear(s, intercept=True,
                                cfg=MMConfig(seed=seed, n_subsamples=200))
            ls_all = np.polynomial.polynomial.polyfit(x, y, 1)
            mm_err.append(np.max(np.abs(fit.beta_hat - [1.0, 2.0])))
            ls_err.append(abs(ls_all[1] - 2.0))
        assert np.median(mm_err) < 0.15
        assert np.median(np.abs(np.array(ls_err))) > 0.0  # sanity
        # contaminated least squares is pulled far off in the intercept:
        biases = []
        for seed in range(50):
            s, x, y = _linear_sample(seed, contaminate=20)
            ls_all = np.polynomial.polynomial.polyfit(x, y, 1)
            biases.append(abs(ls_all[0] - 1.0))
        assert np.median(biases) > 0.3

    def test_regression_equivariance(self):
        s, x, y = _linear_sample(11)
        delta = np.array([0.7, -1.3])
        fit0 = fit_mm_linear(s, intercept=True, cfg=CFG)
        shifted = PopulationSample(Group.HEALTHY, y + delta[0] + delta[1] * x, x)
        fit1 = fit_mm_linear(shifted, intercept=True, cfg=CFG)
        np.testing.assert_allclose(fit1.beta_hat, fit0.beta_hat + delta,
                                   atol=1e-5)
        assert fit1.sigma_hat == pytest.approx(fit0.sigma_hat, rel=1e-5)

    def test_scale_equivariance(self):
        s, x, y = _linear_sample(13)
        fit0 = fit_mm_linear(s, intercept=True, cfg=CFG)
        scaled = PopulationSample(Group.HEALTHY, 3.0 * y, x)
        fit1 = fit_mm_linear(scaled, intercept=True, cfg=CFG)
        np.testing.assert_allclose(fit1.beta_hat, 3.0 * fit0.beta_hat, atol=1e-4)
        assert fit1.sigma_hat == pytest.approx(3.0 * fit0.sigma_hat, rel=1e-5)

    def test_too_few_observations(self):
        s = PopulationSample(Group.HEALTHY, [1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="observations"):
            fit_mm_linear(s, intercept=True, cfg=CFG)

    def test_rank_deficiency(self):
        s = PopulationSample(Group.HEALTHY, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="rank"):
            fit_mm_linear(s, intercept=True, cfg=CFG)

    def test_breakdown_bounded_under_gross_outliers(self):
        s, x, y = _linear_sample(17)
        clean = fit_mm_linear(s, intercept=True, cfg=CFG)
        y_bad = y.copy()
        y_bad[:40] = 1e6  # 20% arbitrarily large outliers
        bad = fit_mm_linear(PopulationSample(Group.HEALTHY, y_bad, x),
                            intercept=True, cfg=CFG)
        assert np.max(np.abs(bad.beta_hat - clean.beta_hat)) < 1.0

    @pytest.mark.parametrize("big", [1e10, 1e13, 1e300, -1e300, 1e308, -1e308])
    def test_one_gross_outlier_leaves_the_scale(self, big):
        # the floor is relative to the median |y|: one gross marker cannot
        # lift it above sigma (at 1e-10 max|y| the fit returned sigma = 0);
        # at 1e308 the candidates through it overflow, and none of them wins
        _, x, y = _linear_sample(0)
        fits = []
        for value in (1e3, big):
            y_bad = y.copy()
            y_bad[0] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fits.append(fit_mm_linear(PopulationSample(Group.HEALTHY, y_bad, x),
                                          intercept=True, cfg=MMConfig(seed=1)))
        moderate, gross = fits
        assert not gross.degenerate_scale
        assert gross.sigma_hat == pytest.approx(moderate.sigma_hat, rel=1e-9)

    @pytest.mark.parametrize("outliers", [1, 20, 45])
    @pytest.mark.parametrize("family", ["linear", "exponential"])
    def test_exact_majority_still_degenerate(self, family, outliers):
        # more than half of the points exactly on the curve: degenerate,
        # however gross the rest, for the MM fit (a candidate whose residuals
        # are zero on the majority has scale 0 and wins; ranked +inf, it lost
        # to a candidate through outliers at 20 and 45 of them)
        x = np.linspace(-1.0, 1.0, 100)
        y = 1 + 2 * x if family == "linear" else 5.0 * np.exp(2.0 * x)
        y[:outliers] = 1e10
        sample = PopulationSample(Group.HEALTHY, y, x)
        with pytest.warns(DegenerateScaleWarning):
            fit = _family_fit(family, sample, CFG)
        assert fit.degenerate_scale and fit.sigma_hat == 0.0
        np.testing.assert_allclose(fit.predict(x[outliers:]), y[outliers:], rtol=1e-12)

    def test_tiny_covariate_units_fit(self):
        # the design has rank 2, but every elemental |det| is below 1e-12
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 100) * 1e-13
        y = 1 + 2e13 * x + rng.standard_normal(100)
        fit = fit_mm_linear(PopulationSample(Group.HEALTHY, y, x),
                            intercept=True, cfg=MMConfig(seed=1))
        assert abs(fit.beta_hat[0] - 1.0) < 0.5
        assert abs(fit.beta_hat[1] * 1e-13 - 2.0) < 0.5
        assert fit.sigma_hat > 0 and not fit.degenerate_scale

    @given(st.integers(min_value=-12, max_value=12),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_covariate_scale_equivariance(self, k, seed):
        c = 10.0 ** k
        s, x, y = _linear_sample(seed, n=60, contaminate=6)
        # the iterations stop when the fitted values move by less than
        # tol * sigma, which does not depend on the units of x
        cfg = MMConfig(seed=seed, n_subsamples=100)
        fit0 = fit_mm_linear(s, intercept=True, cfg=cfg)
        fit1 = fit_mm_linear(PopulationSample(Group.HEALTHY, y, c * x),
                             intercept=True, cfg=cfg)
        assert fit1.beta_hat[1] * c == pytest.approx(fit0.beta_hat[1], rel=1e-9)
        assert fit1.sigma_hat == pytest.approx(fit0.sigma_hat, rel=1e-9)


class TestScreenedSSearch:
    """The screened S-search returns exactly what solving every candidate from
    the same starts does."""

    @staticmethod
    def _fit_pair(sample, cfg, monkeypatch):
        screened = fit_mm_linear(sample, intercept=True, cfg=cfg)
        seen = []

        def exhaustive(R, c, b):
            scales = robust._m_scale_rows(R, c, b,
                                          CONSISTENT * robust._scale_start(R, b))
            seen.append(scales)
            best = int(np.argmin(scales))
            return best, float(scales[best])

        with monkeypatch.context() as m:
            m.setattr(robust, "_smallest_scale_row", exhaustive)
            reference = fit_mm_linear(sample, intercept=True, cfg=cfg)
        return screened, reference, seen[0]

    @staticmethod
    def _assert_identical(screened, reference):
        assert np.array_equal(screened.beta_hat, reference.beta_hat)
        assert screened.sigma_hat == reference.sigma_hat
        assert screened.iterations == reference.iterations
        assert screened.converged == reference.converged
        assert screened.degenerate_scale == reference.degenerate_scale

    @pytest.mark.parametrize("contaminate", [0, 5, 10, 20])
    def test_bit_identical_to_exhaustive_search(self, contaminate, monkeypatch):
        for seed in range(12):
            s, _, _ = _linear_sample(seed, n=100, contaminate=contaminate)
            screened, reference, _ = self._fit_pair(s, MMConfig(seed=seed),
                                                    monkeypatch)
            self._assert_identical(screened, reference)

    def test_gross_outliers_bit_identical(self, monkeypatch):
        # residuals up to ~1e6 scales stretch every bisection bracket
        for seed in range(6):
            _, x, y = _linear_sample(seed, n=100)
            y[:20] = 1e6
            s = PopulationSample(Group.HEALTHY, y, x)
            screened, reference, _ = self._fit_pair(s, MMConfig(seed=seed),
                                                    monkeypatch)
            self._assert_identical(screened, reference)

    def test_duplicate_subsets_bit_identical(self, monkeypatch):
        # C(7, 2) = 21 distinct pairs among 300 draws: equal scales tie
        for seed in range(5):
            s, _, _ = _linear_sample(seed, n=7)
            screened, reference, scales = self._fit_pair(
                s, MMConfig(seed=seed, n_subsamples=300), monkeypatch)
            assert np.sum(scales == np.min(scales)) > 1
            self._assert_identical(screened, reference)

    @staticmethod
    def _exhaustive_row(R):
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        scales = robust._m_scale_rows(R, c, b, CONSISTENT * robust._scale_start(R, b))
        best = int(np.argmin(scales))
        return best, float(scales[best])

    def test_tie_goes_to_lowest_index(self):
        # 300 rows drawn from 12 distinct residual vectors: the smallest scale
        # is shared by several rows, and the first of them must win
        for seed in range(10):
            rng = np.random.default_rng(seed)
            distinct = rng.standard_normal((12, 40)) * rng.uniform(0.5, 2.0, (12, 1))
            R = distinct[rng.integers(0, 12, size=300)]
            scales = robust._m_scale_rows(R, CFG.rho_s_tuning, CFG.breakdown_b)
            assert np.sum(scales == np.min(scales)) > 1
            got = robust._smallest_scale_row(R, CFG.rho_s_tuning, CFG.breakdown_b)
            assert got == self._exhaustive_row(R)

    @pytest.mark.parametrize("rel, winner", [(-5e-10, 5), (5e-10, 0), (1.2e-9, 0)])
    def test_wide_range_row_matches_exhaustive(self, rel, winner):
        # row 5 holds a residual of 1e8 where rows 0-4 hold 10; both saturate
        # rho, so row 5's scale is theirs times 1 + rel: inside the screening
        # slack of 1e-9 it must be solved, and outside it may be dropped
        r = np.random.default_rng(0).standard_normal(100)
        a = r.copy()
        a[0] = 10.0
        w = r * (1 + rel)
        w[0] = 1e8
        R = np.vstack([np.tile(a, (5, 1)), w])
        expected = self._exhaustive_row(R)
        assert expected[0] == winner
        got = robust._smallest_scale_row(R, CFG.rho_s_tuning, CFG.breakdown_b)
        assert got == expected

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=6, max_value=60),
           st.integers(min_value=5, max_value=40),
           st.integers(min_value=0, max_value=4),
           st.floats(min_value=0.0, max_value=0.6),
           st.booleans())
    @example(seed=0, m=6, n=5, copies=4, inf_frac=0.6, gross=True)
    @example(seed=1, m=40, n=20, copies=0, inf_frac=0.0, gross=False)
    # row blocks of 4096 entries: at n = 40 a block holds 102 rows, and the
    # 224 and 318 rows that reach the screen here end inside a block, with a
    # winner in the first block that is not the row of the smallest start;
    # m = 1; and n = 5000 > 4096, where every block holds one row
    @example(seed=16, m=700, n=40, copies=0, inf_frac=0.0, gross=False)
    @example(seed=20, m=700, n=40, copies=0, inf_frac=0.0, gross=True)
    @example(seed=4, m=1, n=40, copies=0, inf_frac=0.0, gross=False)
    @example(seed=5, m=6, n=5000, copies=2, inf_frac=0.2, gross=True)
    @settings(max_examples=60, deadline=None)
    def test_prefiltered_screen_is_exhaustive_argmin(self, seed, m, n, copies,
                                                     inf_frac, gross):
        # rows whose start sits exactly at c s* (times the slack), and just
        # below it, duplicated rows (ties) and +-inf residuals: the screen
        # that drops rows by their start still returns the argmin and the
        # bits of solving every row
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, (m, 1))
        if gross:
            R[:, : n // 5] *= 1e6
        R = np.vstack([R, R[rng.integers(0, m, size=copies)]])
        infs = rng.uniform(size=R.shape) < inf_frac * rng.uniform(size=(len(R), 1))
        R[infs] = rng.choice([-np.inf, np.inf], size=int(infs.sum()))
        start = robust._scale_start(R, b)
        first = np.argsort(start)[0]
        s_star = robust._m_scale_row(R[first], start[first], c, b)
        if np.isfinite(s_star):
            cs = c * s_star * (1.0 + robust._SCREEN_SLACK + robust._SCALE_RTOL)
            k = int(np.ceil(n * (1.0 - b))) - 1
            edge = []
            for at in (cs, np.nextafter(cs, 0.0)):
                row = np.sort(np.abs(rng.standard_normal(n))) * at / 3.0
                row[k:] = at
                edge.append(row * rng.choice([-1.0, 1.0], size=n))
            R = np.vstack([R, edge])
            assert robust._scale_start(R, b)[-2] == cs
        got = robust._smallest_scale_row(R, c, b)
        assert got == self._exhaustive_row(R)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=40),
           st.sampled_from([0.5, 0.25, 0.1]),
           st.floats(min_value=0.0, max_value=0.6))
    # blocks of 4096 entries: 102 rows at n = 40, so 250 rows end inside a
    # block; one row; n = 5000 > 4096, one row a block
    @example(seed=0, m=250, n=40, b=0.5, special=0.3)
    @example(seed=1, m=1, n=40, b=0.5, special=0.0)
    @example(seed=2, m=5, n=5000, b=0.25, special=0.2)
    @example(seed=3, m=1, n=5000, b=0.5, special=0.0)
    @settings(max_examples=60, deadline=None)
    def test_scale_start_is_order_statistic_of_each_row(self, seed, m, n, b,
                                                        special):
        # zeros, +-inf and NaN among the residuals; the blocked start equals
        # the partition of the whole |R| bit for bit
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8, 8, (m, 1))
        at = rng.uniform(size=R.shape) < special
        R[at] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(at.sum()))
        k = int(np.ceil(n * (1.0 - b))) - 1
        expected = np.partition(np.abs(R), k, axis=1)[:, k]
        assert np.array_equal(robust._scale_start(R, b), expected, equal_nan=True)

    def test_screen_starts_at_consistent_scale(self, monkeypatch):
        # the seed solve and the batch solve of the screened rows start at
        # 1 / Phi^-1(3/4) times the order statistic of their rows, while the
        # cold start of m_scale stays the bare order statistic
        assert CONSISTENT == pytest.approx(1.0 / ndtri(0.75), rel=1e-15)
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        rng = np.random.default_rng(3)
        # near copies of one row, so that many rows pass the screen
        R = rng.standard_normal(50) + 1e-3 * rng.standard_normal((200, 50))
        one, many = robust._m_scale_row, robust._m_scale_rows
        row_calls, batch_calls = [], []

        def spy_row(r, s, c, b):
            row_calls.append((r.copy(), s))
            return one(r, s, c, b)

        def spy_rows(R, c, b, s0=None):
            batch_calls.append((R.copy(), s0))
            return many(R, c, b, s0)

        monkeypatch.setattr(robust, "_m_scale_row", spy_row)
        monkeypatch.setattr(robust, "_m_scale_rows", spy_rows)
        robust._smallest_scale_row(R, c, b)
        start = robust._scale_start(R, b)
        r, s = row_calls[0]
        assert np.array_equal(r, R[np.argmin(start)])
        assert s == CONSISTENT * start.min()
        (rows, s0), = batch_calls
        assert len(rows) > 1
        assert np.array_equal(s0, CONSISTENT * robust._scale_start(rows, b))
        row_calls.clear()
        batch_calls.clear()
        m_scale(R[0], CFG)
        assert batch_calls[0][1] is None
        assert row_calls[0][1] == robust._scale_start(R[:1], b)[0]

    @pytest.mark.parametrize("sizes", [
        [0.9e308, 0.95e308, 1e308, 1.7e308, 1.7e308, 1.75e308],
        [1.7e308] * 6,
    ])
    def test_overflowing_start_raises_no_warning(self, sizes):
        # residuals near the top of the float range: where the start times
        # 1.48 overflows, the row is left at an infinite scale, silently, and
        # the screen still returns the exhaustive argmin; when every start
        # overflows, the seed's scale is infinite and every row is solved
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        rng = np.random.default_rng(0)
        R = (rng.uniform(0.5, 1.0, (6, 40)) * rng.choice([-1.0, 1.0], (6, 40))
             * np.array(sizes)[:, None])
        start = robust._scale_start(R, b)
        huge = start > np.finfo(float).max / CONSISTENT
        assert huge.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best, scale = robust._smallest_scale_row(R, c, b)
        with np.errstate(over="ignore"):
            assert (best, scale) == self._exhaustive_row(R)
            scales = robust._m_scale_rows(R, c, b, CONSISTENT * start)
        assert np.all(np.isinf(scales[huge]))
        assert np.isfinite(scale) == (not huge.all())

    @pytest.mark.parametrize("y", [
        [1.0, 3.0, 5.0, 7.0, 9.0],   # exact line: all residuals zero
        [1.0, 3.0, 5.0, 13.0],       # one off the line: every pair leaves
    ])                               # at most half nonzero residuals
    def test_all_scales_infinite_falls_back(self, y, monkeypatch):
        # integer data with integer pair slopes, so the zeros are exact
        x = np.arange(float(len(y)))
        s = PopulationSample(Group.HEALTHY, y, x)
        with pytest.warns(DegenerateScaleWarning):
            screened, reference, scales = self._fit_pair(s, CFG, monkeypatch)
        assert np.all(np.isinf(scales))
        assert screened.degenerate_scale and screened.sigma_hat == 0.0
        self._assert_identical(screened, reference)


def _exp_sample(seed, n=200, shift=None, frac=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = 5.0 * np.exp(2.0 * x) + rng.standard_normal(n)
    if shift is not None:
        m = int(n * frac)
        y[:m] = 5.0 * np.exp(2.0 * x[:m]) + shift
    return PopulationSample(Group.DISEASED, y, x)


class TestFitMMNonlinear:
    def test_exact_data_recovered(self):
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        s = PopulationSample(Group.DISEASED, 5.0 * np.exp(2.0 * x), x)
        with pytest.warns(DegenerateScaleWarning):
            fit = fit_mm_nonlinear(s, EXP_SPEC, CFG)
        assert fit.degenerate_scale
        np.testing.assert_allclose(fit.beta_hat, [5.0, 2.0], atol=1e-6)

    def test_one_covariate_only(self):
        # the spec takes x1 alone: a second covariate would be silently dropped
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (50, 2))
        s = PopulationSample(Group.HEALTHY, 5.0 * np.exp(2.0 * x[:, 0]), x)
        with pytest.raises(ValueError, match=r"covariate dimension 2 incompatible "
                                             r"with spec \(expected 1\)"):
            fit_mm_nonlinear(s, EXP_SPEC, CFG)

    def test_clean_data_near_truth(self):
        errs = []
        for seed in range(50):
            fit = fit_mm_nonlinear(_exp_sample(seed), EXP_SPEC,
                                   MMConfig(seed=seed))
            errs.append(np.max(np.abs(fit.beta_hat - [5.0, 2.0])))
        assert np.median(errs) < 0.2

    def test_resists_shift_outliers(self):
        mm_err, ls_err = [], []
        for seed in range(50):
            s = _exp_sample(seed, shift=10.0)
            fit = fit_mm_nonlinear(s, EXP_SPEC, MMConfig(seed=seed))
            ls = fit_least_squares(s, EXP_SPEC)
            mm_err.append(np.max(np.abs(fit.beta_hat - [5.0, 2.0])))
            ls_err.append(abs(ls.beta_hat[0] - 5.0))
        assert np.median(mm_err) < 0.3
        assert np.median(ls_err) > 0.5

    @pytest.mark.parametrize("a", [5.0, -3.0])
    @pytest.mark.parametrize("fit", ["mm", "ls"])
    def test_covariate_shift_equivariance(self, fit, a):
        # both exponential fits run in x - mean(x), so the fit of x + a is
        # the fit of x mapped to (b1 e^{-b2 a}, b2), with sigma unchanged
        for seed in range(6):
            s = _exp_sample(seed, n=100, shift=10.0 if seed % 2 else None)
            moved = PopulationSample(s.label, s.y, s.x + a)
            if fit == "mm":
                f0, f1 = [fit_mm_nonlinear(t, EXP_SPEC, MMConfig(seed=seed))
                          for t in (s, moved)]
            else:
                f0, f1 = [fit_least_squares(t, EXP_SPEC) for t in (s, moved)]
            assert f1.beta_hat[0] * np.exp(f1.beta_hat[1] * a) == pytest.approx(
                f0.beta_hat[0], rel=1e-12)
            assert f1.beta_hat[1] == pytest.approx(f0.beta_hat[1], rel=1e-12)
            assert f1.sigma_hat == pytest.approx(f0.sigma_hat, rel=1e-12)

    def test_requires_exponential_family(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="exponential family"):
            fit_mm_nonlinear(s, LINEAR_SPEC, CFG)

    def test_too_few_observations(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="observations"):
            fit_mm_nonlinear(s, EXP_SPEC, CFG)

    def test_constant_covariate(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, 3.0, 4.0], [0.5] * 4)
        with pytest.raises(ValueError, match="constant covariate"):
            fit_mm_nonlinear(s, EXP_SPEC, CFG)

    def test_no_finite_pair(self):
        # the one pair of equal sign shares its x; the others change sign
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, -1.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="no elemental pair"):
            fit_mm_nonlinear(s, EXP_SPEC, CFG)

    @pytest.mark.parametrize("rep, population", [(107, 1), (136, 0)])
    def test_m_stage_converges_at_the_optimum(self, rep, population):
        # fits of the criterion-4 campaign (seed 101) whose M-stage ends with
        # a Gauss-Newton step that moves the fitted values by far less than
        # tol * sigma and the M-objective only by rounding: no halving lowers
        # the objective, and the fit used to report converged = False
        scenario = ScenarioSpec(ScenarioKind.NONLINEAR, 100, 100, seed=101)
        scheme = ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT, 0.05, 10.0)
        rng = np.random.default_rng([101, rep])
        samples = generate(scenario, scheme, rng)
        seeds = [int(rng.integers(2 ** 63)) for _ in samples]
        fit = fit_mm_nonlinear(samples[population], EXP_SPEC,
                               MMConfig(seed=seeds[population]))
        assert fit.converged and fit.iterations < CFG.max_iter

    def test_overflowing_pairs_fit_without_warning(self):
        # twins 1e-9 apart in x: the curve through a twin pair climbs by
        # y_i / y_j over 1e-9, so exp(b2 * x) overflows elsewhere
        rng = np.random.default_rng(4)
        x = np.repeat(rng.uniform(0, 1, 50), 2) + np.tile([0.0, 1e-9], 50)
        y = 5.0 * np.exp(2.0 * x) + rng.standard_normal(100)
        with np.errstate(all="ignore"):
            b2 = np.log(y[::2] / y[1::2]) / (x[::2] - x[1::2])
            assert np.sum(np.isinf(np.exp(b2 * np.max(x)))) > 10
        betas, R = self._fit_without_warning(x, y, [5.0, 2.0])
        # kept with finite betas, their overflowed residuals rank as inf
        assert len(betas) < 500 and not np.isfinite(R).all()

    def test_residual_too_large_to_bracket_fits_without_warning(self):
        # the curve through (0, 1) and (0.001, e^0.7046) has b2 = 704.6 and a
        # finite residual of about -1e306 at x = 1, which 1e3 * max|r| overflows;
        # the candidate stays in the search and loses to the curves near truth
        x = np.append(np.linspace(0.0, 1.0, 20), 0.001)
        y = np.exp(x) + 0.01 * np.sin(7.0 * x)
        y[0], y[-1] = 1.0, np.exp(0.7046)
        betas, R = self._fit_without_warning(x, y, [1.0, 1.0])
        steep = np.abs(betas[:, 1]) > 700
        assert steep.any() and np.all(np.abs(R[steep]).max(axis=1) > 1e305)

    @pytest.mark.parametrize("big", [1e9, 1e300, 1e308, -1e308])
    def test_one_gross_marker_leaves_the_fit(self, big):
        # a single marker near the top of the float range: the candidates
        # through it or past it overflow and rank as infinite scales, and the
        # fit is the one it has at a moderate marker
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 100)
        y = 5.0 * np.exp(2.0 * x) + rng.standard_normal(100)
        fits = []
        for value in (1e3, big):
            y_bad = y.copy()
            y_bad[0] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fits.append(fit_mm_nonlinear(PopulationSample(Group.DISEASED, y_bad, x),
                                             EXP_SPEC, MMConfig(seed=1)))
        moderate, gross = fits
        assert gross.converged and not gross.degenerate_scale
        assert gross.sigma_hat == pytest.approx(moderate.sigma_hat, rel=1e-9)
        np.testing.assert_allclose(gross.beta_hat, moderate.beta_hat, rtol=1e-9)

    @staticmethod
    def _fit_without_warning(x, y, truth):
        sample = PopulationSample(Group.DISEASED, y, x)
        betas, R, _ = robust._exponential_pairs(x, y, 500, np.random.default_rng(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mm_nonlinear(sample, EXP_SPEC, MMConfig(seed=4))
        assert np.max(np.abs(fit.beta_hat - truth)) < 0.5
        return betas, R


class TestElementalPairs:
    """The exponential elemental candidates and their screened S-search."""

    @staticmethod
    def _samples():
        for seed in range(6):
            yield _exp_sample(seed, n=100)
            yield _exp_sample(seed, n=100, shift=10.0)
            scenario = ScenarioSpec(ScenarioKind.NONLINEAR, 100, 100, seed=seed)
            scheme = ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT,
                                         delta=0.05, shift_s=10.0)
            yield from generate(scenario, scheme, np.random.default_rng(seed))
        # marker values of both signs: pairs across the sign have no fit
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 60)
        yield PopulationSample(Group.HEALTHY, 0.5 * np.exp(x)
                               + rng.standard_normal(60), x)

    def test_kept_candidates_interpolate_their_pair(self):
        for k, sample in enumerate(self._samples()):
            x, y = sample.x[:, 0], sample.y
            betas, R, pairs = robust._exponential_pairs(
                x, y, 500, np.random.default_rng(k))
            assert 0 < len(betas) == len(R) == len(pairs) <= 500
            assert np.all(pairs[:, 0] != pairs[:, 1])
            assert np.all(np.isfinite(betas)) and np.all(np.isfinite(R))
            rows = np.arange(len(R))
            for col in (0, 1):
                at = pairs[:, col]
                assert np.all(np.abs(R[rows, at]) <= 1e-9 * np.abs(y[at]))
            # the residuals are those of the betas, as the refinement sees them
            spec = EXP_SPEC
            for b, r in zip(betas[:20], R[:20]):
                assert np.array_equal(r, y - spec.predict(sample.x, b))

    def test_screen_matches_exhaustive_argmin(self):
        for k, sample in enumerate(self._samples()):
            _, R, _ = robust._exponential_pairs(
                sample.x[:, 0], sample.y, 500, np.random.default_rng(k))
            got = robust._smallest_scale_row(R, CFG.rho_s_tuning,
                                             CFG.breakdown_b)
            assert got == TestScreenedSSearch._exhaustive_row(R)

    def test_draw_covers_pairs_in_both_orders(self):
        # i is uniform and j uniform over the other n - 1 indices
        _, _, pairs = robust._exponential_pairs(
            np.arange(4.0), np.exp(np.arange(4.0)), 4000, np.random.default_rng(0))
        counts = np.zeros((4, 4), dtype=int)
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
        assert np.all(np.diag(counts) == 0)
        off = counts[~np.eye(4, dtype=bool)]
        assert off.min() > 250 and off.max() < 420


class TestCandidateMemory:
    """The candidate stage of an MM fit keeps one (m, n) array, the residuals
    R of the candidates, and works on it in place or in row blocks."""

    M, N = 500, 100

    @staticmethod
    def _peak(fn, *args):
        fn(*args)              # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("family", ["linear", "exponential"])
    def test_fit_holds_one_residual_buffer(self, family):
        cfg = MMConfig(seed=1, n_subsamples=self.M)
        if family == "linear":
            sample, _, _ = _linear_sample(1, n=self.N, contaminate=10)
            peak = self._peak(fit_mm_linear, sample, True, cfg)
        else:
            sample = _exp_sample(1, n=self.N, shift=10.0)
            peak = self._peak(fit_mm_nonlinear, sample, EXP_SPEC, cfg)
        assert peak <= 1.6 * self.M * self.N * 8

    def test_screen_copies_no_residual_matrix(self):
        rng = np.random.default_rng(0)
        R = rng.standard_normal((self.M, self.N)) * rng.uniform(0.5, 2.0, (self.M, 1))
        R[:, :10] += 15.0
        peak = self._peak(robust._smallest_scale_row, R, CFG.rho_s_tuning,
                          CFG.breakdown_b)
        assert peak <= 0.5 * R.nbytes


class TestFitLeastSquares:
    def test_exact_linear(self):
        x = np.array([0.0, 1.0, 2.0])
        s = PopulationSample(Group.HEALTHY, 1 + 2 * x, x)
        fit = fit_least_squares(s, LINEAR_SPEC)
        np.testing.assert_allclose(fit.beta_hat, [1.0, 2.0], atol=1e-12)
        assert fit.sigma_hat == 0.0 and fit.degenerate_scale
        # the floor follows the size of y, not its spread: a large offset
        # leaves residuals of its rounding
        x = np.linspace(0.0, 1.0, 50)
        s = PopulationSample(Group.HEALTHY, 1e6 + 1e-3 * x, x)
        fit = fit_least_squares(s, LINEAR_SPEC)
        assert fit.sigma_hat == 0.0 and fit.degenerate_scale

    @pytest.mark.parametrize("spec", [LINEAR_SPEC, EXP_SPEC],
                             ids=["linear", "exponential"])
    def test_too_few_observations(self, spec):
        # n = q leaves no degree of freedom for sigma: the same check and
        # message as the MM fits, where a clamped denominator gave sigma = 0
        s = PopulationSample(Group.HEALTHY, [1.0, 2.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="need more than q = 2 observations"):
            fit_least_squares(s, spec)

    @pytest.mark.parametrize("spec", [LINEAR_SPEC, RegressionSpec(Family.LINEAR, 3),
                                      EXP_SPEC], ids=["linear-1", "linear-3",
                                                      "exponential"])
    def test_covariate_dimension_must_match(self, spec):
        # a sample of two covariates: no fit with a spec of another dimension,
        # whose coefficients, n - q and predict would not match the sample
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (50, 2))
        s = PopulationSample(Group.HEALTHY, 1 + x @ [2.0, -1.0]
                             + rng.standard_normal(50), x)
        expected = (f"covariate dimension 2 incompatible with spec "
                    f"(expected {spec.covariate_dim})")
        with pytest.raises(ValueError, match=re.escape(expected)):
            fit_least_squares(s, spec)
        fit = fit_least_squares(s, RegressionSpec(Family.LINEAR, 2))
        assert fit.beta_hat.shape == (3,)
        assert np.all(np.isfinite(fit.predict(s.x)))

    def test_exponential_starts_log_linear(self, monkeypatch):
        # the descent starts at the least-squares line of log y on x, in the
        # centred covariate
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 80)
        s = PopulationSample(Group.DISEASED, 5.0 * np.exp(2.0 * x)
                             + 0.1 * rng.standard_normal(80), x)
        starts = []

        def spy(y, f, J, beta, *args, **kwargs):
            starts.append(beta)
            return descend(y, f, J, beta, *args, **kwargs)

        descend = robust._descend
        monkeypatch.setattr(robust, "_descend", spy)
        fit = fit_least_squares(s, EXP_SPEC)
        log_linear = robust._shift_exponential(robust._initial_beta_exponential(s),
                                               -float(np.mean(s.x)))
        assert len(starts) == 1 and np.array_equal(starts[0], log_linear)
        np.testing.assert_allclose(fit.beta_hat, [5.0, 2.0], atol=0.1)

    def test_exponential_constant_covariate(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="distinct covariate"):
            fit_least_squares(s, EXP_SPEC)

    def test_exact_exponential(self):
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        s = PopulationSample(Group.DISEASED, 5.0 * np.exp(2.0 * x), x)
        fit = fit_least_squares(s, EXP_SPEC)
        np.testing.assert_allclose(fit.beta_hat, [5.0, 2.0], atol=1e-8)

    def test_sigma_uses_dof_denominator(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 50)
        y = 1 + 2 * x + rng.standard_normal(50)
        fit = fit_least_squares(PopulationSample(Group.HEALTHY, y, x),
                                LINEAR_SPEC)
        X = np.column_stack([np.ones(50), x])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        assert fit.sigma_hat == pytest.approx(
            np.sqrt(np.sum(resid ** 2) / 48), rel=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR_SPEC, EXP_SPEC],
                             ids=["linear", "exponential"])
    def test_sigma_is_rms_of_predicted_residuals(self, spec):
        # sigma_hat is the n - q root mean square of y - fit.predict(x): the
        # residuals behind the scale are those of the spec's own predictions
        for seed, shift in ((0, None), (1, 10.0), (2, None)):
            s = _exp_sample(seed, n=80, shift=shift)
            fit = fit_least_squares(s, spec)
            r = s.y - fit.predict(s.x)
            assert fit.sigma_hat == pytest.approx(
                np.sqrt(np.sum(r ** 2) / (s.n - spec.coef_dim)), rel=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR_SPEC, EXP_SPEC],
                             ids=["linear", "exponential"])
    def test_huge_markers_scale_without_overflow(self, spec):
        # sigma comes from r / max|r|: at y * 1e300 no square overflows
        s = _exp_sample(2, n=60)
        fit = fit_least_squares(s, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = fit_least_squares(PopulationSample(Group.DISEASED, 1e300 * s.y,
                                                     s.x), spec)
        assert big.sigma_hat / 1e300 == pytest.approx(fit.sigma_hat, rel=1e-12)
        assert big.beta_hat[0] / 1e300 == pytest.approx(fit.beta_hat[0], rel=1e-12)

    def test_exponential_reaches_the_optimum(self):
        # the Gauss-Newton descent stops at a stationary point of sum(r^2):
        # the residuals are orthogonal to the Jacobian's columns
        for seed in range(10):
            for shift in (None, 10.0):
                s = _exp_sample(seed, n=100, shift=shift)
                fit = fit_least_squares(s, EXP_SPEC)
                r = s.y - fit.predict(s.x)
                J = EXP_SPEC.gradient(s.x, fit.beta_hat)
                cos = np.abs(J.T @ r) / (np.linalg.norm(J, axis=0)
                                         * np.linalg.norm(r))
                assert fit.converged and np.max(cos) < 1e-8


# The bisquare functions written with np.where, as they were before min(z, 1)
# made rho exactly 1 and the weight exactly 0 outside [-c, c].

def _reference_bisquare_rho(u, c):
    z = np.square(np.asarray(u, dtype=float) / c)
    w = 1.0 - np.minimum(z, 1.0)
    return np.where(z >= 1.0, 1.0, 1.0 - w * w * w)


def _reference_bisquare_weight(u, c):
    z = np.square(np.asarray(u, dtype=float) / c)
    return np.where(z >= 1.0, 0.0, (1.0 - np.minimum(z, 1.0)) ** 2)


def _batch_m_scale_row(r, s, c, b):
    """The one-row solve of the fits, done by the batch path beside another row."""
    other = np.linspace(-3.0, 5.0, r.size)
    return float(robust._m_scale_rows(np.vstack([other, r]), c, b, [2.0, s])[1])


class TestFastMScale:
    """The one-row solver and its callers return the bits of the batch solver,
    whose rows do not depend on each other."""

    @staticmethod
    def _outcome(fn, r):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                return fn(r, CFG)
            except ValueError as exc:
                return f"ValueError: {exc}"

    @given(st.integers(min_value=1, max_value=80),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=-8, max_value=8),
           st.floats(min_value=0.0, max_value=8.0),
           st.integers(min_value=0, max_value=80),
           st.integers(min_value=0, max_value=80))
    @example(n=7, seed=0, log_scale=0, log_spread=0.0, zeros=2, infs=1)
    @example(n=8, seed=0, log_scale=0, log_spread=0.0, zeros=2, infs=1)
    @example(n=8, seed=1, log_scale=-8, log_spread=8.0, zeros=4, infs=0)
    @example(n=9, seed=2, log_scale=8, log_spread=0.0, zeros=0, infs=5)
    @example(n=8, seed=3, log_scale=0, log_spread=0.0, zeros=0, infs=4)
    @settings(max_examples=300, deadline=None)
    def test_m_scale_bit_identical(self, n, seed, log_scale, log_spread, zeros, infs):
        rng = np.random.default_rng(seed)

        def draw():
            r = rng.standard_normal(n) * 10.0 ** (
                log_scale + rng.uniform(-log_spread, log_spread, n))
            where = rng.permutation(n)
            z = min(zeros, n)
            k = min(infs, n - z)
            r[where[:z]] = 0.0
            r[where[z:z + k]] = rng.choice([-np.inf, np.inf], size=k)
            return r

        R = np.vstack([draw() for _ in range(6)])
        batch = robust._m_scale_rows(R, CFG.rho_s_tuning, CFG.breakdown_b)
        # each row alone, and the rows in reverse order, give the same bits
        for i, r in enumerate(R):
            alone = robust._m_scale_rows(r[None, :], CFG.rho_s_tuning,
                                         CFG.breakdown_b)
            assert alone[0] == batch[i]
        assert np.array_equal(
            robust._m_scale_rows(R[::-1], CFG.rho_s_tuning, CFG.breakdown_b),
            batch[::-1])
        # m_scale is the one-row case; rows without a finite positive root
        # are 0.0 (degenerate) or a ValueError (at least b infinite)
        b = CFG.breakdown_b
        for i, r in enumerate(R):
            got = self._outcome(m_scale, r)
            if np.count_nonzero(r) / n <= b:
                assert got == 0.0 and batch[i] == np.inf
            elif np.count_nonzero(np.isinf(r)) / n >= b:
                assert got.startswith("ValueError") and batch[i] == np.inf
            else:
                assert got == batch[i] and 0 < got < np.inf

    def test_nan_residual_still_raises(self):
        # the messages say what is wrong with the residuals
        for r in ([1.0, np.nan, 2.0, 3.0], [1.0, np.nan, 2.0], [np.nan, np.nan]):
            with pytest.raises(ValueError) as exc:
                m_scale(np.array(r), CFG)
            assert str(exc.value) == "residuals contain NaN: the M-scale is undefined"
        for r in ([1.0, 2.0, np.inf, -np.inf], [np.inf, -np.inf, 2.0]):
            with pytest.raises(ValueError) as exc:
                m_scale(np.array(r), CFG)
            assert str(exc.value) == ("at least a fraction b = 0.5 of the residuals "
                                      "is infinite: the M-scale is infinite")

    @pytest.mark.parametrize("c", [1.54764, 4.685])
    def test_bisquare_matches_where_form(self, c):
        u = np.array([0.0, 0.5 * c, c, -c, np.nextafter(c, 0.0),
                      np.nextafter(c, np.inf), 10.0 * c, -1e300,
                      np.inf, -np.inf, np.nan])
        with np.errstate(over="ignore"):     # (-1e300 / c)^2 is inf
            pairs = [(bisquare_rho, _reference_bisquare_rho),
                     (bisquare_weight, _reference_bisquare_weight)]
            for fast, reference in pairs:
                assert np.array_equal(fast(u, c), reference(u, c), equal_nan=True)
                for v in u:
                    assert np.array_equal(fast(v, c), reference(v, c), equal_nan=True)

    @staticmethod
    def _assert_identical(fast, reference):
        assert np.array_equal(fast.beta_hat, reference.beta_hat)
        assert fast.sigma_hat == reference.sigma_hat
        assert fast.iterations == reference.iterations
        assert fast.converged == reference.converged

    @pytest.mark.parametrize("contaminated", [False, True])
    def test_nonlinear_fit_bit_identical(self, contaminated, monkeypatch):
        scheme = (ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT, delta=0.05,
                                      shift_s=10.0) if contaminated
                  else ContaminationScheme(ContaminationKind.NONE))
        spec = EXP_SPEC
        for seed in range(3):
            scenario = ScenarioSpec(ScenarioKind.NONLINEAR, 100, 100, seed=seed)
            for sample in generate(scenario, scheme, np.random.default_rng(seed)):
                cfg = MMConfig(seed=seed)
                calls = []
                lean = robust._m_scale_row
                with monkeypatch.context() as m:
                    m.setattr(robust, "_m_scale_row",
                              lambda *a: calls.append(1) or lean(*a))
                    fast = fit_mm_nonlinear(sample, spec, cfg)
                with monkeypatch.context() as m:
                    m.setattr(robust, "_m_scale_row", _batch_m_scale_row)
                    reference = fit_mm_nonlinear(sample, spec, cfg)
                self._assert_identical(fast, reference)
                assert len(calls) > 0

    @pytest.mark.parametrize("contaminate", [0, 10])
    def test_linear_fit_bit_identical(self, contaminate, monkeypatch):
        for seed in range(4):
            s, _, _ = _linear_sample(seed, n=100, contaminate=contaminate)
            fast = fit_mm_linear(s, intercept=True, cfg=MMConfig(seed=seed))
            with monkeypatch.context() as m:
                m.setattr(robust, "_m_scale_row", _batch_m_scale_row)
                reference = fit_mm_linear(s, intercept=True, cfg=MMConfig(seed=seed))
            self._assert_identical(fast, reference)


class TestScaleSolver:
    """`_m_scale_rows`: one safeguarded Newton solver for every M-scale."""

    @staticmethod
    def _rows(seed, m=40, n=100):
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-12, 12, (m, 1))
        R[:, : n // 10] *= 1e4          # gross outliers in every row
        return R

    def test_defining_equation_and_warm_starts(self):
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        for seed in range(5):
            R = self._rows(seed)
            s = robust._m_scale_rows(R, c, b)
            eq = np.mean(bisquare_rho(R / s[:, None], c), axis=1)
            assert np.max(np.abs(eq - b)) < 1e-14
            # a start anywhere from 1e-6 to 1e6 times the root finds the root
            for f in (1e-6, 0.5, 1.0001, 3.0, 1e6):
                warm = robust._m_scale_rows(R, c, b, s * f)
                np.testing.assert_allclose(warm, s, rtol=1e-14)

    def test_extreme_ranges_raise_no_warning(self):
        # residuals from 1e-300 to 1e305 in one row, starts at both ends
        r = np.geomspace(1e-300, 1e305, 101) * np.resize([1.0, -1.0], 101)
        R = np.vstack([r, r[::-1], np.append(r[:60], np.zeros(41))])
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = robust._m_scale_rows(R, c, b)
            for s0 in (1e-300, 1e300):
                far = robust._m_scale_rows(R, c, b, [s0] * 3)
                np.testing.assert_allclose(far, s, rtol=1e-14)
                assert robust._m_scale_row(r, s0, c, b) == far[0]
        assert np.all(np.isfinite(s) & (s > 0))

    def test_rows_without_a_root(self):
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        R = np.array([[0.0, 0.0, 1.0, 2.0],          # half zero: root 0
                      [1.0, 2.0, np.inf, -np.inf],   # half infinite: no finite root
                      [1.0, 2.0, 3.0, np.inf],
                      [1.0, np.nan, 2.0, 3.0]])
        s = robust._m_scale_rows(R, c, b)
        assert s[0] == np.inf and s[1] == np.inf
        assert 0 < s[2] < np.inf and np.isnan(s[3])


class TestElementalSubsets:
    """`_elemental_subsets`, the draw shared by the linear and exponential fits."""

    @pytest.mark.parametrize("n, q", [(2, 2), (3, 3), (7, 2), (10, 4), (100, 2), (50, 6)])
    def test_rows_hold_distinct_indices(self, n, q):
        idx = robust._elemental_subsets(n, q, 2000, np.random.default_rng(n + q))
        assert idx.shape == (2000, q)
        assert idx.min() >= 0 and idx.max() < n
        ordered = np.sort(idx, axis=1)
        assert np.all(np.diff(ordered, axis=1) > 0)

    @pytest.mark.parametrize("n", [3, 17, 100])
    def test_pairs_equal_the_previous_pair_draw(self, n):
        # the pair draw of the exponential fits before the draw was shared
        rng = np.random.default_rng(n)
        i = rng.integers(n, size=500)
        j = rng.integers(n - 1, size=500)
        j += j >= i
        idx = robust._elemental_subsets(n, 2, 500, np.random.default_rng(n))
        assert np.array_equal(idx, np.column_stack([i, j]))

    def test_every_ordered_pair_appears(self):
        idx = robust._elemental_subsets(5, 2, 3000, np.random.default_rng(0))
        counts = np.zeros((5, 5), dtype=int)
        np.add.at(counts, (idx[:, 0], idx[:, 1]), 1)
        assert np.all(np.diag(counts) == 0)
        off = counts[~np.eye(5, dtype=bool)]
        assert off.min() > 100 and off.max() < 200       # 150 expected each

    def test_linear_subsets_cover_all_sets(self):
        from itertools import combinations

        idx = robust._elemental_subsets(7, 3, 4000, np.random.default_rng(1))
        seen = {tuple(row) for row in np.sort(idx, axis=1)}
        assert seen == set(combinations(range(7), 3))
        # and, unordered, about equally often: 4000 / 35 = 114 each
        _, counts = np.unique(np.sort(idx, axis=1), axis=0, return_counts=True)
        assert counts.min() > 70 and counts.max() < 160


class TestElementalFits:
    """`_elemental_fits`, the exact fits behind the linear MM candidates: in
    closed form for pairs, for any two columns."""

    @staticmethod
    def _design(seed, k, intercept, n=30):
        # x * 10^k with repeated rows and, without an intercept, rows scaled
        # by 3; pairs of them are appended, so that some pairs are singular,
        # and last two pairs whose determinants are 1e-14 and 1e-10 of the
        # column scales, on either side of the relative test of 1e-12
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 2.0, (n, 1 if intercept else 2)) * 10.0 ** k
        x[:4] = x[4:8]
        if not intercept:
            x[8:10] = 3.0 * x[10:12]
            x[12:16, 1] = 10.0 ** k
        x[13, 0] = x[12, 0] + 2e-14 * 10.0 ** k
        x[15, 0] = x[14, 0] + 2e-10 * 10.0 ** k
        X = robust.design_matrix(x, intercept)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        idx = robust._elemental_subsets(n, 2, 300, rng)
        near = [[0, 4], [5, 1], [8, 10], [11, 9], [12, 13], [14, 15]]
        return X, y, np.vstack([idx, near])

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=-12, max_value=12),
           st.booleans())
    @example(seed=0, k=-12, intercept=True)
    @example(seed=1, k=12, intercept=False)
    @settings(max_examples=60, deadline=None)
    def test_kept_candidates_interpolate_their_pair(self, seed, k, intercept):
        X, y, idx = self._design(seed, k, intercept)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            betas, ok = robust._elemental_fits(X, y, idx)
        tiny = 1e-12 * np.prod(np.max(np.abs(X), axis=0))
        assert np.array_equal(ok, np.abs(np.linalg.det(X[idx])) > tiny)
        assert 0 < ok.sum() < len(idx) and betas.shape == (ok.sum(), 2)
        assert list(ok[-6:]) == [False, False, intercept, intercept, False, True]
        for col in (0, 1):
            at = idx[ok, col]
            fitted = np.einsum("ij,ij->i", X[at], betas)
            size = np.abs(y[at]) + np.einsum("ij,ij->i", np.abs(X[at]), np.abs(betas))
            # 1e-9, as for the exponential pairs: the last pair's condition
            # number is about 1e10
            assert np.all(np.abs(y[at] - fitted) <= 1e-9 * size)
        # gross markers of both signs can overflow the betas through them,
        # silently, and leave the singularity test and the other pairs be
        y[:2] = [1e308, -1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gross, gross_ok = robust._elemental_fits(X, y, idx)
        assert np.array_equal(gross_ok, ok)
        clear = ~np.isin(idx[ok], [0, 1]).any(axis=1)
        assert np.array_equal(gross[clear], betas[clear])


FAMILIES = ("linear", "exponential")


def _family_sample(family, seed, scale=1.0):
    if family == "linear":
        s, _, _ = _linear_sample(seed, n=100, contaminate=10)
    else:
        s = _exp_sample(seed, n=100, shift=10.0)
    return PopulationSample(s.label, scale * s.y, s.x)


def _family_fit(family, sample, cfg):
    if family == "linear":
        return fit_mm_linear(sample, intercept=True, cfg=cfg)
    return fit_mm_nonlinear(sample, EXP_SPEC, cfg)


def _family_curve(family, x):
    """Fitted values and Jacobian of the family, as the fits compute them:
    the exponential fits run in the centred covariate."""
    if family == "linear":
        X = robust.design_matrix(x, True)
        return (lambda beta: X @ beta), (lambda beta: X)
    x = x - np.mean(x)
    spec = EXP_SPEC
    return (lambda beta: spec.predict(x, beta)), (lambda beta: spec.gradient(x, beta))


class TestDescent:
    """The one reweighted Gauss-Newton descent behind every iterative fit."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_s_stage_starts_from_screened_winner(self, family, monkeypatch):
        sample = _family_sample(family, 3)
        candidates, starts = [], []
        fit_mm, descend = robust._fit_mm, robust._descend

        def spy_fit_mm(y, f, J, betas, R, *rest):
            candidates.append((betas, R))
            return fit_mm(y, f, J, betas, R, *rest)

        def spy_descend(y, f, J, beta, r, criterion, start, *rest, **kw):
            starts.append((beta.copy(), r.copy(), criterion, start, kw, f(beta)))
            return descend(y, f, J, beta, r, criterion, start, *rest, **kw)

        monkeypatch.setattr(robust, "_fit_mm", spy_fit_mm)
        monkeypatch.setattr(robust, "_descend", spy_descend)
        _family_fit(family, sample, MMConfig(seed=3))
        (betas, R), = candidates
        best, scale = TestScreenedSSearch._exhaustive_row(R)
        assert len(starts) == 2             # the S-stage, then the M-stage
        beta, r, criterion, start, kw, fitted = starts[0]
        # only the S-stage also stops on the scale's fall
        assert kw == {"stop_on_fall": True} and starts[1][4] == {}
        assert np.array_equal(beta, betas[best])
        # residuals afresh, and the exact M-scale warm-started at the screen's
        assert start == scale and np.array_equal(r, sample.y - fitted)
        value, w, h, unit = criterion(r, start)
        assert value == unit == pytest.approx(scale, rel=1e-12)
        np.testing.assert_allclose(w, bisquare_weight(r / value, CFG.rho_s_tuning),
                                   rtol=0.0, atol=1e-14)
        # the M-stage starts from the value its criterion computes
        assert starts[1][3] is None

    @pytest.mark.parametrize("family", FAMILIES)
    def test_s_steps_weigh_current_residuals(self, family, monkeypatch):
        # each S-step solves (J' diag(h) J) step = J'(w r) at the current
        # beta, with w = (1 - z)^2 and h = (1 - z)(1 - 5z) at the exact M-scale
        # of the current residuals y - f(beta); each trial scale is the
        # M-scale of its residuals, and the last accepted one is sigma
        sample = _family_sample(family, 5)
        predict, jacobian = _family_curve(family, sample.x)
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        log = []
        descend, solve_gram = robust._descend, robust._solve_gram

        def recording_solve(G):
            step = solve_gram(G)
            log.append(("solve", G, step))
            return step

        def spy_descend(y, f, J, beta, r, criterion, start, *rest, **kw):
            if log:                          # the M-stage runs unrecorded
                return descend(y, f, J, beta, r, criterion, start, *rest, **kw)
            log.append(("start", beta, r))

            def f_spy(beta_):
                log.append(("beta", beta_))
                return f(beta_)

            def criterion_spy(r_, s_):
                out = criterion(r_, s_)
                log.append(("state", r_, s_, out))
                return out

            with monkeypatch.context() as m:
                m.setattr(robust, "_solve_gram", recording_solve)
                return descend(y, f_spy, J, beta, r, criterion_spy, start,
                               *rest, **kw)

        monkeypatch.setattr(robust, "_descend", spy_descend)
        fit = _family_fit(family, sample, MMConfig(seed=5))
        _, beta, r = log[0]
        cand, state, newton = None, None, 0
        for event in log[1:]:
            if event[0] == "solve":
                _, G, step = event
                A = jacobian(beta)
                _, w, h, _ = state
                assert np.array_equal(G, A.T @ np.column_stack([A * h[:, None], w * r]))
                newton += step is not None
            elif event[0] == "beta":
                cand = event[1]
            else:
                _, r_t, s_prev, out = event
                s_t, w_t, h_t, unit = out
                assert s_t == unit
                assert np.mean(bisquare_rho(r_t / s_t, c)) == pytest.approx(b, rel=1e-12)
                z = np.minimum((r_t / (c * s_t)) ** 2, 1.0)
                np.testing.assert_allclose(w_t, bisquare_weight(r_t / s_t, c),
                                           rtol=0.0, atol=1e-14)
                np.testing.assert_allclose(h_t, (1 - z) * (1 - 5 * z),
                                           rtol=0.0, atol=1e-14)
                if state is None:            # the first state, at the start
                    assert np.array_equal(r_t, r)
                    state = out
                    continue
                assert s_prev == state[0]
                assert np.array_equal(r_t, sample.y - predict(cand))
                if s_t <= state[0] * (1.0 + robust._OBJECTIVE_ROUNDING):
                    beta, r, state = cand, r_t, out
        # Newton steps throughout, and no solve after the last accepted scale
        assert newton > 2
        assert fit.sigma_hat == state[0]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_iterations_count_both_stages(self, family, monkeypatch):
        steps = []
        descend = robust._descend

        def spy(*args, **kw):
            out = descend(*args, **kw)
            steps.append(out[3])
            return out

        monkeypatch.setattr(robust, "_descend", spy)
        fit = _family_fit(family, _family_sample(family, 8), MMConfig(seed=8))
        assert len(steps) == 2 and min(steps) > 0
        assert fit.iterations == sum(steps)

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_step_matches_lstsq(self, seed, monkeypatch):
        # well-conditioned equilibrated columns: the closed 2 x 2 normal
        # equations agree with lstsq, which is not called
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, 100)
        sw = np.sqrt(bisquare_weight(rng.standard_normal(100), 2.0))
        A = robust._equilibrate(robust.design_matrix(x, True))[0] * sw[:, None]
        rhs = rng.standard_normal(100) * sw
        expected = np.linalg.lstsq(A, rhs, rcond=None)[0]
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        got = robust._weighted_step(A, rhs)
        assert not calls
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        # columns scaled by powers of 2 scale the step exactly
        d = np.array([2.0 ** 60, 2.0 ** -70])
        assert np.array_equal(robust._weighted_step(A * d, rhs) * d, got)

    @pytest.mark.parametrize("A", [
        # x + 1e8: the columns agree to 1e-8, so det G is rounding
        np.column_stack([np.ones(50), 1e8 + np.linspace(-1.0, 1.0, 50)]),
        np.column_stack([np.ones(50), np.ones(50)]),       # rank 1
        np.column_stack([np.ones(50), np.zeros(50)]),      # a zero column
        np.random.default_rng(0).standard_normal((50, 3)),  # three columns
        # Gram diagonals outside `_GRAM_RANGE`: their squares over- or underflow
        np.column_stack([np.ones(50), 1e200 * np.linspace(-1.0, 1.0, 50)]),
        np.column_stack([np.ones(50), 1e-200 * np.linspace(-1.0, 1.0, 50)]),
    ], ids=["shifted", "equal", "zero", "wide", "huge", "tiny"])
    def test_weighted_step_falls_back_to_lstsq(self, A):
        # the fallback takes lstsq on the columns scaled by powers of 2
        rhs = np.random.default_rng(1).standard_normal(50)
        scaled, d = robust._equilibrate(A)
        expected = np.linalg.lstsq(scaled, rhs, rcond=None)[0] / d
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(robust._weighted_step(A, rhs), expected)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_s_stage_stops_on_the_scales_fall(self, family):
        # with stop_on_fall the S-descent ends at the first accepted step that
        # lowers the M-scale by less than tol * s (or moves the fitted values
        # by less than that), where the plain descent passes through
        sample = _family_sample(family, 2)
        f, J = _family_curve(family, sample.x)
        c, b = CFG.rho_s_tuning, CFG.breakdown_b
        y = sample.y
        beta0 = np.array([0.0, 1.0]) if family == "linear" else np.array([7.0, 1.5])
        r0 = y - f(beta0)
        s0 = m_scale(r0, CFG)

        def descend(max_iter, fall):
            return robust._descend(y, f, J, beta0, r0, robust._s_scale(c, b), s0,
                                   CFG.tol, max_iter, 0.0, stop_on_fall=fall)

        beta, _, value, steps, converged = descend(CFG.max_iter, True)
        assert converged and 1 < steps < descend(CFG.max_iter, False)[3]
        plain = [descend(k, False) for k in range(steps - 1, steps + 1)]
        assert np.array_equal(plain[1][0], beta) and plain[1][2] == value
        before = plain[0]
        moved = np.max(np.abs(f(beta) - f(before[0])))
        assert before[2] - value < CFG.tol * value or moved < CFG.tol * value
        assert not before[4]                 # the plain descent goes on
        for k in range(1, steps - 1):
            prev, cur = descend(k, False)[2], descend(k + 1, False)[2]
            assert prev - cur >= CFG.tol * cur

    def test_curvature_not_positive_definite_takes_irls_step(self, monkeypatch):
        # residuals at 0.5c to 0.9c of the M-scale, where psi' < 0: the
        # curvature system J' diag(h) J has a negative diagonal, so the step
        # is the IRLS step of the same weights
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 60)
        X = robust.design_matrix(x, True)
        c, sigma = CFG.rho_m_tuning, 1.0
        r = rng.choice([-1.0, 1.0], 60) * rng.uniform(0.5, 0.9, 60) * c * sigma
        criterion = robust._m_objective(sigma, c)
        _, w, h, _ = criterion(r, None)
        assert np.mean(h < 0) > 0.9
        assert robust._solve_gram(
            X.T @ np.column_stack([X * h[:, None], w * r])) is None
        steps = []
        weighted_step = robust._weighted_step
        monkeypatch.setattr(robust, "_weighted_step", lambda A, rhs: steps.append(
            (A, rhs)) or weighted_step(A, rhs))
        beta0 = np.zeros(2)
        beta, *_ = robust._descend(r, lambda b_: X @ b_, X, beta0, r, criterion,
                                   None, CFG.tol, 1, 0.0)
        (A, rhs), = steps
        sw = np.sqrt(w)
        assert np.array_equal(A, X * sw[:, None]) and np.array_equal(rhs, r * sw)
        assert np.array_equal(beta, weighted_step(A, rhs))

    def test_unit_weight_descent_forms_no_curvature_system(self, monkeypatch):
        # the classical exponential fit keeps its IRLS steps: every Gram
        # matrix it solves comes from `_weighted_step`, while an MM fit also
        # solves curvature systems
        inside, outside = [0], []
        weighted_step, solve_gram = robust._weighted_step, robust._solve_gram

        def step_spy(A, rhs):
            inside[0] += 1
            return weighted_step(A, rhs)

        def gram_spy(G):
            outside.append(inside[0] == 0)
            return solve_gram(G)

        monkeypatch.setattr(robust, "_weighted_step", step_spy)
        monkeypatch.setattr(robust, "_solve_gram", gram_spy)
        for seed in range(4):
            sample = _exp_sample(seed, n=100, shift=10.0 if seed % 2 else None)
            inside[0] = 0
            outside.clear()
            assert fit_least_squares(sample, EXP_SPEC).converged
            assert inside[0] > 0 and not any(outside)
        inside[0] = 0
        fit_mm_nonlinear(sample, EXP_SPEC, MMConfig(seed=1))
        assert any(outside)

    @pytest.mark.parametrize("p, intercept", [(2, True), (1, False)],
                             ids=["q3", "q1"])
    def test_newton_steps_beyond_two_coefficients(self, p, intercept, monkeypatch):
        # other q take the Cholesky rule; Newton and IRLS steps reach the
        # same S- and M-minimum, Newton in fewer steps
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, (100, p))
        truth = np.array([1.0, 2.0, -1.0])[:p + intercept]
        y = robust.design_matrix(x, intercept) @ truth + rng.standard_normal(100)
        y[:10] += 15.0
        sample = PopulationSample(Group.HEALTHY, y, x)
        solved = []
        solve_gram = robust._solve_gram

        def spy(G):
            step = solve_gram(G)
            solved.append((G.shape[0], step is not None))
            return step

        monkeypatch.setattr(robust, "_solve_gram", spy)
        fit = fit_mm_linear(sample, intercept, MMConfig(seed=6))
        assert fit.converged and not fit.degenerate_scale
        assert np.max(np.abs(fit.beta_hat - truth)) < 0.5
        assert (p + intercept, True) in solved
        monkeypatch.setattr(robust, "_solve_gram", lambda G: None)
        irls = fit_mm_linear(sample, intercept, MMConfig(seed=6))
        np.testing.assert_allclose(fit.beta_hat, irls.beta_hat, rtol=1e-6)
        assert fit.sigma_hat == pytest.approx(irls.sigma_hat, rel=1e-7)
        assert fit.iterations < irls.iterations

    @pytest.mark.parametrize("family", FAMILIES)
    def test_few_steps_per_fit(self, family):
        # Newton steps converge in a few steps: over 20 scenario fits (10
        # seeds, both groups, odd seeds with 10% outliers) every fit converges
        # and the mean step count of both stages is at most 12
        kind = ScenarioKind.LINEAR if family == "linear" else ScenarioKind.NONLINEAR
        outliers = (ContaminationKind.SHIFT_BOTH if family == "linear"
                    else ContaminationKind.NONLINEAR_SHIFT)
        fits = []
        for seed in range(10):
            scheme = (ContaminationScheme(outliers, 0.1, 10.0) if seed % 2
                      else ContaminationScheme(ContaminationKind.NONE, 0.0, 0.0))
            samples = generate(ScenarioSpec(kind, 100, 100, seed=seed), scheme,
                               np.random.default_rng([seed, 0]))
            fits += [_family_fit(family, s_, MMConfig(seed=seed)) for s_ in samples]
        assert len(fits) == 20 and all(f.converged for f in fits)
        assert np.mean([f.iterations for f in fits]) <= 12

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=-20.0, max_value=20.0),
           st.booleans(), st.booleans())
    @settings(max_examples=30, deadline=None)
    @example(seed=0, log_c=0.5, negative=True, contaminated=True)
    @example(seed=1, log_c=-9.0, negative=False, contaminated=False)
    def test_exponential_fit_equivariant_under_marker_scale(
            self, seed, log_c, negative, contaminated):
        # every stop and every acceptance is relative, so the fit of y * c is
        # the fit of y mapped to (c b1, b2) and |c| sigma, to rounding
        c = (-1.0 if negative else 1.0) * 10.0 ** log_c
        s = _exp_sample(seed, n=100, shift=10.0 if contaminated else None)
        cfg = MMConfig(seed=seed)
        fit = fit_mm_nonlinear(s, EXP_SPEC, cfg)
        scaled = fit_mm_nonlinear(PopulationSample(s.label, c * s.y, s.x),
                                  EXP_SPEC, cfg)
        assert scaled.beta_hat[0] / c == pytest.approx(fit.beta_hat[0], rel=1e-12)
        assert scaled.beta_hat[1] == pytest.approx(fit.beta_hat[1], rel=1e-12)
        assert scaled.sigma_hat / abs(c) == pytest.approx(fit.sigma_hat, rel=1e-12)

    @pytest.mark.parametrize("fit", ["mm_linear", "mm_exponential",
                                     "ls_linear", "ls_exponential"])
    def test_tiny_marker_units_fit(self, fit):
        # the degenerate-scale floor is 1e-10 median|y|, relative to y: at
        # y * 1e-11 no fit is flagged degenerate
        family = fit[3:]
        sample = _family_sample(family, 1)
        tiny = _family_sample(family, 1, scale=1e-11)
        if fit.startswith("mm"):
            fits = [_family_fit(family, s_, MMConfig(seed=1)) for s_ in (sample, tiny)]
        else:
            spec = (LINEAR_SPEC if family == "linear"
                    else EXP_SPEC)
            fits = [fit_least_squares(s_, spec) for s_ in (sample, tiny)]
        unit, scaled = fits
        assert not scaled.degenerate_scale
        assert scaled.sigma_hat / 1e-11 == pytest.approx(unit.sigma_hat, rel=1e-9)
        assert scaled.beta_hat[0] / 1e-11 == pytest.approx(unit.beta_hat[0], rel=1e-9)


@pytest.mark.parametrize("fit", ["mm_linear", "ls_linear"])
@pytest.mark.parametrize("scale, shift", [(1e14, 0.0), (1e-14, 0.0), (1.0, 1e8)])
def test_rank_does_not_depend_on_covariate_units(fit, scale, shift):
    # the rank is taken on the design with its columns scaled: on the raw
    # design these three fits raised "rank-deficient design matrix"
    sample, _ = generate(ScenarioSpec(ScenarioKind.LINEAR, seed=1))
    moved = PopulationSample(sample.label, sample.y, sample.x * scale + shift)
    if fit == "mm_linear":
        unit, fitted = [fit_mm_linear(s, True, MMConfig(seed=1))
                        for s in (sample, moved)]
    else:
        unit, fitted = [fit_least_squares(s, LINEAR_SPEC) for s in (sample, moved)]
    if shift == 0.0:
        assert fitted.beta_hat[0] == pytest.approx(unit.beta_hat[0], rel=1e-13)
        assert fitted.beta_hat[1] * scale == pytest.approx(unit.beta_hat[1],
                                                           rel=1e-13)
        assert fitted.sigma_hat == pytest.approx(unit.sigma_hat, rel=1e-13)
    else:
        # x + 1e8 loses about 8 digits to conditioning
        assert fitted.sigma_hat == pytest.approx(unit.sigma_hat, rel=1e-7)
