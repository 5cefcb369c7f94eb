"""Robust (MM) and least-squares fitting, plus the M-scale of residuals."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from robustroc import robust
from robustroc import (
    DegenerateScaleWarning,
    Group,
    MMConfig,
    PopulationSample,
    bisquare_rho,
    bisquare_weight,
    exponential_spec,
    fit_least_squares,
    fit_mm_linear,
    fit_mm_nonlinear,
    linear_spec,
    m_scale,
)

CFG = MMConfig()


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

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, c, seed):
        r = np.random.default_rng(seed).standard_normal(50)
        assert m_scale(c * r, CFG) == pytest.approx(c * m_scale(r, CFG),
                                                    rel=1e-8)


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
        # the stopping rule max |delta beta| < tol is absolute, so a loose tol
        # would stop the iterations at points that depend on the units of x
        cfg = MMConfig(seed=seed, n_subsamples=100, tol=1e-12)
        fit0 = fit_mm_linear(s, intercept=True, cfg=cfg)
        fit1 = fit_mm_linear(PopulationSample(Group.HEALTHY, y, c * x),
                             intercept=True, cfg=cfg)
        assert fit1.beta_hat[1] * c == pytest.approx(fit0.beta_hat[1], rel=1e-6)
        assert fit1.sigma_hat == pytest.approx(fit0.sigma_hat, rel=1e-6)


def _exhaustive_m_scale_batch(R, c, b):
    """Row-wise bisection M-scale as the S-search used it before screening."""
    absR = np.abs(R)
    nz_frac = np.mean(R != 0.0, axis=1)
    valid = nz_frac > b
    lo = np.where(valid, np.min(np.where(absR > 0, absR, np.inf), axis=1) * 1e-3, 1.0)
    hi = np.where(valid, np.max(absR, axis=1) * 1e3, 1.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        gmid = np.mean(bisquare_rho(R / mid[:, None], c), axis=1) - b
        lo = np.where(gmid > 0, mid, lo)
        hi = np.where(gmid > 0, hi, mid)
    out = 0.5 * (lo + hi)
    return np.where(valid, out, np.inf)


class TestScreenedSSearch:
    """The screened S-search returns exactly what scoring every candidate does."""

    @staticmethod
    def _fit_pair(sample, cfg, monkeypatch):
        screened = fit_mm_linear(sample, intercept=True, cfg=cfg)
        seen = []

        def exhaustive(R, c, b):
            scales = _exhaustive_m_scale_batch(R, c, b)
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
        scales = _exhaustive_m_scale_batch(R, CFG.rho_s_tuning, CFG.breakdown_b)
        best = int(np.argmin(scales))
        return best, float(scales[best])

    def test_tie_goes_to_lowest_index(self):
        # 300 rows drawn from 12 distinct residual vectors: the smallest scale
        # is shared by several rows, and the first of them must win
        for seed in range(10):
            rng = np.random.default_rng(seed)
            distinct = rng.standard_normal((12, 40)) * rng.uniform(0.5, 2.0, (12, 1))
            R = distinct[rng.integers(0, 12, size=300)]
            scales = _exhaustive_m_scale_batch(R, CFG.rho_s_tuning, CFG.breakdown_b)
            assert np.sum(scales == np.min(scales)) > 1
            got = robust._smallest_scale_row(R, CFG.rho_s_tuning, CFG.breakdown_b)
            assert got == self._exhaustive_row(R)

    def test_wide_bracket_row_is_not_screened_out(self):
        # row 5's exact scale lies 1.2e-9 (relative) above that of the equal
        # rows 0-4, but its residual of 1e8 widens its bisection bracket so
        # that its bisected scale lands below theirs; a purely relative
        # screening slack of 1e-9 would drop it
        r = np.random.default_rng(0).standard_normal(100)
        a = r.copy()
        a[0] = 10.0
        w = r * (1 + 1.2e-9)
        w[0] = 1e8
        R = np.vstack([np.tile(a, (5, 1)), w])
        expected = self._exhaustive_row(R)
        assert expected[0] == 5
        got = robust._smallest_scale_row(R, CFG.rho_s_tuning, CFG.breakdown_b)
        assert got == expected

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
            fit = fit_mm_nonlinear(s, exponential_spec(), np.array([4.0, 1.5]),
                                   MMConfig(n_subsamples=8))
        assert fit.degenerate_scale
        np.testing.assert_allclose(fit.beta_hat, [5.0, 2.0], atol=1e-6)

    def test_clean_data_near_truth(self):
        errs = []
        for seed in range(50):
            fit = fit_mm_nonlinear(_exp_sample(seed), exponential_spec(),
                                   np.array([4.0, 1.5]),
                                   MMConfig(n_subsamples=8, seed=seed))
            errs.append(np.max(np.abs(fit.beta_hat - [5.0, 2.0])))
        assert np.median(errs) < 0.2

    def test_resists_shift_outliers(self):
        mm_err, ls_err = [], []
        for seed in range(50):
            s = _exp_sample(seed, shift=10.0)
            fit = fit_mm_nonlinear(s, exponential_spec(), np.array([4.0, 1.5]),
                                   MMConfig(n_subsamples=8, seed=seed))
            ls = fit_least_squares(s, exponential_spec(),
                                   beta_init=np.array([4.0, 1.5]))
            mm_err.append(np.max(np.abs(fit.beta_hat - [5.0, 2.0])))
            ls_err.append(abs(ls.beta_hat[0] - 5.0))
        assert np.median(mm_err) < 0.3
        assert np.median(ls_err) > 0.5

    def test_requires_gradient(self):
        from robustroc import Family, RegressionSpec

        spec = RegressionSpec(family=Family.CUSTOM, coef_dim=1,
                              eval=lambda x, b: b[0] * x[:, 0])
        s = PopulationSample(Group.DISEASED, [1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="gradient"):
            fit_mm_nonlinear(s, spec, np.array([1.0]), CFG)


class TestFitLeastSquares:
    def test_exact_linear(self):
        x = np.array([0.0, 1.0, 2.0])
        s = PopulationSample(Group.HEALTHY, 1 + 2 * x, x)
        fit = fit_least_squares(s, linear_spec(1, intercept=True))
        np.testing.assert_allclose(fit.beta_hat, [1.0, 2.0], atol=1e-12)
        assert fit.sigma_hat == 0.0 and fit.degenerate_scale

    def test_two_point_interpolation(self):
        s = PopulationSample(Group.HEALTHY, [0.0, 1.0], [0.0, 1.0])
        fit = fit_least_squares(s, linear_spec(1, intercept=True))
        np.testing.assert_allclose(fit.beta_hat, [0.0, 1.0], atol=1e-12)

    def test_exact_exponential(self):
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        s = PopulationSample(Group.DISEASED, 5.0 * np.exp(2.0 * x), x)
        fit = fit_least_squares(s, exponential_spec(),
                                beta_init=np.array([4.0, 1.5]))
        np.testing.assert_allclose(fit.beta_hat, [5.0, 2.0], atol=1e-8)

    def test_sigma_uses_dof_denominator(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 50)
        y = 1 + 2 * x + rng.standard_normal(50)
        fit = fit_least_squares(PopulationSample(Group.HEALTHY, y, x),
                                linear_spec(1, intercept=True))
        X = np.column_stack([np.ones(50), x])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        assert fit.sigma_hat == pytest.approx(
            np.sqrt(np.sum(resid ** 2) / 48), rel=1e-12)
