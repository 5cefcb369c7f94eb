"""Robust (MM) and least-squares fitting, plus the M-scale of residuals."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from robustroc import robust
from robustroc import (
    ContaminationKind,
    ContaminationScheme,
    DegenerateScaleWarning,
    Group,
    MMConfig,
    PopulationSample,
    ScenarioKind,
    ScenarioSpec,
    bisquare_rho,
    bisquare_weight,
    exponential_spec,
    fit_least_squares,
    fit_mm_linear,
    fit_mm_nonlinear,
    generate,
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
            fit = fit_mm_nonlinear(s, exponential_spec(), CFG)
        assert fit.degenerate_scale
        np.testing.assert_allclose(fit.beta_hat, [5.0, 2.0], atol=1e-6)

    def test_clean_data_near_truth(self):
        errs = []
        for seed in range(50):
            fit = fit_mm_nonlinear(_exp_sample(seed), exponential_spec(),
                                   MMConfig(seed=seed))
            errs.append(np.max(np.abs(fit.beta_hat - [5.0, 2.0])))
        assert np.median(errs) < 0.2

    def test_resists_shift_outliers(self):
        mm_err, ls_err = [], []
        for seed in range(50):
            s = _exp_sample(seed, shift=10.0)
            fit = fit_mm_nonlinear(s, exponential_spec(), MMConfig(seed=seed))
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
            fit_mm_nonlinear(s, spec, CFG)

    def test_requires_exponential_family(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, 4.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="exponential family"):
            fit_mm_nonlinear(s, linear_spec(1, intercept=True), CFG)

    def test_too_few_observations(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="observations"):
            fit_mm_nonlinear(s, exponential_spec(), CFG)

    def test_constant_covariate(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, 3.0, 4.0], [0.5] * 4)
        with pytest.raises(ValueError, match="constant covariate"):
            fit_mm_nonlinear(s, exponential_spec(), CFG)

    def test_no_finite_pair(self):
        # the one pair of equal sign shares its x; the others change sign
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, -1.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="no elemental pair"):
            fit_mm_nonlinear(s, exponential_spec(), CFG)

    def test_overflowing_pairs_fit_without_warning(self):
        # twins 1e-9 apart in x: the curve through a twin pair climbs by
        # y_i / y_j over 1e-9, so exp(b2 * x) overflows elsewhere
        rng = np.random.default_rng(4)
        x = np.repeat(rng.uniform(0, 1, 50), 2) + np.tile([0.0, 1e-9], 50)
        y = 5.0 * np.exp(2.0 * x) + rng.standard_normal(100)
        with np.errstate(all="ignore"):
            b2 = np.log(y[::2] / y[1::2]) / (x[::2] - x[1::2])
            assert np.sum(np.isinf(np.exp(b2 * np.max(x)))) > 10
        self._fit_without_warning(x, y, [5.0, 2.0])

    def test_residual_too_large_to_bracket_fits_without_warning(self):
        # the curve through (0, 1) and (0.001, e^0.7046) has b2 = 704.6 and a
        # finite residual of about -1e306 at x = 1, which 1e3 * max|r| overflows
        x = np.append(np.linspace(0.0, 1.0, 20), 0.001)
        y = np.exp(x) + 0.01 * np.sin(7.0 * x)
        y[0], y[-1] = 1.0, np.exp(0.7046)
        betas = self._fit_without_warning(x, y, [1.0, 1.0])
        assert np.all(np.abs(betas[:, 1]) < 700)

    @staticmethod
    def _fit_without_warning(x, y, truth):
        sample = PopulationSample(Group.DISEASED, y, x)
        betas, _, _ = robust._exponential_pairs(x, y, 500, np.random.default_rng(4))
        assert len(betas) < 500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_mm_nonlinear(sample, exponential_spec(), MMConfig(seed=4))
        assert np.max(np.abs(fit.beta_hat - truth)) < 0.5
        return betas


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
            spec = exponential_spec()
            for b, r in zip(betas[:20], R[:20]):
                assert np.array_equal(r, y - spec.predict(sample.x, b))

    def test_screen_matches_exhaustive_argmin(self):
        for k, sample in enumerate(self._samples()):
            _, R, _ = robust._exponential_pairs(
                sample.x[:, 0], sample.y, 500, np.random.default_rng(k))
            got = robust._smallest_scale_row(R, CFG.rho_s_tuning,
                                             CFG.breakdown_b)
            assert got == TestScreenedSSearch._exhaustive_row(R)

    def test_refinement_starts_from_screened_winner(self, monkeypatch):
        sample = _exp_sample(3, n=100, shift=10.0)
        cfg = MMConfig(seed=3)
        betas, R, _ = robust._exponential_pairs(
            sample.x[:, 0], sample.y, cfg.n_subsamples, np.random.default_rng(3))
        best, _ = TestScreenedSSearch._exhaustive_row(R)
        starts = []
        descend = robust._gauss_newton_scale

        def spy(y, x, spec, beta0, cfg_):
            starts.append(beta0)
            return descend(y, x, spec, beta0, cfg_)

        monkeypatch.setattr(robust, "_gauss_newton_scale", spy)
        fit_mm_nonlinear(sample, exponential_spec(), cfg)
        assert len(starts) == 1 and np.array_equal(starts[0], betas[best])

    def test_draw_covers_pairs_in_both_orders(self):
        # i is uniform and j uniform over the other n - 1 indices
        _, _, pairs = robust._exponential_pairs(
            np.arange(4.0), np.exp(np.arange(4.0)), 4000, np.random.default_rng(0))
        counts = np.zeros((4, 4), dtype=int)
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
        assert np.all(np.diag(counts) == 0)
        off = counts[~np.eye(4, dtype=bool)]
        assert off.min() > 250 and off.max() < 420


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

    def test_exponential_starts_log_linear(self):
        # without beta_init, the start is the least-squares line of log y on x
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 80)
        s = PopulationSample(Group.DISEASED, 5.0 * np.exp(2.0 * x)
                             + 0.1 * rng.standard_normal(80), x)
        fit = fit_least_squares(s, exponential_spec())
        given = fit_least_squares(s, exponential_spec(),
                                  beta_init=robust._initial_beta_exponential(s))
        assert np.array_equal(fit.beta_hat, given.beta_hat)
        np.testing.assert_allclose(fit.beta_hat, [5.0, 2.0], atol=0.1)

    def test_exponential_constant_covariate(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="distinct covariate"):
            fit_least_squares(s, exponential_spec())

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


# The M-scale and its callers as they were written before the fast M-scale:
# np.where in the bisquare functions, np.median and np.mean in m_scale, every
# root-function value computed afresh, the residuals of an accepted
# Gauss-Newton step predicted again, and a warnings guard around every call.

def _reference_bisquare_rho(u, c):
    z = np.square(np.asarray(u, dtype=float) / c)
    return np.where(z >= 1.0, 1.0, 1.0 - (1.0 - np.minimum(z, 1.0)) ** 3)


def _reference_bisquare_weight(u, c):
    z = np.square(np.asarray(u, dtype=float) / c)
    return np.where(z >= 1.0, 0.0, (1.0 - np.minimum(z, 1.0)) ** 2)


def _reference_m_scale(residuals, cfg):
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residuals must be nonempty")
    nonzero = r[r != 0.0]
    if nonzero.size / r.size <= cfg.breakdown_b:
        warnings.warn("degenerate M-scale: too many exactly-zero residuals",
                      DegenerateScaleWarning)
        return 0.0
    c, b = cfg.rho_s_tuning, cfg.breakdown_b

    def g(s):
        return float(np.mean(_reference_bisquare_rho(r / s, c))) - b

    s0 = float(np.median(np.abs(nonzero)))
    lo = hi = s0
    while g(lo) <= 0:
        lo /= 2.0
    while g(hi) > 0:
        hi *= 2.0
    return float(brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16))


def _reference_gauss_newton_scale(y, x, spec, beta0, cfg):
    beta = np.asarray(beta0, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScaleWarning)
        s = robust.m_scale(y - spec.predict(x, beta), cfg)
    for _ in range(cfg.max_iter):
        if s == 0.0 or not np.isfinite(s):
            break
        r = y - spec.predict(x, beta)
        w = _reference_bisquare_weight(r / s, cfg.rho_s_tuning)
        if not np.any(w > 0):
            break
        J = np.asarray(spec.gradient(np.atleast_2d(x), beta), dtype=float)
        sw = np.sqrt(w)
        step, *_ = np.linalg.lstsq(J * sw[:, None], r * sw, rcond=None)
        accepted = False
        for _ in range(12):
            cand = beta + step
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateScaleWarning)
                s_cand = robust.m_scale(y - spec.predict(x, cand), cfg)
            if s_cand < s:
                beta, s = cand, s_cand
                accepted = True
                break
            step = step / 2.0
        if not accepted or np.max(np.abs(step)) < cfg.tol:
            break
    return beta, s


class TestFastMScale:
    """The fast M-scale and its callers return the bits of the reference code."""

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
    @settings(max_examples=300, deadline=None)
    def test_m_scale_bit_identical(self, n, seed, log_scale, log_spread, zeros, infs):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(n) * 10.0 ** (log_scale
                                              + rng.uniform(-log_spread, log_spread, n))
        zeros = min(zeros, n)
        infs = min(infs, n - zeros)
        where = rng.permutation(n)
        r[where[:zeros]] = 0.0
        r[where[zeros:zeros + infs]] = rng.choice([-np.inf, np.inf], size=infs)
        got = self._outcome(m_scale, r)
        assert got == self._outcome(_reference_m_scale, r)

    def test_nan_residual_still_raises(self):
        for r in ([1.0, np.nan, 2.0, 3.0], [1.0, np.nan, 2.0], [np.nan, np.nan]):
            with pytest.raises(ValueError) as exc:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    m_scale(np.array(r), CFG)
            assert str(exc.value) == self._outcome(
                _reference_m_scale, np.array(r))[len("ValueError: "):]

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
    def _reference_patches(m):
        calls = []

        def counted_m_scale(r, cfg):
            calls.append(1)
            return _reference_m_scale(r, cfg)

        m.setattr(robust, "bisquare_rho", _reference_bisquare_rho)
        m.setattr(robust, "bisquare_weight", _reference_bisquare_weight)
        m.setattr(robust, "m_scale", counted_m_scale)
        return calls

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
        spec = exponential_spec()
        for seed in range(3):
            scenario = ScenarioSpec(ScenarioKind.NONLINEAR, 100, 100, seed=seed)
            for sample in generate(scenario, scheme, np.random.default_rng(seed)):
                cfg = MMConfig(seed=seed)
                fast_calls = []
                with monkeypatch.context() as m:
                    # counts the calls the fast code makes through the module name
                    m.setattr(robust, "m_scale",
                              lambda r, c: fast_calls.append(1) or m_scale(r, c))
                    fast = fit_mm_nonlinear(sample, spec, cfg)
                with monkeypatch.context() as m:
                    ref_calls = self._reference_patches(m)
                    m.setattr(robust, "_gauss_newton_scale",
                              _reference_gauss_newton_scale)
                    reference = fit_mm_nonlinear(sample, spec, cfg)
                self._assert_identical(fast, reference)
                assert len(fast_calls) == len(ref_calls) > 0

    @pytest.mark.parametrize("contaminate", [0, 10])
    def test_linear_fit_bit_identical(self, contaminate, monkeypatch):
        for seed in range(4):
            s, _, _ = _linear_sample(seed, n=100, contaminate=contaminate)
            fast = fit_mm_linear(s, intercept=True, cfg=MMConfig(seed=seed))
            with monkeypatch.context() as m:
                calls = self._reference_patches(m)
                reference = fit_mm_linear(s, intercept=True, cfg=MMConfig(seed=seed))
            self._assert_identical(fast, reference)
            assert len(calls) > 0

    def test_linear_s_refinement_weighs_current_residuals(self, monkeypatch):
        # each IRLS step after the first weighs y - X beta of the step before,
        # with the bits of residuals computed afresh from that beta
        sample, _, y = _linear_sample(5, n=100, contaminate=10)
        X = robust.design_matrix(sample.x, True)
        steps = []                       # [w, beta_new, s_new] per S-step
        wls = robust._wls

        def recording_wls(X_, y_, w):
            beta = wls(X_, y_, w)
            steps.append([w, beta])
            return beta

        def recording_m_scale(r, cfg):
            s = m_scale(r, cfg)
            steps[-1].append(s)
            return s

        monkeypatch.setattr(robust, "_wls", recording_wls)
        monkeypatch.setattr(robust, "m_scale", recording_m_scale)
        fit_mm_linear(sample, intercept=True, cfg=MMConfig(seed=5))
        s_steps = [step for step in steps if len(step) == 3]
        assert len(s_steps) > 2
        for (_, beta, s), (w, _, _) in zip(s_steps, s_steps[1:]):
            expected = bisquare_weight((y - X @ beta) / s, CFG.rho_s_tuning)
            assert np.array_equal(w, expected)
