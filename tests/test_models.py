"""Core domain types: samples, regression specs, residuals, grids."""
import warnings

import numpy as np
import pytest

from robustroc import (
    EvalGrid,
    Family,
    FitMethod,
    Group,
    PopulationSample,
    RegressionSpec,
    RobustFit,
    ScenarioKind,
    default_grids,
    design_matrix,
    standardized_residuals,
)


def _linear_fit(beta, sigma):
    return RobustFit(spec=RegressionSpec(Family.LINEAR), beta_hat=np.asarray(beta),
                     sigma_hat=sigma, method=FitMethod.MM_LINEAR)


class TestPopulationSample:
    def test_basic_shapes(self):
        s = PopulationSample(Group.DISEASED, [1.0, 2.0], [[0.1], [0.2]])
        assert s.n == 2 and s.p == 1
        assert s.x.shape == (2, 1)

    def test_1d_covariates_promoted(self):
        s = PopulationSample(Group.HEALTHY, [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        assert s.x.shape == (3, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            PopulationSample(Group.HEALTHY, [1.0, 2.0], [0.1])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PopulationSample(Group.HEALTHY, [np.nan], [0.1])

    def test_immutable(self):
        s = PopulationSample(Group.HEALTHY, [1.0], [0.1])
        with pytest.raises(ValueError):
            s.y[0] = 2.0


class TestRegressionSpecs:
    def test_linear_with_intercept(self):
        spec = RegressionSpec(Family.LINEAR)
        assert spec.coef_dim == 2
        np.testing.assert_allclose(spec.predict([1.0, 2.0], [1.0, 2.0]),
                                   [3.0, 5.0])
        np.testing.assert_array_equal(spec.gradient(np.array([[1.0], [2.0]]), None),
                                      [[1.0, 1.0], [1.0, 2.0]])

    def test_linear_coef_dim_counts_covariates(self):
        spec = RegressionSpec(Family.LINEAR, covariate_dim=3)
        assert spec.coef_dim == 4
        np.testing.assert_allclose(spec.predict([[1.0, 2.0, 3.0]], [1.0, 1.0, 2.0, 3.0]),
                                   [15.0])

    def test_linear_without_intercept(self):
        spec = RegressionSpec(Family.LINEAR, intercept=False)
        assert spec.coef_dim == 1
        np.testing.assert_allclose(spec.predict([2.0], [3.0]), [6.0])

    def test_exponential_eval_and_gradient(self):
        spec = RegressionSpec(Family.EXPONENTIAL)
        assert spec.coef_dim == 2 and not spec.intercept
        x = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(spec.predict(x, [5.0, 2.0]),
                                   [5.0, 5.0 * np.e ** 2])
        grad = spec.gradient(x, np.array([5.0, 2.0]))
        np.testing.assert_allclose(grad[0], [1.0, 0.0])
        np.testing.assert_allclose(grad[1], [np.e ** 2, 5.0 * np.e ** 2])

    def test_exponential_takes_one_covariate(self):
        with pytest.raises(ValueError, match="exponential family takes one covariate, "
                                             "found 2"):
            RegressionSpec(Family.EXPONENTIAL, covariate_dim=2)

    def test_design_matrix(self):
        X = design_matrix([1.0, 2.0], intercept=True)
        np.testing.assert_allclose(X, [[1.0, 1.0], [1.0, 2.0]])

    def test_dimension_mismatch(self):
        spec = RegressionSpec(Family.LINEAR)
        with pytest.raises(ValueError, match="dimension"):
            spec.predict(np.ones((3, 2)), [1.0, 2.0])


class TestStandardizedResiduals:
    def test_exact_fit_gives_zero(self):
        # y = 3 at x = 1 under intercept 1, slope 2, sigma 1
        s = PopulationSample(Group.HEALTHY, [3.0], [1.0])
        res = standardized_residuals(s, _linear_fit([1.0, 2.0], 1.0))
        np.testing.assert_allclose(res, [0.0])

    def test_scale_division(self):
        s = PopulationSample(Group.HEALTHY, [5.0], [1.0])
        res = standardized_residuals(s, _linear_fit([1.0, 2.0], 2.0))
        np.testing.assert_allclose(res, [1.0])

    def test_model_inversion(self):
        # y generated at the true healthy parameters recovers the error draw
        z = 0.7346
        y = 0.5 + 1.0 * 0.3 + 1.5 * z
        s = PopulationSample(Group.HEALTHY, [y], [0.3])
        res = standardized_residuals(s, _linear_fit([0.5, 1.0], 1.5))
        np.testing.assert_allclose(res, [z])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 20)
        y = 1 + 2 * x + rng.standard_normal(20)
        fit = _linear_fit([1.0, 2.0], 1.5)
        base = standardized_residuals(PopulationSample(Group.HEALTHY, y, x), fit)
        shifted = standardized_residuals(
            PopulationSample(Group.HEALTHY, y + 3.0 * 1.5, x), fit)
        np.testing.assert_allclose(shifted, base + 3.0)

    def test_read_only(self):
        s = PopulationSample(Group.HEALTHY, [5.0, 1.0], [1.0, 0.0])
        res = standardized_residuals(s, _linear_fit([1.0, 2.0], 2.0))
        with pytest.raises(ValueError):
            res[0] = 0.0

    @staticmethod
    def _refused_silently(y, beta, sigma):
        # a ValueError and no RuntimeWarning, whatever the warning filters
        s = PopulationSample(Group.HEALTHY, y, [0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                standardized_residuals(s, _linear_fit(beta, sigma))

    def test_non_finite_refused(self):
        # a finite sample and fit whose residuals overflow in the division
        self._refused_silently([1e300, -1e300], [0.0, 0.0], 1e-10)

    def test_overflowing_difference_refused(self):
        # a finite sample and fit whose y - f(x, beta) overflows
        self._refused_silently([1.5e308, 1.0], [-1.5e308, 0.0], 1.0)

    def test_degenerate_scale_refused(self):
        s = PopulationSample(Group.HEALTHY, [3.0], [1.0])
        fit = RobustFit(spec=RegressionSpec(Family.LINEAR),
                        beta_hat=np.array([1.0, 2.0]), sigma_hat=0.0,
                        method=FitMethod.MM_LINEAR, degenerate_scale=True)
        with pytest.raises(ValueError, match="degenerate"):
            standardized_residuals(s, fit)


class TestGrids:
    def test_linear_default_grid(self):
        g = default_grids(ScenarioKind.LINEAR)
        assert g.p_grid.size == 99
        assert g.p_grid[0] == pytest.approx(0.01)
        assert g.p_grid[-1] == pytest.approx(0.99)
        assert g.x_grid.size == 41
        assert g.x_grid[0] == -1.0 and g.x_grid[-1] == 1.0
        np.testing.assert_allclose(np.diff(g.x_grid), 0.05)

    def test_nonlinear_default_grid(self):
        g = default_grids(ScenarioKind.NONLINEAR)
        assert g.x_grid.size == 21
        assert g.x_grid[0] == 0.0 and g.x_grid[-1] == 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            EvalGrid(p_grid=[0.5, 0.4], x_grid=[0.0, 1.0])
        with pytest.raises(ValueError, match="open interval"):
            EvalGrid(p_grid=[0.0, 0.5], x_grid=[0.0, 1.0])
