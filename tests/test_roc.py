"""Plug-in conditional ROC surfaces, AUC curves, and the marker transform."""
import numpy as np
import pytest
from scipy.stats import norm

from robustroc import (
    ConditionalRocModel,
    EvalGrid,
    Family,
    FitMethod,
    Group,
    MarkerTransform,
    MMConfig,
    PopulationSample,
    RegressionSpec,
    RobustFit,
    ScenarioKind,
    Variant,
    auc_curve,
    build_weighted_ecdf,
    default_grids,
    fit_mm_linear,
    hard_rejection,
    plain_ecdf,
    roc_at,
    roc_surface,
    standard_normal_reference,
    standardized_residuals,
    transform_marker,
)
from robustroc.simulate import fit_population, residual_distribution


def _fit(beta, sigma):
    return RobustFit(spec=RegressionSpec(Family.LINEAR), beta_hat=np.asarray(beta),
                     sigma_hat=sigma, method=FitMethod.MM_LINEAR)


def true_linear_model():
    """True-parameter plug-in model with exact standard-normal errors:
    diseased y = 2 + 4x + 2 eps, healthy y = 0.5 + x + 1.5 eps."""
    g = standard_normal_reference()
    return ConditionalRocModel(fit_D=_fit([2.0, 4.0], 2.0),
                               fit_H=_fit([0.5, 1.0], 1.5),
                               gD_hat=g, gH_hat=g, variant=Variant.ROBUST)


def binormal_roc(x, p):
    a = ((0.5 + x) - (2.0 + 4.0 * x)) / 2.0
    b = 1.5 / 2.0
    return 1.0 - norm.cdf(a + b * norm.ppf(1.0 - p))


class TestRocAt:
    def test_closed_form_at_origin(self):
        # a(0) = (0.5 - 2)/2 = -0.75, b = 0.75 -> ROC_0(0.5) = 1 - Phi(-0.75)
        val = roc_at(true_linear_model(), 0.0, 0.5)
        assert val == pytest.approx(1 - norm.cdf(-0.75), abs=1e-12)
        assert val == pytest.approx(0.7734, abs=5e-5)

    def test_closed_form_everywhere(self):
        model = true_linear_model()
        grid = default_grids(ScenarioKind.LINEAR)
        surf = roc_surface(model, grid)
        expected = binormal_roc(grid.x_grid[:, None], grid.p_grid[None, :])
        np.testing.assert_allclose(surf.values, expected, atol=1e-12)

    def test_p_domain_validated(self):
        with pytest.raises(ValueError, match="p must"):
            roc_at(true_linear_model(), 0.0, 0.0)
        with pytest.raises(ValueError, match="p must"):
            roc_at(true_linear_model(), 0.0, 1.0)

    def test_identical_populations_diagonal(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 300)
        y = 1.0 + 2.0 * x + rng.standard_normal(300)
        fit = fit_mm_linear(PopulationSample(Group.DISEASED, y, x),
                            intercept=True, cfg=MMConfig(seed=1))
        res = standardized_residuals(PopulationSample(Group.DISEASED, y, x), fit)
        g = build_weighted_ecdf(res, hard_rejection(),
                                standard_normal_reference())
        model = ConditionalRocModel(fit_D=fit, fit_H=fit, gD_hat=g, gH_hat=g)
        p = np.linspace(0.05, 0.95, 19)
        vals = roc_at(model, 0.3, p)
        assert np.max(np.abs(vals - p)) < 2.0 / 300 + 1e-12

    def test_endpoint_envelope(self):
        # at x = -0.5 the two population means coincide (a = 0), so the curve
        # approaches 0 and 1 at the grid ends
        model = true_linear_model()
        assert roc_at(model, -0.5, 0.01) < 0.2
        assert roc_at(model, -0.5, 0.99) > 0.9

    def test_monotone_in_p(self):
        surf = roc_surface(true_linear_model(),
                           default_grids(ScenarioKind.LINEAR))
        assert np.all(np.diff(surf.values, axis=1) >= 0)
        assert np.all((surf.values >= 0) & (surf.values <= 1))


class TestAucCurve:
    def test_binormal_closed_form_origin(self):
        # AUC_0 = Phi(1.5 / sqrt(4 + 2.25)) = Phi(0.6)
        surf = roc_surface(true_linear_model(),
                           default_grids(ScenarioKind.LINEAR))
        auc = auc_curve(surf)
        i0 = int(np.argmin(np.abs(auc.x_grid)))
        assert auc.x_grid[i0] == pytest.approx(0.0)
        assert auc.auc[i0] == pytest.approx(norm.cdf(0.6), abs=0.002)

    def test_binormal_closed_form_at_one(self):
        surf = roc_surface(true_linear_model(),
                           default_grids(ScenarioKind.LINEAR))
        auc = auc_curve(surf)
        # the curve is sharply concave near p = 0 at x = 1, so the anchored
        # trapezoid rule carries a slightly larger quadrature bias here
        assert auc.auc[-1] == pytest.approx(norm.cdf(1.8), abs=0.005)

    def test_identical_populations_half(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(500)
        g = plain_ecdf(r)
        model = ConditionalRocModel(fit_D=_fit([1.0, 2.0], 1.0),
                                    fit_H=_fit([1.0, 2.0], 1.0),
                                    gD_hat=g, gH_hat=g)
        surf = roc_surface(model, default_grids(ScenarioKind.LINEAR))
        auc = auc_curve(surf)
        assert np.max(np.abs(auc.auc - 0.5)) < 0.05

    def test_values_in_unit_interval(self):
        surf = roc_surface(true_linear_model(),
                           default_grids(ScenarioKind.LINEAR))
        auc = auc_curve(surf)
        assert np.all((auc.auc >= 0) & (auc.auc <= 1))


class TestTransformMarker:
    def test_examples(self):
        np.testing.assert_allclose(transform_marker([4.0]), [-0.5])
        np.testing.assert_allclose(transform_marker([100.0]), [-0.1])
        np.testing.assert_allclose(transform_marker([1.0]), [-1.0])

    def test_order_preserved(self):
        y = np.array([0.5, 1.0, 4.0, 81.0])
        t = transform_marker(y)
        assert np.all(np.diff(t) > 0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            transform_marker([1.0, 0.0])

    def test_diagonal_preserved_under_transform(self):
        # identical populations stay diagonal after a monotone transform
        rng = np.random.default_rng(30)
        x = rng.uniform(-1, 1, 400)
        y = np.exp(1.0 + 0.5 * x + 0.3 * rng.standard_normal(400))
        z = transform_marker(y, MarkerTransform.NEG_INV_SQRT)
        fit = fit_mm_linear(PopulationSample(Group.HEALTHY, z, x),
                            intercept=True, cfg=MMConfig(seed=2))
        res = standardized_residuals(PopulationSample(Group.HEALTHY, z, x), fit)
        g = plain_ecdf(res)
        model = ConditionalRocModel(fit_D=fit, fit_H=fit, gD_hat=g, gH_hat=g)
        p = np.linspace(0.1, 0.9, 9)
        vals = roc_at(model, 0.0, p)
        assert np.max(np.abs(vals - p)) < 0.01


def _linear_variant_model(variant, d, h, rng):
    """The campaign's linear estimator of one variant: MM seeds drawn from rng,
    D then H, and hard-rejection weights with eta = 2.5."""
    spec = RegressionSpec(Family.LINEAR)
    samples = (d, h)
    fits = [fit_population(s, spec, variant, MMConfig(seed=int(rng.integers(2 ** 63))))
            for s in samples]
    g_d, g_h = [residual_distribution(s, fit, variant, hard_rejection(), 2.5)
                for s, fit in zip(samples, fits)]
    return ConditionalRocModel(fit_D=fits[0], fit_H=fits[1], gD_hat=g_d, gH_hat=g_h,
                               variant=variant)


class TestVariantSeparation:
    def test_robust_beats_classical_under_contamination(self):
        # one contaminated sample per seed; median KS comparison
        from robustroc import (
            ContaminationKind,
            ContaminationScheme,
            ScenarioSpec,
            generate,
            ks_metric,
            true_surface,
        )

        scenario = ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=99)
        scheme = ContaminationScheme(ContaminationKind.SHIFT_BOTH, 0.10)
        grid = default_grids(ScenarioKind.LINEAR)
        truth = true_surface(scenario, grid)
        rob_ks, cls_ks = [], []
        for rep in range(20):
            rng = np.random.default_rng([99, rep])
            d, h = generate(scenario, scheme, rng)
            rob = _linear_variant_model(Variant.ROBUST, d, h, rng)
            cls = _linear_variant_model(Variant.CLASSICAL, d, h, rng)
            rob_ks.append(ks_metric(roc_surface(rob, grid), truth))
            cls_ks.append(ks_metric(roc_surface(cls, grid), truth))
        assert np.median(rob_ks) < np.median(cls_ks)

    def test_consistency_with_sample_size(self):
        # sup_p error at x = 0 shrinks from n = 100 to n = 1000 on clean data
        from robustroc import ScenarioSpec, generate

        grid = EvalGrid(p_grid=np.linspace(0.01, 0.99, 99), x_grid=[0.0])
        errs = {}
        for n in (100, 1000):
            scenario = ScenarioSpec(ScenarioKind.LINEAR, n, n, seed=5)
            per_seed = []
            for rep in range(10):
                rng = np.random.default_rng([5, rep])
                d, h = generate(scenario, rng=rng)
                model = _linear_variant_model(Variant.ROBUST, d, h, rng)
                vals = roc_at(model, 0.0, grid.p_grid)
                per_seed.append(np.max(np.abs(vals - binormal_roc(0.0,
                                                                  grid.p_grid))))
            errs[n] = np.median(per_seed)
        assert errs[1000] < errs[100]
