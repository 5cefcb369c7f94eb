"""Scenario generators, contamination injectors, metrics, and campaigns."""
import numpy as np
import pytest
from scipy.stats import norm

from robustroc import (
    ContaminationKind,
    ContaminationScheme,
    EvalGrid,
    Group,
    RocSurface,
    ScenarioKind,
    ScenarioSpec,
    Variant,
    default_grids,
    generate,
    hard_rejection,
    ks_metric,
    mse_metric,
    run_campaign,
    smooth_polynomial,
    true_surface,
)

LIN = ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=0)
NONLIN = ScenarioSpec(ScenarioKind.NONLINEAR, 100, 100, seed=0)


class TestGenerate:
    def test_clean_moments(self):
        scenario = ScenarioSpec(ScenarioKind.LINEAR, 2000, 2000, seed=1)
        d, h = generate(scenario)
        # healthy: y = 0.5 + x + 1.5 eps with x ~ U(-1,1)
        assert abs(h.y.mean() - 0.5) < 3 * 1.5 / np.sqrt(2000) + 3 / np.sqrt(3 * 2000)
        assert abs(h.x.mean()) < 0.05
        assert abs(d.y.mean() - 2.0) < 0.2
        assert np.all((d.x >= -1) & (d.x <= 1))

    def test_shift_healthy_audit(self):
        # delta = 0.10, S = 20: exactly 10 replaced healthy points with
        # conditional mean 0.5 + x + 30
        scheme = ContaminationScheme(ContaminationKind.SHIFT_HEALTHY, 0.10, 20.0)
        d, h = generate(ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=3),
                        scheme)
        resid = h.y[:10] - (0.5 + h.x[:10, 0]) - 20.0 * 1.5
        assert np.all(np.abs(resid) < 5 * 1.5)
        assert abs(resid.mean()) < 3 * 1.5 / np.sqrt(10)
        # the rest of the healthy sample stays on the clean line
        clean = h.y[10:] - (0.5 + h.x[10:, 0])
        assert np.all(np.abs(clean) < 6 * 1.5)
        # diseased sample untouched
        d_clean, _ = generate(ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=3))
        assert np.all(np.abs(d.y - (2 + 4 * d.x[:, 0])) < 6 * 2.0)

    def test_shift_both_audit(self):
        # 5 diseased points with mean 2 + 4x + 40 and 5 healthy with 0.5 + x + 22.5
        scheme = ContaminationScheme(ContaminationKind.SHIFT_BOTH, 0.05)
        d, h = generate(ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=4),
                        scheme)
        rd = d.y[:5] - (2.0 + 4.0 * d.x[:5, 0]) - 40.0
        rh = h.y[:5] - (0.5 + h.x[:5, 0]) - 22.5
        assert np.all(np.abs(rd) < 5 * 2.0)
        assert np.all(np.abs(rh) < 5 * 1.5)

    def test_shift_diseased_as_printed_vs_diseased_line(self):
        # as printed: replacement sits on the healthy line with sigma_D scale
        printed = ContaminationScheme(ContaminationKind.SHIFT_DISEASED, 0.05, 5.0)
        d, _ = generate(ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=5),
                        printed)
        assert np.all(np.abs(d.y[:5] - (0.5 + d.x[:5, 0]) - 10.0) < 5 * 2.0)
        alt = ContaminationScheme(ContaminationKind.SHIFT_DISEASED, 0.05, 5.0,
                                  diseased_line=True)
        d2, _ = generate(ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=5),
                         alt)
        assert np.all(np.abs(d2.y[:5] - (2.0 + 4.0 * d2.x[:5, 0]) - 10.0)
                      < 5 * 2.0)

    def test_nonlinear_shift_audit(self):
        scheme = ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT, 0.05,
                                     10.0)
        d, h = generate(ScenarioSpec(ScenarioKind.NONLINEAR, 100, 100, seed=6),
                        scheme)
        for s in (d, h):
            x_bad = s.x[:5, 0]
            assert np.all((x_bad >= 0.49) & (x_bad <= 0.5))
            mu = (5.0 * np.exp(2.0 * x_bad) if s is d
                  else 3.0 * np.exp(1.0 * x_bad))
            assert np.all(np.abs(s.y[:5] - mu - 10.0) < 0.2)

    def test_invalid_scheme_combinations(self):
        with pytest.raises(ValueError, match="linear scenario only"):
            generate(NONLIN, ContaminationScheme(ContaminationKind.SHIFT_BOTH,
                                                 0.05))
        with pytest.raises(ValueError, match="nonlinear scenario only"):
            generate(LIN, ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT,
                                              0.05, 10.0))
        with pytest.raises(ValueError, match="delta"):
            ContaminationScheme(ContaminationKind.SHIFT_BOTH, 0.7)

    def test_replacement_count_uses_floor(self):
        scheme = ContaminationScheme(ContaminationKind.SHIFT_HEALTHY, 0.05, 20.0)
        _, h = generate(ScenarioSpec(ScenarioKind.LINEAR, 100, 30, seed=7),
                        scheme)
        # floor(30 * 0.05) = 1 replaced point
        off_line = np.abs(h.y - (0.5 + h.x[:, 0])) > 10.0
        assert off_line.sum() == 1 and off_line[0]


def _surface(values, nx=2, np_=2):
    grid = EvalGrid(p_grid=np.linspace(0.25, 0.75, np_),
                    x_grid=np.linspace(0.0, 1.0, nx))
    return RocSurface(grid=grid, values=np.asarray(values, dtype=float))


class TestMetrics:
    def test_identical_surfaces(self):
        s = _surface([[0.1, 0.2], [0.3, 0.4]])
        assert mse_metric(s, s) == 0.0
        assert ks_metric(s, s) == 0.0

    def test_uniform_offset(self):
        a = _surface([[0.1, 0.2], [0.3, 0.4]])
        b = _surface([[0.2, 0.3], [0.4, 0.5]])
        assert mse_metric(a, b) == pytest.approx(0.01)
        assert ks_metric(a, b) == pytest.approx(0.1)

    def test_single_cell_discrepancy(self):
        a = _surface([[0.1, 0.2], [0.3, 0.4]])
        b = _surface([[0.6, 0.2], [0.3, 0.4]])
        assert mse_metric(a, b) == pytest.approx(0.0625)
        assert ks_metric(a, b) == pytest.approx(0.5)

    def test_grid_mismatch_rejected(self):
        a = _surface([[0.1, 0.2], [0.3, 0.4]])
        other = RocSurface(grid=EvalGrid(p_grid=[0.3, 0.7], x_grid=[0.0, 1.0]),
                           values=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="grid"):
            mse_metric(a, other)

    def test_mse_at_most_ks(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0, 1, (5, 7))
        w = rng.uniform(0, 1, (5, 7))
        grid = EvalGrid(p_grid=np.linspace(0.1, 0.9, 7),
                        x_grid=np.linspace(0, 1, 5))
        a, b = RocSurface(grid=grid, values=v), RocSurface(grid=grid, values=w)
        assert mse_metric(a, b) <= ks_metric(a, b) <= 1.0


class TestTrueSurface:
    def test_linear_origin(self):
        grid = EvalGrid(p_grid=[0.5], x_grid=[0.0])
        val = true_surface(LIN, grid).values[0, 0]
        assert val == pytest.approx(1 - norm.cdf(-0.75), abs=1e-13)
        assert val == pytest.approx(0.7734, abs=5e-5)

    def test_nonlinear_origin(self):
        # a = (3 - 5)/1 = -2, b = 1 -> ROC(0.5) = 1 - Phi(-2)
        grid = EvalGrid(p_grid=[0.5], x_grid=[0.0])
        val = true_surface(NONLIN, grid).values[0, 0]
        assert val == pytest.approx(1 - norm.cdf(-2.0), abs=1e-13)
        assert val == pytest.approx(0.9772, abs=5e-5)

    def test_linear_origin_auc(self):
        from robustroc import auc_curve

        grid = EvalGrid(p_grid=np.linspace(0.01, 0.99, 99), x_grid=[0.0])
        auc = auc_curve(true_surface(LIN, grid))
        assert auc.auc[0] == pytest.approx(norm.cdf(0.6), abs=0.002)


class TestRunCampaign:
    def test_single_replication(self):
        rep = run_campaign(LIN, ContaminationScheme(), [Variant.CLASSICAL],
                           n_rep=1)
        res = rep.variants[Variant.CLASSICAL]
        assert res.mse.shape == (1,)
        assert 0 <= res.mean_mse <= res.mean_ks <= 1

    def test_deterministic(self):
        kwargs = dict(scenario=LIN, contamination=ContaminationScheme(),
                      variants=[Variant.CLASSICAL, Variant.ROBUST], n_rep=3)
        a = run_campaign(**kwargs)
        b = run_campaign(**kwargs)
        for v in kwargs["variants"]:
            np.testing.assert_array_equal(a.variants[v].mse, b.variants[v].mse)
            np.testing.assert_array_equal(a.variants[v].ks, b.variants[v].ks)

    def test_keep_auc_shapes(self):
        rep = run_campaign(LIN, ContaminationScheme(), [Variant.ROBUST],
                           n_rep=2, keep_auc=True)
        auc = rep.variants[Variant.ROBUST].auc
        assert auc.shape == (2, 41)
        assert np.all((auc >= 0) & (auc <= 1))

    @pytest.mark.parametrize("scenario, scheme", [
        (LIN, ContaminationScheme(ContaminationKind.SHIFT_BOTH, 0.05)),
        (NONLIN, ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT, 0.05, 10.0)),
    ])
    def test_classical_variant_leaves_robust_unchanged(self, scenario, scheme):
        # the classical fits draw nothing from the replication stream, and robust
        # and hybrid share one pair of MM fits: no variant's results depend on
        # which other variants run, or in what order
        C, R, H = Variant.CLASSICAL, Variant.ROBUST, Variant.HYBRID
        lists = [[R], [C, R], [H, R], [C, H, R], [R, H], [H]]
        reports = [run_campaign(scenario, scheme, variants, n_rep=2, keep_auc=True)
                   for variants in lists]
        for variant in (C, R, H):
            runs = [r.variants[variant] for r in reports if variant in r.variants]
            for run in runs[1:]:
                for attr in ("mse", "ks", "auc", "n_nonconverged"):
                    assert np.array_equal(getattr(run, attr),
                                          getattr(runs[0], attr)), (variant, attr)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="n_rep"):
            run_campaign(LIN, ContaminationScheme(), [Variant.ROBUST], 0)

    @pytest.mark.parametrize("failing", [Group.DISEASED, Group.HEALTHY])
    @pytest.mark.parametrize("variant", [Variant.CLASSICAL, Variant.ROBUST])
    def test_failure_names_population(self, monkeypatch, failing, variant):
        from robustroc import simulate

        real = simulate.fit_population

        def fit_population(sample, *args):
            if sample.label is failing:
                raise ValueError("injected failure")
            return real(sample, *args)

        monkeypatch.setattr(simulate, "fit_population", fit_population)
        population = failing.name.lower()
        with pytest.raises(RuntimeError,
                           match=rf"replication 0 \(seed \[0, 0\]\) failed for "
                                 rf"variant {variant.value}, {population} "
                                 rf"population: injected failure"):
            run_campaign(LIN, ContaminationScheme(), [variant], n_rep=1)

    def test_weights_default_to_the_scenarios(self):
        # hard rejection for the linear scenario, smooth for the nonlinear one
        shifted = ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT, 0.05, 10.0)
        for scenario, scheme, default, other in (
                (LIN, ContaminationScheme(), hard_rejection(), smooth_polynomial()),
                (NONLIN, shifted, smooth_polynomial(), hard_rejection())):
            runs = [run_campaign(scenario, scheme, [Variant.ROBUST], n_rep=2,
                                 weights=weights).variants[Variant.ROBUST].mse
                    for weights in (None, default, other)]
            assert np.array_equal(runs[0], runs[1])
            assert not np.array_equal(runs[0], runs[2])
