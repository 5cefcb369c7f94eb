"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with the measured quantities so the whole
gate can be audited from the test log. Campaign fixtures are module-scoped and
shared between criteria to keep the runtime within budget.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from robustroc import (
    ContaminationKind,
    ContaminationScheme,
    EvalGrid,
    ScenarioKind,
    ScenarioSpec,
    Variant,
    adaptive_cutoff,
    auc_curve,
    build_weighted_ecdf,
    default_grids,
    hard_rejection,
    normal_reference,
    plain_ecdf,
    roc_surface,
    run_campaign,
    smooth_polynomial,
    standard_normal_reference,
    true_surface,
)
from robustroc import ConditionalRocModel, Family, FitMethod, RegressionSpec, RobustFit
from robustroc.cli import main as cli_main


def true_linear_model():
    """True-parameter plug-in model with exact standard-normal errors."""
    g = standard_normal_reference()

    def fit(beta, sigma):
        return RobustFit(spec=RegressionSpec(Family.LINEAR),
                         beta_hat=np.asarray(beta), sigma_hat=sigma,
                         method=FitMethod.MM_LINEAR)

    return ConditionalRocModel(fit_D=fit([2.0, 4.0], 2.0),
                               fit_H=fit([0.5, 1.0], 1.5),
                               gD_hat=g, gH_hat=g, variant=Variant.ROBUST)


def binormal_roc(x, p):
    a = ((0.5 + x) - (2.0 + 4.0 * x)) / 2.0
    return 1.0 - norm.cdf(a + 0.75 * norm.ppf(1.0 - p))


LIN = ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=101)
NONLIN = ScenarioSpec(ScenarioKind.NONLINEAR, 100, 100, seed=101)
N_REP = 200


def _verdict(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def clean_linear():
    return run_campaign(LIN, ContaminationScheme(),
                        [Variant.CLASSICAL, Variant.ROBUST], N_REP)


@pytest.fixture(scope="module")
def shift_both_05():
    scheme = ContaminationScheme(ContaminationKind.SHIFT_BOTH, 0.05)
    return run_campaign(LIN, scheme, [Variant.CLASSICAL, Variant.ROBUST], N_REP)


def test_criterion_1_linear_clean_baseline(clean_linear):
    rob = clean_linear.variants[Variant.ROBUST].mean_mse
    cls = clean_linear.variants[Variant.CLASSICAL].mean_mse
    ok = 0.0022 <= rob <= 0.0054 and 0.0019 <= cls <= 0.0048
    _verdict("criterion 1 (linear clean baseline)", ok,
             f"robust MSE {rob:.4f} in [0.0022, 0.0054], "
             f"classical MSE {cls:.4f} in [0.0019, 0.0048]")


def test_criterion_2_linear_both_contamination(shift_both_05):
    cls = shift_both_05.variants[Variant.CLASSICAL]
    rob = shift_both_05.variants[Variant.ROBUST]
    ok = (cls.mean_mse >= 3 * rob.mean_mse
          and cls.mean_ks > 0.5 and rob.mean_ks < 0.3)
    _verdict("criterion 2 (both-population contamination)", ok,
             f"MSE classical {cls.mean_mse:.4f} vs robust {rob.mean_mse:.4f} "
             f"(ratio {cls.mean_mse / rob.mean_mse:.1f}); "
             f"KS classical {cls.mean_ks:.4f} > 0.5, robust {rob.mean_ks:.4f} < 0.3")


def test_criterion_3_sensitivity_sweep(clean_linear):
    robust_mse, classical_mse = {}, {}
    for s in (2.5, 5.0, 10.0, 20.0):
        scheme = ContaminationScheme(ContaminationKind.SHIFT_HEALTHY, 0.05, s)
        rep = run_campaign(LIN, scheme, [Variant.CLASSICAL, Variant.ROBUST],
                           N_REP)
        robust_mse[s] = rep.variants[Variant.ROBUST].mean_mse
        classical_mse[s] = rep.variants[Variant.CLASSICAL].mean_mse
    spread = max(robust_mse.values()) / min(robust_mse.values())
    clean_cls = clean_linear.variants[Variant.CLASSICAL].mean_mse
    ratio = classical_mse[20.0] / clean_cls
    ok = spread < 2.0 and ratio >= 4.0
    _verdict("criterion 3 (sensitivity sweep shape)", ok,
             f"robust MSE spread factor {spread:.2f} < 2 across S; "
             f"classical at S=20 {classical_mse[20.0]:.4f} = {ratio:.1f}x clean "
             f"{clean_cls:.4f} (>= 4x)")


def test_criterion_4_nonlinear_contamination():
    scheme = ContaminationScheme(ContaminationKind.NONLINEAR_SHIFT, 0.05, 10.0)
    rep = run_campaign(NONLIN, scheme, [Variant.CLASSICAL, Variant.ROBUST],
                       N_REP)
    cls = rep.variants[Variant.CLASSICAL].mean_mse
    rob = rep.variants[Variant.ROBUST].mean_mse
    ok = cls > 0.010 and rob < 0.006
    _verdict("criterion 4 (nonlinear contamination)", ok,
             f"classical MSE {cls:.4f} > 0.010, robust MSE {rob:.4f} < 0.006")


def test_criterion_5_closed_form_oracle():
    model = true_linear_model()
    grid = default_grids(ScenarioKind.LINEAR)
    est = roc_surface(model, grid)
    expected = binormal_roc(grid.x_grid[:, None], grid.p_grid[None, :])
    max_dev = float(np.max(np.abs(est.values - expected)))
    truth = true_surface(LIN, grid)
    max_dev = max(max_dev, float(np.max(np.abs(truth.values - expected))))
    auc0 = auc_curve(est).auc[int(np.argmin(np.abs(grid.x_grid)))]
    auc_err = abs(auc0 - norm.cdf(0.6))
    ok = max_dev < 1e-12 and auc_err < 0.002
    _verdict("criterion 5 (closed-form oracle)", ok,
             f"max surface deviation {max_dev:.2e} < 1e-12; "
             f"AUC_0 error {auc_err:.5f} < 0.002")


def test_criterion_6a_glivenko_cantelli():
    sups = []
    for seed in range(20):
        r = np.random.default_rng(seed).standard_normal(10000)
        ecdf = build_weighted_ecdf(r, hard_rejection(),
                                   standard_normal_reference(), eta=2.5)
        t = np.sort(r)
        sups.append(np.max(np.abs(ecdf.cdf(t) - norm.cdf(t))))
    med = float(np.median(sups))
    _verdict("criterion 6a (Glivenko-Cantelli)", med < 0.03,
             f"median sup distance {med:.4f} < 0.03 over 20 seeds at n=10000")


def test_criterion_6b_weighted_limit_oracle():
    # A tighter-than-true reference (scale 0.9) forces a positive population
    # atypicality d_0, an adaptive cut-off below the floor, and hence t_0 = 2.5;
    # the limit of the weighted ECDF is then h_0(t_0, .)/h_inf(t_0) with
    # h_inf(t) = E w(eps/t) and h_0(t, s) = E w(eps/t) 1{eps <= s}.
    t0 = 2.5
    w = smooth_polynomial()
    ref = normal_reference(0.9)

    def integrand(e):
        return w.eval(e / t0) * norm.pdf(e)

    h_inf = quad(integrand, -t0, t0, epsabs=1e-12)[0]

    def limit_cdf(s):
        if s <= -t0:
            return 0.0
        return quad(integrand, -t0, min(s, t0), epsabs=1e-12)[0] / h_inf

    sups = []
    cutoffs = []
    for seed in range(5):
        r = np.random.default_rng(seed).standard_normal(10000)
        ecdf = build_weighted_ecdf(r, w, ref, eta=2.5)
        cutoffs.append(ecdf.t_n)
        t = np.linspace(-4, 4, 161)
        sups.append(max(abs(ecdf.cdf(ti) - limit_cdf(ti)) for ti in t))
    med = float(np.median(sups))
    forced = all(c == 2.5 for c in cutoffs)
    _verdict("criterion 6b (weighted-limit oracle)", med < 0.03 and forced,
             f"median sup distance {med:.4f} < 0.03 with t_n forced to 2.5 "
             f"(cutoffs {sorted(set(cutoffs))})")


def test_criterion_6c_hard_rejection_reduction():
    rng = np.random.default_rng(66)
    r = np.clip(rng.standard_normal(500), -2.4, 2.4)  # all inside (-eta, eta)
    t_bar, t_n, _ = adaptive_cutoff(r, standard_normal_reference(), 2.5)
    weighted = build_weighted_ecdf(r, hard_rejection(),
                                   standard_normal_reference(), eta=2.5)
    plain = plain_ecdf(r)
    t = np.concatenate([r, np.linspace(-3, 3, 101)])
    exact = bool(np.all(weighted.cdf(t) == plain.cdf(t))
                 and np.all(weighted.weights == 1.0))
    q = np.linspace(0.01, 0.99, 99)
    exact = exact and bool(np.all(weighted.quantile(q) == plain.quantile(q)))
    _verdict("criterion 6c (reduction to plain ECDF)", exact,
             f"weighted ECDF identical to the plain ECDF (t_n = {t_n})")


_ROUND_TRIP_FAILURES = []


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=1000, deadline=None)
def _round_trip_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    r = rng.standard_normal(n) * rng.uniform(0.1, 4.0) + rng.uniform(-1, 1)
    kind = smooth_polynomial() if seed % 2 else hard_rejection()
    try:
        ecdf = build_weighted_ecdf(r, kind, standard_normal_reference(),
                                   eta=2.5)
    except ValueError:
        return  # pathological all-outlier draw, rejected by construction
    for q in rng.uniform(0.01, 0.99, 3):
        if not ecdf.cdf(ecdf.quantile(q)) >= q:
            _ROUND_TRIP_FAILURES.append(seed)
            return
    weights = ecdf.weights
    for ri in r[weights > 0]:
        if not ecdf.quantile(min(float(ecdf.cdf(ri)), 1 - 1e-12)) <= ri:
            _ROUND_TRIP_FAILURES.append(seed)
            return


def test_criterion_6d_quantile_cdf_round_trip():
    _round_trip_case()
    ok = not _ROUND_TRIP_FAILURES
    _verdict("criterion 6d (quantile/CDF round trip)", ok,
             "1000 randomized weighted samples satisfied both generalized-"
             "inverse inequalities" if ok else
             f"failing seeds: {_ROUND_TRIP_FAILURES[:5]}")


def test_criterion_7_hybrid_inferiority():
    scheme = ContaminationScheme(ContaminationKind.SHIFT_BOTH, 0.10)
    rep = run_campaign(LIN, scheme,
                       [Variant.CLASSICAL, Variant.ROBUST, Variant.HYBRID],
                       N_REP)
    rob = rep.variants[Variant.ROBUST].mean_mse
    hyb = rep.variants[Variant.HYBRID].mean_mse
    cls = rep.variants[Variant.CLASSICAL].mean_mse
    ok = rob < hyb < cls
    _verdict("criterion 7 (hybrid inferiority)", ok,
             f"mean MSE robust {rob:.4f} < hybrid {hyb:.4f} < classical "
             f"{cls:.4f}")


def test_criterion_8_determinism(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[simulate]\nscenario = linear\nn_rep = 10\n"
                   "contamination = shift_both\ndelta = 0.05\nkeep_auc = true\n"
                   "[output]\nseed = 77\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli_main(["simulate", "--config", str(ini), "--out", str(out1)])
    code2 = cli_main(["simulate", "--config", str(ini), "--out", str(out2)])
    same = (code1 == code2 == 0)
    for name in ("metrics.csv", "auc_classical.csv", "auc_robust.csv"):
        same = same and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _verdict("criterion 8 (determinism)", same,
             "reruns with identical config and seed produced byte-identical "
             "metrics and AUC-matrix reports")
