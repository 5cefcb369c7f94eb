"""Monte Carlo laboratory: scenario generators, contamination injectors,
discrepancy metrics and replication campaigns."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterable, Optional

import numpy as np
from scipy.stats import norm

from .models import (
    EvalGrid,
    Group,
    PopulationSample,
    ScenarioKind,
    default_grids,
    exponential_spec,
    linear_spec,
    standardized_residuals,
)
from .robust import (
    DegenerateScaleWarning,
    MMConfig,
    fit_least_squares,
    fit_mm_linear,
    fit_mm_nonlinear,
)
from .roc import ConditionalRocModel, RocSurface, Variant, auc_curve, roc_surface
from .weighting import (
    build_weighted_ecdf,
    hard_rejection,
    plain_ecdf,
    smooth_polynomial,
    standard_normal_reference,
)

# True parameters of the simulation scenarios.
LINEAR_TRUE = {
    "beta_D": np.array([2.0, 4.0]), "sigma_D": 2.0,
    "beta_H": np.array([0.5, 1.0]), "sigma_H": 1.5,
    "x_low": -1.0, "x_high": 1.0,
}
NONLINEAR_TRUE = {
    "beta_D": np.array([5.0, 2.0]), "sigma_D": 1.0,
    "beta_H": np.array([3.0, 1.0]), "sigma_H": 1.0,
    "x_low": 0.0, "x_high": 1.0,
}


@dataclass(frozen=True)
class ScenarioSpec:
    model: ScenarioKind
    n_D: int = 100
    n_H: int = 100
    seed: int = 0

    @property
    def params(self) -> dict:
        return LINEAR_TRUE if self.model is ScenarioKind.LINEAR else NONLINEAR_TRUE

    def mu(self, group: Group, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        b = self.params["beta_D" if group is Group.DISEASED else "beta_H"]
        if self.model is ScenarioKind.LINEAR:
            return b[0] + b[1] * x
        return b[0] * np.exp(b[1] * x)

    def sigma(self, group: Group) -> float:
        return self.params["sigma_D" if group is Group.DISEASED else "sigma_H"]


class ContaminationKind(Enum):
    NONE = "none"
    SHIFT_HEALTHY = "shift_healthy"
    SHIFT_DISEASED = "shift_diseased"
    SHIFT_BOTH = "shift_both"
    NONLINEAR_SHIFT = "nonlinear_shift"


@dataclass(frozen=True)
class ContaminationScheme:
    """Replacement of the first m = floor(n * delta) observations per population.

    Shift kinds follow the linear-model formulas; diseased_line switches the
    as-printed healthy-line replacement for SHIFT_DISEASED to the diseased
    regression line. NONLINEAR_SHIFT applies to both populations of the
    exponential model.
    """

    kind: ContaminationKind = ContaminationKind.NONE
    delta: float = 0.0
    shift_s: float = 0.0
    diseased_line: bool = False

    def __post_init__(self):
        if not 0.0 <= self.delta < 0.5:
            raise ValueError("delta must lie in [0, 0.5)")
        if self.kind is not ContaminationKind.NONE and self.delta == 0.0:
            raise ValueError("contamination requires delta > 0")

    def validate_for(self, model: ScenarioKind) -> None:
        linear_only = {ContaminationKind.SHIFT_HEALTHY,
                       ContaminationKind.SHIFT_DISEASED,
                       ContaminationKind.SHIFT_BOTH}
        if self.kind in linear_only and model is not ScenarioKind.LINEAR:
            raise ValueError(f"{self.kind.value} applies to the linear scenario only")
        if self.kind is ContaminationKind.NONLINEAR_SHIFT and model is not ScenarioKind.NONLINEAR:
            raise ValueError("nonlinear_shift applies to the nonlinear scenario only")


CLEAN = ContaminationScheme()


def generate(scenario: ScenarioSpec, contamination: ContaminationScheme = CLEAN,
             rng: Optional[np.random.Generator] = None
             ) -> tuple[PopulationSample, PopulationSample]:
    """Draw one (diseased, healthy) pair of samples, then replace the first
    m = floor(n * delta) observations per contaminated population."""
    contamination.validate_for(scenario.model)
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    lo, hi = scenario.params["x_low"], scenario.params["x_high"]

    data = {}
    for group, n in ((Group.DISEASED, scenario.n_D), (Group.HEALTHY, scenario.n_H)):
        x = rng.uniform(lo, hi, size=n)
        eps = rng.standard_normal(n)
        y = scenario.mu(group, x) + scenario.sigma(group) * eps
        data[group] = (x, y)

    kind = contamination.kind
    s_val = contamination.shift_s
    sig_d = scenario.sigma(Group.DISEASED)
    sig_h = scenario.sigma(Group.HEALTHY)
    for group in (Group.DISEASED, Group.HEALTHY):
        n = scenario.n_D if group is Group.DISEASED else scenario.n_H
        m = math.floor(n * contamination.delta)
        x, y = data[group]
        if m == 0 or kind is ContaminationKind.NONE:
            continue
        if kind is ContaminationKind.SHIFT_HEALTHY:
            if group is not Group.HEALTHY:
                continue
            y[:m] = 0.5 + x[:m] + s_val * sig_h + sig_h * rng.standard_normal(m)
        elif kind is ContaminationKind.SHIFT_DISEASED:
            if group is not Group.DISEASED:
                continue
            if contamination.diseased_line:
                y[:m] = 2.0 + 4.0 * x[:m] + s_val * sig_d + sig_d * rng.standard_normal(m)
            else:
                # as printed: healthy line with the diseased scale
                y[:m] = 0.5 + x[:m] + s_val * sig_d + sig_d * rng.standard_normal(m)
        elif kind is ContaminationKind.SHIFT_BOTH:
            if group is Group.DISEASED:
                y[:m] = 2.0 + 4.0 * x[:m] + 20.0 * sig_d + sig_d * rng.standard_normal(m)
            else:
                y[:m] = 0.5 + x[:m] + 15.0 * sig_h + sig_h * rng.standard_normal(m)
        elif kind is ContaminationKind.NONLINEAR_SHIFT:
            x[:m] = rng.uniform(0.49, 0.5, size=m)
            z = s_val + rng.normal(0.0, 0.01, size=m)
            y[:m] = scenario.mu(group, x[:m]) + z + 0.01 * rng.standard_normal(m)

    sample_d = PopulationSample(Group.DISEASED, data[Group.DISEASED][1],
                                data[Group.DISEASED][0])
    sample_h = PopulationSample(Group.HEALTHY, data[Group.HEALTHY][1],
                                data[Group.HEALTHY][0])
    return sample_d, sample_h


def true_surface(scenario: ScenarioSpec, grid: EvalGrid) -> RocSurface:
    """Closed-form binormal surface under the true model with N(0,1) errors:
    ROC_x(p) = 1 - Phi(a(x) + b * Phi^{-1}(1 - p))."""
    x = grid.x_grid
    a = (scenario.mu(Group.HEALTHY, x) - scenario.mu(Group.DISEASED, x)) \
        / scenario.sigma(Group.DISEASED)
    b = scenario.sigma(Group.HEALTHY) / scenario.sigma(Group.DISEASED)
    q = norm.ppf(1.0 - grid.p_grid)
    values = 1.0 - norm.cdf(np.add.outer(a, b * q))
    return RocSurface(grid=grid, values=values)


def _check_grids(est: RocSurface, truth: RocSurface) -> None:
    if not (np.array_equal(est.grid.p_grid, truth.grid.p_grid)
            and np.array_equal(est.grid.x_grid, truth.grid.x_grid)):
        raise ValueError("surfaces evaluated on different grids")


def mse_metric(est: RocSurface, truth: RocSurface) -> float:
    _check_grids(est, truth)
    return float(np.mean((est.values - truth.values) ** 2))


def ks_metric(est: RocSurface, truth: RocSurface) -> float:
    _check_grids(est, truth)
    return float(np.max(np.abs(est.values - truth.values)))


def fit_variant_model(variant: Variant, sample_d: PopulationSample,
                      sample_h: PopulationSample, scenario: ScenarioSpec,
                      rng: np.random.Generator, eta: float = 2.5,
                      mm: Optional[MMConfig] = None,
                      robust_fits: Optional[tuple] = None) -> ConditionalRocModel:
    """Fit one estimator variant on a generated sample pair.

    robust_fits lets the campaign share the MM fits between the robust and
    hybrid variants within a replication.
    """
    ref = standard_normal_reference()
    linear = scenario.model is ScenarioKind.LINEAR
    spec = linear_spec(1, intercept=True) if linear else exponential_spec()
    if mm is None:
        mm = MMConfig()

    def mm_fit(sample):
        cfg = replace(mm, seed=int(rng.integers(2 ** 63)))
        if linear:
            return fit_mm_linear(sample, intercept=True, cfg=cfg)
        return fit_mm_nonlinear(sample, spec, cfg)

    if variant is Variant.CLASSICAL:
        fit_d = fit_least_squares(sample_d, spec)
        fit_h = fit_least_squares(sample_h, spec)
        g_d = plain_ecdf(standardized_residuals(sample_d, fit_d))
        g_h = plain_ecdf(standardized_residuals(sample_h, fit_h))
    else:
        if robust_fits is None:
            fit_d, fit_h = mm_fit(sample_d), mm_fit(sample_h)
        else:
            fit_d, fit_h = robust_fits
        r_d = standardized_residuals(sample_d, fit_d)
        r_h = standardized_residuals(sample_h, fit_h)
        if variant is Variant.ROBUST:
            w = hard_rejection() if linear else smooth_polynomial()
            g_d = build_weighted_ecdf(r_d, w, ref, eta)
            g_h = build_weighted_ecdf(r_h, w, ref, eta)
        else:  # hybrid: robust fits, classical ECDFs
            g_d = plain_ecdf(r_d)
            g_h = plain_ecdf(r_h)
    return ConditionalRocModel(fit_D=fit_d, fit_H=fit_h, gD_hat=g_d, gH_hat=g_h,
                               variant=variant)


@dataclass
class VariantMetrics:
    mse: np.ndarray
    ks: np.ndarray
    n_nonconverged: int = 0
    auc: Optional[np.ndarray] = None   # (n_rep, n_x) when retained

    @property
    def mean_mse(self) -> float:
        return float(np.mean(self.mse))

    @property
    def mean_ks(self) -> float:
        return float(np.mean(self.ks))


@dataclass
class MetricsReport:
    scenario: ScenarioSpec
    contamination: ContaminationScheme
    n_rep: int
    variants: Dict[Variant, VariantMetrics] = field(default_factory=dict)


def run_campaign(scenario: ScenarioSpec, contamination: ContaminationScheme,
                 variants: Iterable[Variant], n_rep: int,
                 grid: Optional[EvalGrid] = None, eta: float = 2.5,
                 mm: Optional[MMConfig] = None,
                 keep_auc: bool = False) -> MetricsReport:
    """Run n_rep replications: generate, fit every variant, score MSE/KS
    against the closed-form true surface. Deterministic given scenario.seed."""
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    contamination.validate_for(scenario.model)
    variants = list(variants)
    if grid is None:
        grid = default_grids(scenario.model)
    truth = true_surface(scenario, grid)

    results = {v: VariantMetrics(mse=np.zeros(n_rep), ks=np.zeros(n_rep),
                                 auc=np.zeros((n_rep, grid.x_grid.size))
                                 if keep_auc else None)
               for v in variants}

    for rep in range(n_rep):
        rng = np.random.default_rng([scenario.seed, rep])
        sample_d, sample_h = generate(scenario, contamination, rng)
        robust_fits = None
        for variant in variants:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateScaleWarning)
                    model = fit_variant_model(variant, sample_d, sample_h, scenario,
                                              rng, eta=eta, mm=mm,
                                              robust_fits=robust_fits
                                              if variant is Variant.HYBRID else None)
            except Exception as exc:
                raise RuntimeError(
                    f"replication {rep} (seed [{scenario.seed}, {rep}]) failed for "
                    f"variant {variant.value}: {exc}"
                ) from exc
            if variant is Variant.ROBUST:
                robust_fits = (model.fit_D, model.fit_H)
            surf = roc_surface(model, grid)
            res = results[variant]
            res.mse[rep] = mse_metric(surf, truth)
            res.ks[rep] = ks_metric(surf, truth)
            if not (model.fit_D.converged and model.fit_H.converged):
                res.n_nonconverged += 1
            if keep_auc:
                res.auc[rep] = auc_curve(surf).auc

    return MetricsReport(scenario=scenario, contamination=contamination,
                         n_rep=n_rep, variants=results)
