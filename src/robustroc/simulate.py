"""Monte Carlo laboratory: scenario generators, contamination injectors,
discrepancy metrics and replication campaigns."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterable, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .models import (
    EvalGrid,
    Family,
    Group,
    PopulationSample,
    RegressionSpec,
    RobustFit,
    ScenarioKind,
    default_grids,
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
    WeightedEcdf,
    WeightFunction,
    build_weighted_ecdf,
    hard_rejection,
    plain_ecdf,
    smooth_polynomial,
    standard_normal_reference,
)

# Reference error distribution that calibrates the adaptive cut-off.
_REFERENCE = standard_normal_reference()

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
    for group, (x, y) in data.items():
        m = math.floor(y.size * contamination.delta)
        if m == 0 or kind is ContaminationKind.NONE:
            continue
        sig = scenario.sigma(group)
        if kind is ContaminationKind.SHIFT_HEALTHY:
            if group is not Group.HEALTHY:
                continue
            y[:m] = scenario.mu(group, x[:m]) + s_val * sig + sig * rng.standard_normal(m)
        elif kind is ContaminationKind.SHIFT_DISEASED:
            if group is not Group.DISEASED:
                continue
            # as printed: the healthy line with the diseased scale, unless
            # diseased_line asks for the diseased line
            line = Group.DISEASED if contamination.diseased_line else Group.HEALTHY
            y[:m] = scenario.mu(line, x[:m]) + s_val * sig + sig * rng.standard_normal(m)
        elif kind is ContaminationKind.SHIFT_BOTH:
            shift = 20.0 if group is Group.DISEASED else 15.0
            y[:m] = scenario.mu(group, x[:m]) + shift * sig + sig * rng.standard_normal(m)
        elif kind is ContaminationKind.NONLINEAR_SHIFT:
            x[:m] = rng.uniform(0.49, 0.5, size=m)
            z = s_val + rng.normal(0.0, 0.01, size=m)
            y[:m] = scenario.mu(group, x[:m]) + z + 0.01 * rng.standard_normal(m)

    return tuple(PopulationSample(group, y, x) for group, (x, y) in data.items())


def true_surface(scenario: ScenarioSpec, grid: EvalGrid) -> RocSurface:
    """Closed-form binormal surface under the true model with N(0,1) errors:
    ROC_x(p) = 1 - Phi(a(x) + b * Phi^{-1}(1 - p))."""
    x = grid.x_grid
    a = (scenario.mu(Group.HEALTHY, x) - scenario.mu(Group.DISEASED, x)) \
        / scenario.sigma(Group.DISEASED)
    b = scenario.sigma(Group.HEALTHY) / scenario.sigma(Group.DISEASED)
    q = ndtri(1.0 - grid.p_grid)
    values = 1.0 - ndtr(np.add.outer(a, b * q))
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


def fit_population(sample: PopulationSample, spec: RegressionSpec, variant: Variant,
                   mm: MMConfig) -> RobustFit:
    """Location-scale fit of one population: least squares for the classical
    variant, otherwise the MM-estimator of spec's family, seeded by mm.seed."""
    if variant is Variant.CLASSICAL:
        return fit_least_squares(sample, spec)
    if spec.family is Family.LINEAR:
        return fit_mm_linear(sample, spec.intercept, mm)
    return fit_mm_nonlinear(sample, spec, mm)


def residual_distribution(sample: PopulationSample, fit: RobustFit, variant: Variant,
                          weights: WeightFunction, eta: float) -> WeightedEcdf:
    """Distribution of the standardized residuals: adaptively weighted against
    the standard normal for the robust variant, plain for classical and hybrid."""
    residuals = standardized_residuals(sample, fit)
    if variant is Variant.ROBUST:
        return build_weighted_ecdf(residuals, weights, _REFERENCE, eta)
    return plain_ecdf(residuals)


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
                 keep_auc: bool = False,
                 weights: Optional[WeightFunction] = None) -> MetricsReport:
    """Run n_rep replications: generate, fit every variant, score MSE/KS
    against the closed-form true surface. Deterministic given scenario.seed.
    The fits use the family of the scenario's model; the default weights are
    hard rejection for the linear scenario and smooth for the nonlinear one."""
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

    family = scenario.model.family
    spec = RegressionSpec(family)
    if weights is None:
        weights = hard_rejection() if family is Family.LINEAR else smooth_polynomial()
    if mm is None:
        mm = MMConfig()

    for rep in range(n_rep):
        rng = np.random.default_rng([scenario.seed, rep])
        samples = generate(scenario, contamination, rng)
        mm_fits = []
        for variant in variants:
            fits, dists = [], []
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateScaleWarning)
                    for i, sample in enumerate(samples):
                        if variant is Variant.CLASSICAL:
                            fit = fit_population(sample, spec, variant, mm)
                        elif i < len(mm_fits):
                            fit = mm_fits[i]
                        else:
                            # one seed per population, D then H, drawn once so
                            # that robust and hybrid share these fits in any order
                            fit = fit_population(
                                sample, spec, variant,
                                replace(mm, seed=int(rng.integers(2 ** 63))))
                            mm_fits.append(fit)
                        fits.append(fit)
                        dists.append(residual_distribution(sample, fit, variant,
                                                           weights, eta))
            except Exception as exc:
                raise RuntimeError(
                    f"replication {rep} (seed [{scenario.seed}, {rep}]) failed for "
                    f"variant {variant.value}, {sample.label.name.lower()} "
                    f"population: {exc}"
                ) from exc
            model = ConditionalRocModel(fit_D=fits[0], fit_H=fits[1], gD_hat=dists[0],
                                        gH_hat=dists[1], variant=variant)
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
