"""Core domain types: population samples, regression specs, fits, residuals, grids."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np


class Group(Enum):
    DISEASED = "D"
    HEALTHY = "H"


class Family(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


class FitMethod(Enum):
    MM_LINEAR = "mm_linear"
    MM_NONLINEAR = "mm_nonlinear"
    LEAST_SQUARES = "least_squares"


class ScenarioKind(Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"

    @property
    def family(self) -> Family:
        """Regression family of the scenario's true model."""
        return Family.LINEAR if self is ScenarioKind.LINEAR else Family.EXPONENTIAL


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PopulationSample:
    """Paired (y, x) observations for one population.

    y has shape (n,), x has shape (n, p); p >= 1.
    """

    label: Group
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = _freeze(np.atleast_1d(self.y))
        x = np.atleast_1d(self.x)
        if x.ndim == 1:
            x = x[:, None]
        x = _freeze(x)
        if y.ndim != 1 or x.ndim != 2:
            raise ValueError("y must be 1-d and x 2-d")
        if len(y) != x.shape[0]:
            raise ValueError(
                f"length mismatch: {len(y)} marker values, {x.shape[0]} covariate rows"
            )
        if len(y) < 1:
            raise ValueError("sample must contain at least one observation")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("marker and covariate values must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class RegressionSpec:
    """Regression-function family f(x, beta) with optional gradient d f / d beta.

    eval maps (x, beta) -> (n,) predictions for x of shape (n, p);
    gradient maps (x, beta) -> (n, q) and is required for nonlinear fitting.
    """

    family: Family
    coef_dim: int
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    intercept: bool = False
    covariate_dim: Optional[int] = None

    def predict(self, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 1:
            x = x[:, None]
        if self.covariate_dim is not None and x.shape[1] != self.covariate_dim:
            raise ValueError(
                f"covariate dimension {x.shape[1]} incompatible with spec "
                f"(expected {self.covariate_dim})"
            )
        return np.asarray(self.eval(x, np.asarray(beta, dtype=float)), dtype=float)


def design_matrix(x: np.ndarray, intercept: bool) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim == 1:
        x = x[:, None]
    if intercept:
        return np.column_stack([np.ones(x.shape[0]), x])
    return x


def linear_spec(p: int = 1, intercept: bool = True) -> RegressionSpec:
    """Linear family f(x, beta) = design(x) @ beta with an optional intercept column."""
    q = p + (1 if intercept else 0)

    def _eval(x, beta):
        return design_matrix(x, intercept) @ beta

    def _grad(x, beta):
        return design_matrix(x, intercept)

    return RegressionSpec(
        family=Family.LINEAR, coef_dim=q, eval=_eval, gradient=_grad,
        intercept=intercept, covariate_dim=p,
    )


def exponential_spec() -> RegressionSpec:
    """Exponential family f(x, beta) = beta_1 * exp(beta_2 * x) for scalar x."""

    def _eval(x, beta):
        return beta[0] * np.exp(beta[1] * x[:, 0])

    def _grad(x, beta):
        e = np.exp(beta[1] * x[:, 0])
        return np.column_stack([e, beta[0] * x[:, 0] * e])

    return RegressionSpec(
        family=Family.EXPONENTIAL, coef_dim=2, eval=_eval, gradient=_grad,
        covariate_dim=1,
    )


def family_spec(family: Family, p: int = 1) -> RegressionSpec:
    """Spec of a family for p covariates: linear with an intercept, or
    exponential in a scalar covariate."""
    if family is Family.LINEAR:
        return linear_spec(p, intercept=True)
    return exponential_spec()


@dataclass(frozen=True)
class RobustFit:
    """Fitted coefficients and residual scale for one population."""

    spec: RegressionSpec
    beta_hat: np.ndarray
    sigma_hat: float
    method: FitMethod
    converged: bool = True
    iterations: int = 0
    degenerate_scale: bool = False

    def __post_init__(self):
        beta = _freeze(np.atleast_1d(self.beta_hat))
        if not np.all(np.isfinite(beta)):
            raise ValueError("non-finite fitted coefficients")
        if not np.isfinite(self.sigma_hat):
            raise ValueError("non-finite residual scale")
        if self.sigma_hat <= 0 and not self.degenerate_scale:
            raise ValueError("sigma_hat must be positive unless flagged degenerate")
        object.__setattr__(self, "beta_hat", beta)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.spec.predict(x, self.beta_hat)


@dataclass(frozen=True)
class ResidualSet:
    """Standardized residuals r_i = (y_i - mu_hat(x_i)) / sigma_hat."""

    r: np.ndarray

    def __post_init__(self):
        r = _freeze(np.atleast_1d(self.r))
        if len(r) < 1:
            raise ValueError("residual set must be nonempty")
        if not np.all(np.isfinite(r)):
            raise ValueError("residuals must be finite")
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return len(self.r)


def standardized_residuals(sample: PopulationSample, fit: RobustFit) -> ResidualSet:
    """Compute (y - f(x, beta_hat)) / sigma_hat for every observation, in order."""
    if fit.degenerate_scale or fit.sigma_hat <= 0:
        raise ValueError("cannot standardize residuals with a degenerate scale")
    mu = fit.predict(sample.x)
    return ResidualSet(r=(sample.y - mu) / fit.sigma_hat)


@dataclass(frozen=True)
class EvalGrid:
    """Evaluation grid: p values in (0, 1) and covariate values, both increasing."""

    p_grid: np.ndarray
    x_grid: np.ndarray

    def __post_init__(self):
        p = _freeze(np.atleast_1d(self.p_grid))
        x = _freeze(np.atleast_1d(self.x_grid))
        if np.any(np.diff(p) <= 0) or np.any(np.diff(x) <= 0):
            raise ValueError("grids must be strictly increasing")
        if np.any(p <= 0) or np.any(p >= 1):
            raise ValueError("p grid values must lie in the open interval (0, 1)")
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "x_grid", x)


def default_grids(model: ScenarioKind) -> EvalGrid:
    """Simulation grids: p = 0.01..0.99 step 0.01; x step 0.05 on [-1,1] or [0,1]."""
    p = np.linspace(0.01, 0.99, 99)
    if model is ScenarioKind.LINEAR:
        x = np.linspace(-1.0, 1.0, 41)
    elif model is ScenarioKind.NONLINEAR:
        x = np.linspace(0.0, 1.0, 21)
    else:
        raise ValueError(f"unknown scenario kind: {model}")
    return EvalGrid(p_grid=p, x_grid=x)
