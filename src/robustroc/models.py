"""Core domain types: population samples, regression specs, fits, residuals, grids."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


def _columns(x) -> np.ndarray:
    """x as a float array of covariate rows: a 1-d x is one covariate."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return x[:, None] if x.ndim == 1 else x


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
        x = _freeze(_columns(self.x))
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
    """Regression function f(x, beta) of a family: linear, design(x) @ beta
    with an optional intercept column, or exponential, beta_1 exp(beta_2 x)
    in a scalar covariate, which has no intercept."""

    family: Family
    covariate_dim: int = 1
    intercept: bool = True

    def __post_init__(self):
        if self.family is Family.EXPONENTIAL:
            if self.covariate_dim != 1:
                raise ValueError(f"the exponential family takes one covariate, "
                                 f"found {self.covariate_dim}")
            object.__setattr__(self, "intercept", False)

    @property
    def coef_dim(self) -> int:
        if self.family is Family.EXPONENTIAL:
            return 2
        return self.covariate_dim + self.intercept

    def predict(self, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
        x = _columns(x)
        if x.shape[1] != self.covariate_dim:
            raise ValueError(
                f"covariate dimension {x.shape[1]} incompatible with spec "
                f"(expected {self.covariate_dim})"
            )
        beta = np.asarray(beta, dtype=float)
        if self.family is Family.LINEAR:
            return design_matrix(x, self.intercept) @ beta
        return beta[0] * np.exp(beta[1] * x[:, 0])

    def gradient(self, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """d f / d beta (n, q) at the covariates x, an (n, p) array."""
        if self.family is Family.LINEAR:
            return design_matrix(x, self.intercept)
        e = np.exp(beta[1] * x[:, 0])
        return np.column_stack([e, beta[0] * x[:, 0] * e])


def design_matrix(x: np.ndarray, intercept: bool) -> np.ndarray:
    x = _columns(x)
    if intercept:
        return np.column_stack([np.ones(x.shape[0]), x])
    return x


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


def standardized_residuals(sample: PopulationSample, fit: RobustFit) -> np.ndarray:
    """(y - f(x, beta_hat)) / sigma_hat for every observation, in order, as a
    read-only array. Residuals that overflow raise ValueError, not a warning."""
    if fit.degenerate_scale or fit.sigma_hat <= 0:
        raise ValueError("cannot standardize residuals with a degenerate scale")
    with np.errstate(over="ignore", invalid="ignore"):
        r = (sample.y - fit.predict(sample.x)) / fit.sigma_hat
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    r.flags.writeable = False
    return r


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
