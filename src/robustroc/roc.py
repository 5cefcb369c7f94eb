"""Plug-in conditional ROC surfaces and conditional AUC curves."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import EvalGrid, RobustFit, _freeze
from .weighting import ReferenceDistribution, WeightedEcdf


class Variant(Enum):
    CLASSICAL = "classical"
    ROBUST = "robust"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ConditionalRocModel:
    """Fitted location-scale models for both populations plus residual
    distribution estimators (or exact reference distributions), ready for
    plug-in ROC evaluation."""

    fit_D: RobustFit
    fit_H: RobustFit
    gD_hat: WeightedEcdf | ReferenceDistribution
    gH_hat: WeightedEcdf | ReferenceDistribution
    variant: Variant = Variant.ROBUST

    def __post_init__(self):
        if self.fit_D.sigma_hat <= 0 or self.fit_H.sigma_hat <= 0:
            raise ValueError("ROC evaluation requires positive residual scales")


def roc_at(model: ConditionalRocModel, x, p) -> np.ndarray:
    """1 - G_D( (mu_H(x) - mu_D(x))/sigma_D + (sigma_H/sigma_D) * G_H^{-1}(1 - p) )."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p >= 1):
        raise ValueError("p must lie in (0, 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu_h = model.fit_H.predict(x)
    mu_d = model.fit_D.predict(x)
    s_d = model.fit_D.sigma_hat
    s_h = model.fit_H.sigma_hat
    qh = np.asarray(model.gH_hat.quantile(1.0 - p), dtype=float)
    arg = np.add.outer((mu_h - mu_d) / s_d, (s_h / s_d) * np.atleast_1d(qh))
    values = 1.0 - np.asarray(model.gD_hat.cdf(arg), dtype=float)
    if x.size == 1:
        row = values[0]
        return float(row[0]) if p.ndim == 0 else row
    return values


def roc_surface(model: ConditionalRocModel, grid: EvalGrid) -> "RocSurface":
    values = np.atleast_2d(roc_at(model, grid.x_grid, grid.p_grid))
    return RocSurface(grid=grid, values=values)


@dataclass(frozen=True)
class RocSurface:
    """Conditional ROC values on an (x, p) grid; values[i][j] = ROC_{x_i}(p_j)."""

    grid: EvalGrid
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(np.atleast_2d(self.values))
        if v.shape != (self.grid.x_grid.size, self.grid.p_grid.size):
            raise ValueError("surface shape does not match the grid")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class AucCurve:
    """Conditional AUC per covariate value: AUC_x = integral of ROC_x over p."""

    x_grid: np.ndarray
    auc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_grid", _freeze(self.x_grid))
        object.__setattr__(self, "auc", _freeze(self.auc))


def auc_curve(surface: RocSurface) -> AucCurve:
    """Trapezoid rule over the p grid, anchored with ROC(0) = 0 and ROC(1) = 1."""
    p = surface.grid.p_grid
    if p.size < 2:
        raise ValueError("need at least two p grid points")
    p_ext = np.concatenate([[0.0], p, [1.0]])
    nx = surface.grid.x_grid.size
    vals = np.column_stack([np.zeros(nx), surface.values, np.ones(nx)])
    # the trapezoid rule with the arithmetic of scipy's `trapezoid`, which
    # would cost a scipy.integrate import
    auc = np.add.reduce(np.diff(p_ext) * (vals[:, 1:] + vals[:, :-1]) / 2.0, axis=1)
    return AucCurve(x_grid=surface.grid.x_grid, auc=auc)


class MarkerTransform(Enum):
    NEG_INV_SQRT = "neg_inv_sqrt"


def transform_marker(y, kind: MarkerTransform = MarkerTransform.NEG_INV_SQRT):
    """Strictly increasing marker transform; NEG_INV_SQRT maps y -> -1/sqrt(y)."""
    y = np.asarray(y, dtype=float)
    if kind is MarkerTransform.NEG_INV_SQRT:
        if np.any(y <= 0):
            raise ValueError("the -1/sqrt(y) transform requires positive marker values")
        return -1.0 / np.sqrt(y)
    raise ValueError(f"unknown transform: {kind}")
