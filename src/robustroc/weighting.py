"""Adaptive outlier-downweighting empirical distribution of standardized residuals.

Atypical residuals are detected by comparing the empirical distribution of the
absolute residuals against a reference distribution; residuals beyond the
data-driven cut-off receive weight zero in the resulting step CDF and quantile
function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri


def _as_array(residuals: np.ndarray) -> np.ndarray:
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residuals must be nonempty")
    return r


class WeightKind(Enum):
    HARD_REJECTION = "hard"
    SMOOTH_POLYNOMIAL = "smooth"


@dataclass(frozen=True)
class WeightFunction:
    """Even weight u -> w(u) in [0, 1], non-increasing on [0, inf), w(0) = 1 and
    w(u) = 0 for |u| >= 1, so residuals at or beyond the cut-off are dropped."""

    kind: WeightKind
    eval: Callable[[np.ndarray], np.ndarray]


def hard_rejection() -> WeightFunction:
    return WeightFunction(
        kind=WeightKind.HARD_REJECTION,
        eval=lambda u: np.where(np.abs(np.asarray(u, dtype=float)) < 1.0, 1.0, 0.0),
    )


def smooth_polynomial() -> WeightFunction:
    def _eval(u):
        u = np.asarray(u, dtype=float)
        z = np.minimum(np.square(u), 1.0)
        return (1.0 - z) ** 2

    return WeightFunction(kind=WeightKind.SMOOTH_POLYNOMIAL, eval=_eval)


def weight_function(kind: WeightKind) -> WeightFunction:
    if kind is WeightKind.HARD_REJECTION:
        return hard_rejection()
    return smooth_polynomial()


@dataclass(frozen=True)
class ReferenceDistribution:
    """Hypothetical error distribution G used to calibrate the cut-off."""

    cdf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    abs_cdf: Callable[[np.ndarray], np.ndarray]


def normal_reference(scale: float = 1.0) -> ReferenceDistribution:
    """Centered normal reference; abs_cdf(t) = 2 Phi(t/scale) - 1 for t >= 0."""
    return ReferenceDistribution(
        cdf=lambda t: ndtr(np.asarray(t, dtype=float) / scale),
        quantile=lambda p: scale * ndtri(p),
        abs_cdf=lambda t: 2.0 * ndtr(np.asarray(t, dtype=float) / scale) - 1.0,
    )


def standard_normal_reference() -> ReferenceDistribution:
    return normal_reference(1.0)


def _dn_sorted(a: np.ndarray, ref: ReferenceDistribution) -> float:
    """`atypicality_dn` of the sorted absolute residuals a."""
    gaps = ref.abs_cdf(a) - np.arange(a.size) / a.size
    return float(max(np.max(gaps), 0.0))


def atypicality_dn(residuals: np.ndarray, ref: ReferenceDistribution) -> float:
    """Largest positive gap between the reference absolute-value CDF and the
    empirical absolute-residual CDF, evaluated over the order statistics:
    d_n = max_i max(Gplus(|r|_(i)) - (i-1)/n, 0)."""
    return _dn_sorted(np.sort(np.abs(_as_array(residuals))), ref)


def adaptive_cutoff(residuals: np.ndarray, ref: ReferenceDistribution,
                    eta: float) -> tuple[float, float, float]:
    """Returns (t_bar_n, t_n, d_n) with i_n = n - floor(n * d_n), t_bar_n the
    i_n-th absolute-residual order statistic (0 when i_n = 0) and
    t_n = max(t_bar_n, eta)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    a = np.sort(np.abs(_as_array(residuals)))
    n = a.size
    d_n = _dn_sorted(a, ref)
    i_n = n - math.floor(n * d_n)
    t_bar = float(a[i_n - 1]) if i_n > 0 else 0.0
    return t_bar, max(t_bar, eta), d_n


@dataclass(frozen=True)
class WeightedEcdf:
    """Adaptive weighted empirical distribution of residuals and its quantile
    function (generalized inverses on the step function)."""

    r_sorted: np.ndarray
    order: np.ndarray          # original indices of r_sorted
    weights_sorted: np.ndarray
    t_n: float
    d_n: float
    t_bar_n: float
    eta: float

    def __post_init__(self):
        cum = np.cumsum(self.weights_sorted)
        total = float(cum[-1])
        if total <= 0:
            raise ValueError("all residuals at or beyond the cut-off: zero total weight")
        object.__setattr__(self, "_cum", cum / total)
        object.__setattr__(self, "weight_sum", total)

    @property
    def weights(self) -> np.ndarray:
        """Weights in the original residual order."""
        out = np.empty_like(self.weights_sorted)
        out[self.order] = self.weights_sorted
        return out

    def cdf(self, t):
        idx = np.searchsorted(self.r_sorted, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate([[0.0], self._cum])
        return padded[idx]

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0) or np.any(q >= 1):
            raise ValueError("quantile level must lie in (0, 1)")
        idx = np.searchsorted(self._cum, q, side="left")
        return self.r_sorted[np.minimum(idx, self.r_sorted.size - 1)]


def build_weighted_ecdf(residuals: np.ndarray, w: WeightFunction,
                        ref: ReferenceDistribution, eta: float = 2.5) -> WeightedEcdf:
    """Weights w_i = w(r_i / t_n) with the adaptive cut-off t_n, then
    Ghat(t) = sum w_i 1{r_i <= t} / sum w_i."""
    r = _as_array(residuals)
    t_bar, t_n, d_n = adaptive_cutoff(r, ref, eta)
    weights = np.asarray(w.eval(r / t_n), dtype=float)
    order = np.argsort(r, kind="stable")
    return WeightedEcdf(
        r_sorted=r[order], order=order, weights_sorted=weights[order],
        t_n=t_n, d_n=d_n, t_bar_n=t_bar, eta=eta,
    )


def plain_ecdf(residuals: np.ndarray) -> WeightedEcdf:
    """Classical unweighted ECDF in the same step-function/quantile conventions."""
    r = _as_array(residuals)
    order = np.argsort(r, kind="stable")
    return WeightedEcdf(
        r_sorted=r[order], order=order, weights_sorted=np.ones(r.size),
        t_n=np.inf, d_n=0.0, t_bar_n=np.inf, eta=np.inf,
    )
