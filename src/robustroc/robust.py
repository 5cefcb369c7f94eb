"""Robust (MM) and classical least-squares fitting of location-scale regressions."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq, least_squares

from .models import (
    Family,
    FitMethod,
    PopulationSample,
    RegressionSpec,
    RobustFit,
    design_matrix,
)


_BISECT_ITERS = 60     # bisection halvings per M-scale in `_m_scale_batch`
_SCREEN_SEEDS = 5      # candidates solved first to set the screening scale s*
_SCREEN_SLACK = 1e-9   # relative slack that keeps the screen conservative


class DegenerateScaleWarning(UserWarning):
    """Raised as a warning when the M-scale collapses to zero (exact-fit data)."""


@dataclass(frozen=True)
class MMConfig:
    """Tuning constants for the S/M stages of the MM-estimator.

    Defaults: bisquare with c = 1.54764 and b = 0.5 for the S-scale (50% breakdown,
    consistency at the normal) and c = 4.685 for the M-step (95% normal efficiency).
    """

    rho_s_tuning: float = 1.54764
    rho_m_tuning: float = 4.685
    breakdown_b: float = 0.5
    n_subsamples: int = 500
    max_iter: int = 100
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.n_subsamples < 1:
            raise ValueError("n_subsamples must be at least 1")
        if not 0 < self.breakdown_b <= 0.5:
            raise ValueError("breakdown_b must lie in (0, 0.5]")


def bisquare_rho(u: np.ndarray, c: float) -> np.ndarray:
    """Tukey bisquare loss normalized so rho(inf) = 1."""
    z = np.square(np.asarray(u, dtype=float) / c)
    return np.where(z >= 1.0, 1.0, 1.0 - (1.0 - np.minimum(z, 1.0)) ** 3)


def bisquare_weight(u: np.ndarray, c: float) -> np.ndarray:
    """IRLS weight rho'(u)/u (up to a constant): (1 - (u/c)^2)^2 inside [-c, c]."""
    z = np.square(np.asarray(u, dtype=float) / c)
    return np.where(z >= 1.0, 0.0, (1.0 - np.minimum(z, 1.0)) ** 2)


def m_scale(residuals: np.ndarray, cfg: MMConfig) -> float:
    """M-scale of the residuals: the s > 0 solving mean(rho_S(r/s)) = b.

    Returns 0.0 with a DegenerateScaleWarning when no positive root exists, i.e.
    when the fraction of nonzero residuals does not exceed b (all-zero residuals
    and exact fits on more than half the data fall in this case).
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("residuals must be nonempty")
    nonzero = r[r != 0.0]
    if nonzero.size / r.size <= cfg.breakdown_b:
        warnings.warn("degenerate M-scale: too many exactly-zero residuals",
                      DegenerateScaleWarning)
        return 0.0
    c, b = cfg.rho_s_tuning, cfg.breakdown_b

    def g(s):
        return float(np.mean(bisquare_rho(r / s, c))) - b

    s0 = float(np.median(np.abs(nonzero)))
    lo = hi = s0
    while g(lo) <= 0:
        lo /= 2.0
    while g(hi) > 0:
        hi *= 2.0
    return float(brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16))


def _scale_bracket(R: np.ndarray, b: float):
    """Starting bisection bracket (lo, hi) of each row's M-scale, and the rows
    that have a positive scale (more than a fraction b of nonzero residuals)."""
    absR = np.abs(R)
    valid = np.mean(R != 0.0, axis=1) > b
    lo = np.where(valid, np.min(np.where(absR > 0, absR, np.inf), axis=1) * 1e-3, 1.0)
    hi = np.where(valid, np.max(absR, axis=1) * 1e3, 1.0)
    return lo, hi, valid


def _m_scale_batch(R: np.ndarray, c: float, b: float) -> np.ndarray:
    """Row-wise M-scale of R (m, n) by vectorized bisection; 0 rows get +inf."""
    lo, hi, valid = _scale_bracket(R, b)
    # mean rho(r/s) - b is > 0 at s = lo (near the nonzero fraction minus b)
    # and < 0 at s = hi
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        gmid = np.mean(bisquare_rho(R / mid[:, None], c), axis=1) - b
        lo = np.where(gmid > 0, mid, lo)
        hi = np.where(gmid > 0, hi, mid)
    out = 0.5 * (lo + hi)
    return np.where(valid, out, np.inf)


def _smallest_scale_row(R: np.ndarray, c: float, b: float) -> tuple[int, float]:
    """Lowest-index row of R with the smallest `_m_scale_batch` scale, and that
    scale, solving only the rows that the screen in `fit_mm_linear` keeps."""
    seeds = np.argsort(np.median(np.abs(R), axis=1))[:_SCREEN_SEEDS]
    s_star = float(np.min(_m_scale_batch(R[seeds], c, b)))
    if np.isfinite(s_star):
        lo, hi, valid = _scale_bracket(R, b)
        cut = s_star * (1.0 + _SCREEN_SLACK) + (hi - lo) * 2.0 ** -_BISECT_ITERS
        keep = valid & (np.mean(bisquare_rho(R / cut[:, None], c), axis=1) <= b)
        keep[seeds] = True     # never empty, whatever the rounding
        rows = np.flatnonzero(keep)
    else:
        rows = np.arange(R.shape[0])
    scales = _m_scale_batch(R[rows], c, b)
    best = int(np.argmin(scales))
    return int(rows[best]), float(scales[best])


def _wls(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    return beta


def fit_mm_linear(sample: PopulationSample, intercept: bool, cfg: MMConfig) -> RobustFit:
    """Linear MM fit: elemental-subset S-estimator for (beta_S, sigma) then a
    fixed-scale bisquare M-step started at beta_S.

    The S-search takes, over the n_subsamples elemental candidates, the one
    whose residuals have the smallest M-scale (ties go to the lowest index).
    It follows the screen of Salibian-Barrera & Yohai (2006, "A fast algorithm
    for S-regression estimates"): mean rho(r/s) decreases in s, so a candidate
    whose mean rho(r/s*) exceeds b has a scale above s* and cannot win. The
    scales of the few candidates with the smallest median |r| set s*; one
    vectorized pass of mean rho at s* finds the candidates that may still
    beat it, and only those get a scale solve. The screen compares at s*
    widened by a relative 1e-9 plus the row's final bisection bracket width,
    so no row it drops could have reached a bisected scale <= s*. Each row's
    bisection runs independently of the others, so the winner, its scale and
    the whole fit are bit-identical to solving every candidate.
    """
    from .models import linear_spec

    spec = linear_spec(sample.p, intercept)
    X = design_matrix(sample.x, intercept)
    y = sample.y
    n, q = X.shape
    if n <= q:
        raise ValueError(f"need more than q = {q} observations, got {n}")
    if np.linalg.matrix_rank(X) < q:
        raise ValueError("rank-deficient design matrix")

    rng = np.random.default_rng(cfg.seed)
    m = cfg.n_subsamples
    idx = np.empty((m, q), dtype=int)
    for k in range(m):
        idx[k] = rng.choice(n, size=q, replace=False)
    A = X[idx]                      # (m, q, q)
    B = y[idx]                      # (m, q)
    # singularity relative to the column scales, so rescaling x keeps the same subsets
    ok = np.abs(np.linalg.det(A)) > 1e-12 * np.prod(np.max(np.abs(X), axis=0))
    if not np.any(ok):
        raise ValueError("all elemental subsets were singular")
    betas = np.linalg.solve(A[ok], B[ok][..., None])[..., 0]
    R = y[None, :] - betas @ X.T
    best, s = _smallest_scale_row(R, cfg.rho_s_tuning, cfg.breakdown_b)
    beta = betas[best]

    yscale = max(float(np.max(np.abs(y))), 1.0)
    s_floor = 1e-10 * yscale
    if not np.isfinite(s) or s <= s_floor:
        # (numerically) exact fit on more than half the points: degenerate scale
        warnings.warn("degenerate M-scale in linear MM fit", DegenerateScaleWarning)
        return RobustFit(spec=spec, beta_hat=beta, sigma_hat=0.0,
                         method=FitMethod.MM_LINEAR, converged=True, iterations=0,
                         degenerate_scale=True)

    # IRLS refinement of the S-estimator: each reweighted step may only lower the scale
    iters = 0
    for _ in range(cfg.max_iter):
        iters += 1
        u = (y - X @ beta) / s
        w = bisquare_weight(u, cfg.rho_s_tuning)
        if not np.any(w > 0):
            break
        beta_new = _wls(X, y, w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateScaleWarning)
            s_new = m_scale(y - X @ beta_new, cfg)
        if s_new <= s_floor:
            warnings.warn("degenerate M-scale in linear MM fit", DegenerateScaleWarning)
            return RobustFit(spec=spec, beta_hat=beta_new, sigma_hat=0.0,
                             method=FitMethod.MM_LINEAR, converged=True,
                             iterations=iters, degenerate_scale=True)
        if s_new > s:
            break
        delta = np.max(np.abs(beta_new - beta))
        beta, s = beta_new, s_new
        if delta < cfg.tol:
            break
    sigma = s

    # M-step: bisquare IRLS at fixed scale sigma
    converged = False
    for _ in range(cfg.max_iter):
        iters += 1
        u = (y - X @ beta) / sigma
        w = bisquare_weight(u, cfg.rho_m_tuning)
        if not np.any(w > 0):
            break
        beta_new = _wls(X, y, w)
        delta = np.max(np.abs(beta_new - beta))
        beta = beta_new
        if delta < cfg.tol:
            converged = True
            break
    return RobustFit(spec=spec, beta_hat=beta, sigma_hat=sigma,
                     method=FitMethod.MM_LINEAR, converged=converged,
                     iterations=iters)


def _gauss_newton_scale(y, x, spec, beta0, cfg):
    """Reweighted Gauss-Newton descent of the M-scale objective from beta0."""
    beta = np.asarray(beta0, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScaleWarning)
        s = m_scale(y - spec.predict(x, beta), cfg)
    for _ in range(cfg.max_iter):
        if s == 0.0 or not np.isfinite(s):
            break
        r = y - spec.predict(x, beta)
        w = bisquare_weight(r / s, cfg.rho_s_tuning)
        if not np.any(w > 0):
            break
        J = np.asarray(spec.gradient(np.atleast_2d(x), beta), dtype=float)
        sw = np.sqrt(w)
        step, *_ = np.linalg.lstsq(J * sw[:, None], r * sw, rcond=None)
        accepted = False
        for _ in range(12):
            cand = beta + step
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateScaleWarning)
                s_cand = m_scale(y - spec.predict(x, cand), cfg)
            if s_cand < s:
                beta, s = cand, s_cand
                accepted = True
                break
            step = step / 2.0
        if not accepted or np.max(np.abs(step)) < cfg.tol:
            break
    return beta, s


def fit_mm_nonlinear(sample: PopulationSample, spec: RegressionSpec,
                     beta_init: np.ndarray, cfg: MMConfig) -> RobustFit:
    """Nonlinear MM fit: S-stage minimizes the M-scale of residuals by reweighted
    Gauss-Newton (beta_init plus n_subsamples random restarts), then a fixed-scale
    bisquare M-stage."""
    if spec.gradient is None:
        raise ValueError("nonlinear MM fitting requires a gradient")
    beta_init = np.asarray(beta_init, dtype=float)
    if not np.all(np.isfinite(beta_init)):
        raise ValueError("beta_init must be finite")
    x, y = sample.x, sample.y
    rng = np.random.default_rng(cfg.seed)

    starts = [beta_init]
    for _ in range(cfg.n_subsamples):
        starts.append(beta_init * rng.uniform(0.8, 1.2, size=beta_init.shape))

    best_beta, best_s = None, np.inf
    for b0 in starts:
        try:
            beta, s = _gauss_newton_scale(y, x, spec, b0, cfg)
        except np.linalg.LinAlgError:
            continue
        if s < best_s:
            best_beta, best_s = beta, s
    if best_beta is None:
        raise ValueError("S-stage failed from every starting value")
    beta, sigma = best_beta, float(best_s)

    yscale = max(float(np.max(np.abs(y))), 1.0)
    if sigma <= 1e-10 * yscale:
        # numerically exact fit: the M-stage is meaningless at this scale
        warnings.warn("degenerate M-scale in nonlinear MM fit", DegenerateScaleWarning)
        return RobustFit(spec=spec, beta_hat=beta, sigma_hat=0.0,
                         method=FitMethod.MM_NONLINEAR, converged=True,
                         iterations=0, degenerate_scale=True)

    def m_objective(b):
        return float(np.mean(bisquare_rho((y - spec.predict(x, b)) / sigma,
                                          cfg.rho_m_tuning)))

    obj = m_objective(beta)
    converged = False
    iters = 0
    for _ in range(cfg.max_iter):
        iters += 1
        r = y - spec.predict(x, beta)
        w = bisquare_weight(r / sigma, cfg.rho_m_tuning)
        if not np.any(w > 0):
            break
        J = np.asarray(spec.gradient(np.atleast_2d(x), beta), dtype=float)
        sw = np.sqrt(w)
        try:
            step, *_ = np.linalg.lstsq(J * sw[:, None], r * sw, rcond=None)
        except np.linalg.LinAlgError:
            break
        accepted = False
        for _ in range(12):
            cand = beta + step
            obj_cand = m_objective(cand)
            if obj_cand <= obj:
                accepted = True
                delta = np.max(np.abs(step))
                beta, obj = cand, obj_cand
                break
            step = step / 2.0
        if not accepted:
            break
        if delta < cfg.tol:
            converged = True
            break
    return RobustFit(spec=spec, beta_hat=beta, sigma_hat=sigma,
                     method=FitMethod.MM_NONLINEAR, converged=converged,
                     iterations=iters)


def fit_least_squares(sample: PopulationSample, spec: RegressionSpec,
                      beta_init: Optional[np.ndarray] = None) -> RobustFit:
    """Ordinary (linear) or Gauss-Newton (nonlinear) least squares;
    sigma_hat is the residual standard deviation with denominator n - q."""
    x, y = sample.x, sample.y
    n = sample.n
    q = spec.coef_dim
    if spec.family is Family.LINEAR:
        X = design_matrix(x, spec.intercept)
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise ValueError("rank-deficient design matrix")
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        converged = True
        iters = 1
    else:
        if spec.gradient is None or beta_init is None:
            raise ValueError("nonlinear least squares needs a gradient and beta_init")
        res = least_squares(
            lambda b: y - spec.predict(x, b),
            np.asarray(beta_init, dtype=float),
            jac=lambda b: -np.asarray(spec.gradient(np.atleast_2d(x), b), dtype=float),
            method="lm",
        )
        beta = res.x
        converged = bool(res.success)
        iters = int(res.nfev)
    resid = y - spec.predict(x, beta)
    dof = max(n - q, 1)
    sigma = float(np.sqrt(np.sum(resid ** 2) / dof))
    if sigma <= 1e-10 * max(float(np.max(np.abs(y))), 1.0):
        sigma = 0.0  # numerically exact fit
    degenerate = sigma == 0.0
    return RobustFit(spec=spec, beta_hat=beta, sigma_hat=sigma,
                     method=FitMethod.LEAST_SQUARES, converged=converged,
                     iterations=iters, degenerate_scale=degenerate)
