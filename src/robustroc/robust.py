"""Robust (MM) and classical least-squares fitting of location-scale regressions."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

from .models import (
    Family,
    FitMethod,
    PopulationSample,
    RegressionSpec,
    RobustFit,
    design_matrix,
)


_SCALE_RTOL = 1e-10    # relative Newton step at which an M-scale solve stops
_SCALE_GROWTH = 1e3    # largest factor by which one solver step moves a scale
_SCALE_MAX_STEPS = 200  # solver steps before a scale is returned as it stands
_SCREEN_SEEDS = 5      # candidates solved first to set the screening scale s*
_SCREEN_SLACK = 1e-9   # relative slack that keeps the screen conservative
# largest |residual| that leaves a scale solve room for one growth step
_MAX_ABS_RESIDUAL = np.finfo(float).max / _SCALE_GROWTH
# an M-objective is a mean of terms in [0, 1]: changes this small are rounding
_OBJECTIVE_ROUNDING = 16 * np.finfo(float).eps


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
        # `not 0 < v < inf` also rejects NaN
        for name in ("rho_s_tuning", "rho_m_tuning", "tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"found {getattr(self, name)!r}")
        if not 0 < self.breakdown_b <= 0.5:
            raise ValueError("breakdown_b must lie in (0, 0.5]")
        if self.n_subsamples < 1:
            raise ValueError("n_subsamples must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def bisquare_rho(u: np.ndarray, c: float) -> np.ndarray:
    """Tukey bisquare loss normalized so rho(inf) = 1."""
    z = np.square(np.asarray(u, dtype=float) / c)
    # min(z, 1) makes rho exactly 1.0 for |u| >= c, inf included; NaN stays NaN
    w = 1.0 - np.minimum(z, 1.0)
    return 1.0 - w * w * w     # several times faster than w ** 3


def bisquare_weight(u: np.ndarray, c: float) -> np.ndarray:
    """IRLS weight rho'(u)/u (up to a constant): (1 - (u/c)^2)^2 inside [-c, c]."""
    z = np.square(np.asarray(u, dtype=float) / c)
    # min(z, 1) makes the weight exactly 0.0 for |u| >= c, inf included
    return (1.0 - np.minimum(z, 1.0)) ** 2


def _scale_start(R: np.ndarray, b: float) -> np.ndarray:
    """Cold start of each row's M-scale: the order statistic of |r| at index
    ceil(n (1 - b)) - 1, which is positive exactly when more than a fraction
    b of the row is nonzero. For b = 0.5 it is the (lower) median."""
    n = R.shape[1]
    k = math.ceil(n * (1.0 - b)) - 1
    return np.partition(np.abs(R), k, axis=1)[:, k]


def _m_scale_rows(R: np.ndarray, c: float, b: float, s0=None) -> np.ndarray:
    """Row-wise M-scale of R (m, n): the s > 0 solving mean(rho(r/s)) = b.

    Rows with no finite positive root get +inf: those with at most a fraction
    b of nonzero residuals (the root is 0) and those with at least a fraction
    b of infinite ones. A row holding NaN gets NaN.

    Each row runs a safeguarded Newton iteration on v = 1/s^2, started at s0
    (default `_scale_start`). mean rho(r sqrt(v)) is concave and increasing
    in v, so a Newton step from above the root (s > s*) never crosses it, and
    one from below lands above it. A step that would move s by more than
    `_SCALE_GROWTH` is cut to that factor. A row stops when its relative
    step is at most `_SCALE_RTOL`; quadratic convergence leaves the returned
    scale far closer to the root than that. The arithmetic of a row reads
    only that row, so its result does not depend, bit for bit, on the other
    rows of the batch; a single row takes a lean scalar loop with the same
    arithmetic.
    """
    m, n = R.shape
    s = _scale_start(R, b) if s0 is None else np.array(s0, dtype=float)
    if m == 1:
        return np.array([_m_scale_row(R[0], float(s[0]), c, b)])
    valid = ((np.count_nonzero(R, axis=1) > b * n)
             & (np.count_nonzero(np.isinf(R), axis=1) < b * n))
    s = np.where(valid, s, 1.0)
    done = ~valid
    grow2 = _SCALE_GROWTH ** 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_SCALE_MAX_STEPS):
            if done.all():
                break
            z = np.minimum(np.square(R / (c * s)[:, None]), 1.0)
            w = 1.0 - z
            w2 = w * w
            g = (1.0 - b) - np.add.reduce(w2 * w, axis=1) / n    # mean rho - b
            d = np.add.reduce(z * w2, axis=1) * (6.0 / n)         # mean u psi(u)
            den = d - 2.0 * g
            f = np.sqrt(np.where(den * grow2 <= d, grow2,
                                 np.maximum(d / den, 1.0 / grow2)))
            s = np.where(done, s, s * f)
            done |= ~(np.abs(f - 1.0) > _SCALE_RTOL)
    return np.where(valid, s, np.inf)


def _m_scale_row(r: np.ndarray, s: float, c: float, b: float) -> float:
    """`_m_scale_rows` of the single row r started at s, with the same
    arithmetic on floats."""
    n = r.size
    if not (np.count_nonzero(r) > b * n and np.count_nonzero(np.isinf(r)) < b * n):
        return np.inf
    grow2 = _SCALE_GROWTH ** 2
    with np.errstate(over="ignore"):
        for _ in range(_SCALE_MAX_STEPS):
            z = np.minimum(np.square(r / (c * s)), 1.0)
            w = 1.0 - z
            w2 = w * w
            g = (1.0 - b) - float(np.add.reduce(w2 * w)) / n
            d = float(np.add.reduce(z * w2)) * (6.0 / n)
            den = d - 2.0 * g
            f = math.sqrt(grow2 if den * grow2 <= d else max(d / den, 1.0 / grow2))
            s = s * f
            if not abs(f - 1.0) > _SCALE_RTOL:
                break
    return s


def m_scale(residuals: np.ndarray, cfg: MMConfig) -> float:
    """M-scale of the residuals: the s > 0 solving mean(rho_S(r/s)) = b.

    Returns 0.0 with a DegenerateScaleWarning when no positive root exists, i.e.
    when the fraction of nonzero residuals does not exceed b (all-zero residuals
    and exact fits on more than half the data fall in this case). Raises
    ValueError on empty residuals, on a NaN, and when at least a fraction b
    of the residuals is infinite (the root is then at infinity). Otherwise it
    is the one-row case of `_m_scale_rows`.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    n = r.size
    if n == 0:
        raise ValueError("residuals must be nonempty")
    c, b = cfg.rho_s_tuning, cfg.breakdown_b
    if np.count_nonzero(r) / n <= b:
        warnings.warn("degenerate M-scale: too many exactly-zero residuals",
                      DegenerateScaleWarning)
        return 0.0
    if np.isnan(r).any():
        raise ValueError("The function value at x=nan is NaN; solver cannot continue.")
    if np.count_nonzero(np.isinf(r)) / n >= b:
        raise ValueError("The function value at x=inf is NaN; solver cannot continue.")
    return float(_m_scale_rows(r[None, :], c, b)[0])


def _smallest_scale_row(R: np.ndarray, c: float, b: float) -> tuple[int, float]:
    """Lowest-index row of R with the smallest `_m_scale_rows` scale, and that
    scale, solving only the rows that the screen described in `fit_mm_linear`
    keeps. The rows of R are the residuals of the elemental candidates."""
    start = _scale_start(R, b)
    seeds = np.argsort(start)[:_SCREEN_SEEDS]
    s_star = float(np.min(_m_scale_rows(R[seeds], c, b, start[seeds])))
    if np.isfinite(s_star):
        cut = s_star * (1.0 + _SCREEN_SLACK + _SCALE_RTOL)
        with np.errstate(over="ignore"):     # a huge |r| / cut squares to inf
            keep = np.mean(bisquare_rho(R / cut, c), axis=1) <= b
        keep[seeds] = True     # never empty, whatever the rounding
        rows = np.flatnonzero(keep)
    else:
        rows = np.arange(R.shape[0])
    scales = _m_scale_rows(R[rows], c, b, start[rows])
    best = int(np.argmin(scales))
    return int(rows[best]), float(scales[best])


def _elemental_subsets(n: int, q: int, m: int,
                       rng: np.random.Generator) -> np.ndarray:
    """m random elemental subsets (m, q) of range(n): each row holds q distinct
    indices, uniform over the ordered q-tuples. Column t draws k in [0, n - t)
    and steps it past the row's earlier picks in ascending order, so k lands
    on the k-th index not yet taken. For q = 2 this is the pair
    i = integers(n), j = integers(n - 1) + (j >= i)."""
    idx = np.empty((m, q), dtype=np.int64)
    for t in range(q):
        k = rng.integers(n - t, size=m)
        for taken in np.sort(idx[:, :t], axis=1).T:
            k += k >= taken
        idx[:, t] = k
    return idx


def _wls(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    return beta


def fit_mm_linear(sample: PopulationSample, intercept: bool, cfg: MMConfig) -> RobustFit:
    """Linear MM fit: elemental-subset S-estimator for (beta_S, sigma) then a
    fixed-scale bisquare M-step started at beta_S.

    The S-search takes, over the n_subsamples elemental candidates
    (`_elemental_subsets`), the one whose residuals have the smallest
    M-scale (ties go to the lowest index). It follows the screen of
    Salibian-Barrera & Yohai (2006, "A fast algorithm for S-regression
    estimates"): mean rho(r/s) decreases in s, so a candidate whose mean
    rho(r/s*) exceeds b has a scale above s* and cannot win. The scales of
    the few candidates with the smallest `_scale_start` set s*; one
    vectorized pass of mean rho at s* finds the candidates that may still
    beat it, and only those get a scale solve. The screen compares at s*
    widened by a relative 1e-9 plus the solver's relative tolerance, so no
    row it drops could have reached a solved scale <= s*. Each row's solve
    runs independently of the others, so the winner, its scale and the
    whole fit are bit-identical to solving every candidate.

    The S-refinement is reweighted least squares with the one-step scale of
    the same paper, s <- s sqrt(mean rho(r/s) / b), which stays above the
    M-scale of r while s does; it stops when that scale would rise or the
    fitted values move by less than tol * s, and one warm-started solve then
    gives sigma. The M-step stops when the fitted values move by less than
    tol * sigma, so neither stage depends on the units of x.
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
    c, b = cfg.rho_s_tuning, cfg.breakdown_b

    rng = np.random.default_rng(cfg.seed)
    idx = _elemental_subsets(n, q, cfg.n_subsamples, rng)
    A = X[idx]                      # (m, q, q)
    B = y[idx]                      # (m, q)
    # singularity relative to the column scales, so rescaling x keeps the same subsets
    ok = np.abs(np.linalg.det(A)) > 1e-12 * np.prod(np.max(np.abs(X), axis=0))
    if not np.any(ok):
        raise ValueError("all elemental subsets were singular")
    betas = np.linalg.solve(A[ok], B[ok][..., None])[..., 0]
    R = y[None, :] - betas @ X.T
    best, s = _smallest_scale_row(R, c, b)
    beta = betas[best]

    yscale = max(float(np.max(np.abs(y))), 1.0)
    s_floor = 1e-10 * yscale
    iters = 0
    if np.isfinite(s) and s > s_floor:
        # S-refinement: each accepted reweighted step lowers the one-step scale.
        # The first residuals are computed afresh, since the row of R comes
        # from another matrix product.
        r = y - X @ beta
        for _ in range(cfg.max_iter):
            iters += 1
            beta_new = _wls(X, y, bisquare_weight(r / s, c))
            r_new = y - X @ beta_new
            s_new = s * math.sqrt(float(np.mean(bisquare_rho(r_new / s, c))) / b)
            if s_new > s:
                break
            moved = float(np.max(np.abs(r_new - r)))
            beta, s, r = beta_new, s_new, r_new
            if s <= s_floor or moved < cfg.tol * s:
                break
        s = _m_scale_row(r, s, c, b)
    if not np.isfinite(s) or s <= s_floor:
        # (numerically) exact fit on more than half the points: degenerate scale
        warnings.warn("degenerate M-scale in linear MM fit", DegenerateScaleWarning)
        return RobustFit(spec=spec, beta_hat=beta, sigma_hat=0.0,
                         method=FitMethod.MM_LINEAR, converged=True,
                         iterations=iters, degenerate_scale=True)
    sigma = s

    # M-step: bisquare IRLS at fixed scale sigma
    converged = False
    for _ in range(cfg.max_iter):
        iters += 1
        w = bisquare_weight(r / sigma, cfg.rho_m_tuning)
        if not np.any(w > 0):
            break
        beta = _wls(X, y, w)
        r_new = y - X @ beta
        moved = float(np.max(np.abs(r_new - r)))
        r = r_new
        if moved < cfg.tol * sigma:
            converged = True
            break
    return RobustFit(spec=spec, beta_hat=beta, sigma_hat=sigma,
                     method=FitMethod.MM_LINEAR, converged=converged,
                     iterations=iters)


def _gauss_newton_scale(y, x, spec, beta0, s0, cfg):
    """Reweighted Gauss-Newton descent of the M-scale objective from beta0,
    whose M-scale is s0. Each trial step solves its M-scale warm-started at
    the current one; the descent stops when no halving lowers the scale or
    the fitted values move by less than tol * s."""
    c, b = cfg.rho_s_tuning, cfg.breakdown_b
    beta, s = np.asarray(beta0, dtype=float), s0
    r = y - spec.predict(x, beta)
    for _ in range(cfg.max_iter):
        if not np.isfinite(s):
            break
        w = bisquare_weight(r / s, c)
        if not np.any(w > 0):
            break
        J = np.asarray(spec.gradient(np.atleast_2d(x), beta), dtype=float)
        sw = np.sqrt(w)
        step, *_ = np.linalg.lstsq(J * sw[:, None], r * sw, rcond=None)
        moved = None
        for _ in range(12):
            cand = beta + step
            r_cand = y - spec.predict(x, cand)
            s_cand = _m_scale_row(r_cand, s, c, b)
            if s_cand < s:
                moved = float(np.max(np.abs(r_cand - r)))
                beta, s, r = cand, s_cand, r_cand
                break
            step = step / 2.0
        if moved is None or moved < cfg.tol * s:
            break
    return beta, s


def _exponential_pairs(x: np.ndarray, y: np.ndarray, m: int,
                       rng: np.random.Generator):
    """Exact fits of y = b1 * exp(b2 * x) through m random pairs (i, j), i != j,
    from `_elemental_subsets`: b2 = log(y_i / y_j) / (x_i - x_j) and
    b1 = y_i * exp(-b2 * x_i).

    Returns the betas (k, 2), the residuals (k, n) and the pairs (k, 2) of the
    k candidates kept. A pair with y_i / y_j <= 0 or x_i == x_j has no exact
    fit, and a steep one can overflow; a candidate is kept only when its betas
    are finite and its residuals at most `_MAX_ABS_RESIDUAL` in size.
    """
    i, j = _elemental_subsets(y.size, 2, m, rng).T
    with np.errstate(all="ignore"):
        b2 = np.log(y[i] / y[j]) / (x[i] - x[j])
        b1 = y[i] * np.exp(-b2 * x[i])
        R = y[None, :] - b1[:, None] * np.exp(b2[:, None] * x[None, :])
    # the comparison is False for NaN, so it drops non-finite residuals too
    ok = (np.isfinite(b1) & np.isfinite(b2)
          & np.all(np.abs(R) <= _MAX_ABS_RESIDUAL, axis=1))
    return (np.column_stack([b1[ok], b2[ok]]), R[ok],
            np.column_stack([i[ok], j[ok]]))


def fit_mm_nonlinear(sample: PopulationSample, spec: RegressionSpec,
                     cfg: MMConfig) -> RobustFit:
    """Nonlinear MM fit of the exponential family y = b1 * exp(b2 * x).

    The S-stage searches elemental subsets, as for nonlinear S-estimators
    (Stromberg 1993; Maronna, Martin, Yohai & Salibian-Barrera 2019): each
    of n_subsamples random pairs of distinct observations gives the curve
    through both points (`_exponential_pairs`), the screened search of
    `fit_mm_linear` takes the candidate whose residuals have the smallest
    M-scale, and a reweighted Gauss-Newton descent of the M-scale refines
    it into (beta_S, sigma). A fixed-scale bisquare M-stage follows, with
    halved Gauss-Newton steps; it has converged when the fitted values move
    by less than tol * sigma, or when no halving lowers the M-objective by
    more than rounding.

    Raises ValueError when n <= 2, when the covariate is constant (only
    b1 * exp(b2 * x) is then identified, not b1 and b2), and when no drawn
    pair has a finite exact fit.
    """
    if spec.gradient is None:
        raise ValueError("nonlinear MM fitting requires a gradient")
    if spec.family is not Family.EXPONENTIAL:
        raise ValueError("elemental-pair starts exist for the exponential family only")
    x, y = sample.x, sample.y
    n, q = sample.n, spec.coef_dim
    if n <= q:
        raise ValueError(f"need more than q = {q} observations, got {n}")
    if np.all(x == x[0]):
        raise ValueError("constant covariate: the exponential curve is not identified")

    rng = np.random.default_rng(cfg.seed)
    betas, R, _ = _exponential_pairs(x[:, 0], y, cfg.n_subsamples, rng)
    if betas.shape[0] == 0:
        raise ValueError("no elemental pair has a finite exact fit")
    best, s = _smallest_scale_row(R, cfg.rho_s_tuning, cfg.breakdown_b)
    beta, sigma = _gauss_newton_scale(y, x, spec, betas[best], s, cfg)

    yscale = max(float(np.max(np.abs(y))), 1.0)
    if not np.isfinite(sigma) or sigma <= 1e-10 * yscale:
        # numerically exact fit: the M-stage is meaningless at this scale
        warnings.warn("degenerate M-scale in nonlinear MM fit", DegenerateScaleWarning)
        return RobustFit(spec=spec, beta_hat=beta, sigma_hat=0.0,
                         method=FitMethod.MM_NONLINEAR, converged=True,
                         iterations=0, degenerate_scale=True)

    def m_objective(r):
        return float(np.mean(bisquare_rho(r / sigma, cfg.rho_m_tuning)))

    r = y - spec.predict(x, beta)
    obj = m_objective(r)
    converged = False
    iters = 0
    for _ in range(cfg.max_iter):
        iters += 1
        w = bisquare_weight(r / sigma, cfg.rho_m_tuning)
        if not np.any(w > 0):
            break
        J = np.asarray(spec.gradient(np.atleast_2d(x), beta), dtype=float)
        sw = np.sqrt(w)
        try:
            step, *_ = np.linalg.lstsq(J * sw[:, None], r * sw, rcond=None)
        except np.linalg.LinAlgError:
            break
        for _ in range(12):
            cand = beta + step
            r_cand = y - spec.predict(x, cand)
            obj_cand = m_objective(r_cand)
            negligible = np.max(np.abs(r_cand - r)) < cfg.tol * sigma
            if obj_cand <= obj:
                beta, obj, r = cand, obj_cand, r_cand
                break
            if negligible or obj_cand - obj <= _OBJECTIVE_ROUNDING:
                break      # at the optimum: a rejected step that changes nothing
            step = step / 2.0
        else:
            break          # no halving lowered the objective
        if negligible or obj_cand > obj:
            converged = True
            break
    return RobustFit(spec=spec, beta_hat=beta, sigma_hat=sigma,
                     method=FitMethod.MM_NONLINEAR, converged=converged,
                     iterations=iters)


def _initial_beta_exponential(sample: PopulationSample) -> np.ndarray:
    """Log-linear start for y ~ b1 * exp(b2 * x): least squares of log y on x
    over the positive y, which needs two of them at distinct x."""
    mask = sample.y > 0
    x = sample.x[mask, 0]
    if np.unique(x).size < 2:
        raise ValueError("exponential fits need two positive marker values "
                         "at distinct covariate values")
    coef = np.polynomial.polynomial.polyfit(x, np.log(sample.y[mask]), 1)
    return np.array([np.exp(coef[0]), coef[1]])


def fit_least_squares(sample: PopulationSample, spec: RegressionSpec,
                      beta_init: Optional[np.ndarray] = None) -> RobustFit:
    """Ordinary (linear) or Gauss-Newton (nonlinear) least squares;
    sigma_hat is the residual standard deviation with denominator n - q.

    An exponential fit starts from `_initial_beta_exponential` unless
    beta_init is given; other nonlinear families need beta_init."""
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
        if beta_init is None and spec.family is Family.EXPONENTIAL:
            beta_init = _initial_beta_exponential(sample)
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
