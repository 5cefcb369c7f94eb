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
# largest |residual| whose bisection bracket `_scale_bracket` can widen by 1e3
_MAX_ABS_RESIDUAL = np.finfo(float).max / 1e3


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
    # min(z, 1) makes rho exactly 1.0 for |u| >= c, inf included; NaN stays NaN
    return 1.0 - (1.0 - np.minimum(z, 1.0)) ** 3


def bisquare_weight(u: np.ndarray, c: float) -> np.ndarray:
    """IRLS weight rho'(u)/u (up to a constant): (1 - (u/c)^2)^2 inside [-c, c]."""
    z = np.square(np.asarray(u, dtype=float) / c)
    # min(z, 1) makes the weight exactly 0.0 for |u| >= c, inf included
    return (1.0 - np.minimum(z, 1.0)) ** 2


def _median(a: np.ndarray) -> float:
    """np.median of a nonempty 1-d array, by the same partition without the
    wrapper: the middle order statistic, the two middle ones summed and
    halved for even n, and NaN when a holds a NaN (partition puts it last)."""
    k = a.size // 2
    if a.size % 2:
        part = np.partition(a, (k, -1))
        mid = part[k]
    else:
        part = np.partition(a, (k - 1, k, -1))
        mid = (part[k - 1] + part[k]) / 2
    return float(np.nan if np.isnan(part[-1]) else mid)


def m_scale(residuals: np.ndarray, cfg: MMConfig) -> float:
    """M-scale of the residuals: the s > 0 solving mean(rho_S(r/s)) = b.

    Returns 0.0 with a DegenerateScaleWarning when no positive root exists, i.e.
    when the fraction of nonzero residuals does not exceed b (all-zero residuals
    and exact fits on more than half the data fall in this case).

    The root is bracketed by halving and doubling from the median of the
    nonzero |r|, then refined by brentq. Three shortcuts skip work without
    changing a bit of the result against np.median, np.mean and a root
    function without memory:
    - `_median` partitions as np.median does and adds the same two middle
      values in the same order, so it returns the same float;
    - mean rho is np.add.reduce(...) / n, the pairwise sum and division that
      np.mean does;
    - the root function remembers its values by s. Both bracket loops start
      at the median, and brentq evaluates both bracket ends again. The
      function is pure, so a stored value is the one a new evaluation would
      compute, and brentq sees the same values at the same points.
    """
    r = np.asarray(residuals, dtype=float)
    n = r.size
    if n == 0:
        raise ValueError("residuals must be nonempty")
    nonzero = r[r != 0.0]
    if nonzero.size / n <= cfg.breakdown_b:
        warnings.warn("degenerate M-scale: too many exactly-zero residuals",
                      DegenerateScaleWarning)
        return 0.0
    c, b = cfg.rho_s_tuning, cfg.breakdown_b
    seen: dict = {}

    def g(s):
        if s not in seen:
            seen[s] = float(np.add.reduce(bisquare_rho(r / s, c), axis=None) / n) - b
        return seen[s]

    s0 = _median(np.abs(nonzero))
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
    scale, solving only the rows that the screen described in `fit_mm_linear`
    keeps. The rows of R are the residuals of the elemental candidates."""
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

    # IRLS refinement of the S-estimator: each reweighted step may only lower the scale.
    # The residuals of an accepted step are kept for the next one; the first
    # are computed afresh, since the row of R comes from another matrix product.
    iters = 0
    r = y - X @ beta
    degenerate = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScaleWarning)
        for _ in range(cfg.max_iter):
            iters += 1
            w = bisquare_weight(r / s, cfg.rho_s_tuning)
            if not np.any(w > 0):
                break
            beta_new = _wls(X, y, w)
            r_new = y - X @ beta_new
            s_new = m_scale(r_new, cfg)
            if s_new <= s_floor:
                degenerate = True
                break
            if s_new > s:
                break
            delta = np.max(np.abs(beta_new - beta))
            beta, s, r = beta_new, s_new, r_new
            if delta < cfg.tol:
                break
    if degenerate:
        warnings.warn("degenerate M-scale in linear MM fit", DegenerateScaleWarning)
        return RobustFit(spec=spec, beta_hat=beta_new, sigma_hat=0.0,
                         method=FitMethod.MM_LINEAR, converged=True,
                         iterations=iters, degenerate_scale=True)
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
    """Reweighted Gauss-Newton descent of the M-scale objective from beta0.

    The caller silences DegenerateScaleWarning."""
    beta = np.asarray(beta0, dtype=float)
    r = y - spec.predict(x, beta)
    s = m_scale(r, cfg)
    for _ in range(cfg.max_iter):
        if s == 0.0 or not np.isfinite(s):
            break
        w = bisquare_weight(r / s, cfg.rho_s_tuning)
        if not np.any(w > 0):
            break
        J = np.asarray(spec.gradient(np.atleast_2d(x), beta), dtype=float)
        sw = np.sqrt(w)
        step, *_ = np.linalg.lstsq(J * sw[:, None], r * sw, rcond=None)
        accepted = False
        for _ in range(12):
            cand = beta + step
            r_cand = y - spec.predict(x, cand)
            s_cand = m_scale(r_cand, cfg)
            if s_cand < s:
                beta, s, r = cand, s_cand, r_cand
                accepted = True
                break
            step = step / 2.0
        if not accepted or np.max(np.abs(step)) < cfg.tol:
            break
    return beta, s


def _exponential_pairs(x: np.ndarray, y: np.ndarray, m: int,
                       rng: np.random.Generator):
    """Exact fits of y = b1 * exp(b2 * x) through m random pairs (i, j), i != j:
    b2 = log(y_i / y_j) / (x_i - x_j) and b1 = y_i * exp(-b2 * x_i).

    Returns the betas (k, 2), the residuals (k, n) and the pairs (k, 2) of the
    k candidates kept. A pair with y_i / y_j <= 0 or x_i == x_j has no exact
    fit, and a steep one can overflow; a candidate is kept only when its betas
    and residuals are finite and `_scale_bracket` can still widen its largest
    |r| by 1e3.
    """
    n = y.size
    i = rng.integers(n, size=m)
    j = rng.integers(n - 1, size=m)
    j += j >= i
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
    it into (beta_S, sigma). A fixed-scale bisquare M-stage follows.

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
    best, _ = _smallest_scale_row(R, cfg.rho_s_tuning, cfg.breakdown_b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScaleWarning)
        beta, sigma = _gauss_newton_scale(y, x, spec, betas[best], cfg)
    sigma = float(sigma)

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
