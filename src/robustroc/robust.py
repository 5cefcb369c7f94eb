"""Robust (MM) and classical least-squares fitting of location-scale regressions."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .models import (
    Family,
    FitMethod,
    PopulationSample,
    RegressionSpec,
    RobustFit,
    design_matrix,
    linear_spec,
)


_SCALE_RTOL = 1e-10    # relative Newton step at which an M-scale solve stops
_SCALE_GROWTH = 1e3    # largest factor by which one solver step moves a scale
_SCALE_MAX_STEPS = 200  # solver steps before a scale is returned as it stands
_SCREEN_SLACK = 1e-9   # relative slack that keeps the screen conservative
# 1 / Phi^-1(3/4): the normal-consistency factor of the MAD, which puts the
# screen's starts near the root for normal-like residuals
_CONSISTENT = 1.482602218505602
# entries in one row block of a candidate-stage temporary: 32 KB, which the
# allocator reuses instead of returning to the OS and faulting back in
_BLOCK = 4096
# a criterion that rises by at most this relative amount has moved by rounding
_OBJECTIVE_ROUNDING = 16 * np.finfo(float).eps
_HALVINGS = 12         # step halvings tried before a descent gives up
# a Gram matrix G with det G <= this * prod(diag G) is ill conditioned
_COLLINEAR = 1e-6
# diagonal of a Gram matrix whose normal equations lose no precision to
# subnormal or overflowing products
_GRAM_RANGE = (1e-150, 1e150)


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


def _block_rows(n: int) -> int:
    """Rows of n entries in one row block: at most `_BLOCK` entries, and at
    least one row."""
    return max(1, _BLOCK // n)


def _scale_start(R: np.ndarray, b: float) -> np.ndarray:
    """Cold start of each row's M-scale: the order statistic of |r| at index
    ceil(n (1 - b)) - 1, which is positive exactly when more than a fraction
    b of the row is nonzero. For b = 0.5 it is the (lower) median. An R of
    more than one row block is taken a block at a time, so |R| is never
    copied whole."""
    m, n = R.shape
    step = _block_rows(n)
    if m > step:
        start = np.empty(m)
        for lo in range(0, m, step):
            start[lo:lo + step] = _scale_start(R[lo:lo + step], b)
        return start
    k = math.ceil(n * (1.0 - b)) - 1
    A = np.abs(R)
    A.partition(k, axis=1)
    return A[:, k]


def _m_scale_rows(R: np.ndarray, c: float, b: float, s0=None) -> np.ndarray:
    """Row-wise M-scale of R (m, n): the s > 0 solving mean(rho(r/s)) = b.

    Rows with no finite positive root get +inf: those with at most a fraction
    b of nonzero residuals (the root is 0) and those with at least a fraction
    b of infinite ones. A row holding NaN gets NaN.

    Each row runs a safeguarded Newton iteration on v = 1/s^2 from s0
    (default `_scale_start`). mean rho(r sqrt(v)) is concave and increasing
    in v, so a step from above the root never crosses it, and one from below
    lands above it. A step is cut to a factor `_SCALE_GROWTH` in s. A row
    stops on a relative step of at most `_SCALE_RTOL`, by then far closer
    to the root. A row's arithmetic reads only that row, so its result does
    not depend, bit for bit, on the batch; `_m_scale_row` is the same
    arithmetic on one row.
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
        raise ValueError("residuals contain NaN: the M-scale is undefined")
    if np.count_nonzero(np.isinf(r)) / n >= b:
        raise ValueError(f"at least a fraction b = {b} of the residuals is "
                         f"infinite: the M-scale is infinite")
    return float(_m_scale_rows(r[None, :], c, b)[0])


def _smallest_scale_row(R: np.ndarray, c: float, b: float) -> tuple[int, float]:
    """Lowest-index row of R (the residuals of the elemental candidates) with
    the smallest `_m_scale_rows` scale started at `_CONSISTENT` times
    `_scale_start`, and that scale, solving only the rows that pass the
    screen of Salibian-Barrera & Yohai (2006): mean rho(r/s) decreases in s,
    so a row whose mean rho(r/s*) exceeds b cannot win. The row with the
    smallest `_scale_start` sets s*, widened by a relative 1e-9 plus the
    solver's tolerance; rows are solved independently, so the result is
    bit-identical to solving every row from the same starts. The starts are
    consistent at the normal, where the bare order statistic lies a factor
    of about 1.48 below the root; one that overflows leaves its row at an
    infinite scale. The prefilter and the choice of the seed row read the
    bare order statistic: a row whose start is at least c s* has
    rho(r/s*) = 1 on more than a fraction b of its entries and is dropped at
    once. A row whose start is 0 fits the majority exactly: its scale is 0,
    and the first such row wins. A row holding NaN ranks as inf. The
    screen's pass over R runs a row block (`_block_rows`) at a time, so the
    only (m, n) array is R itself."""
    start = _scale_start(R, b)
    exact = np.flatnonzero(start == 0.0)
    if exact.size:
        return int(exact[0]), 0.0
    seed = int(np.argsort(start)[0])      # a NaN start sorts last
    s_star = _m_scale_row(R[seed], _CONSISTENT * float(start[seed]), c, b)
    if np.isfinite(s_star):
        cs = c * s_star * (1.0 + _SCREEN_SLACK + _SCALE_RTOL)
        keep = start < cs
        rows = np.flatnonzero(keep)
        n = R.shape[1]
        step = _block_rows(n)
        for lo in range(0, rows.size, step):
            at = rows[lo:lo + step]
            # mean rho(r/s*) <= b, written as mean (1 - min(z, 1))^3 >= 1 - b
            # with z = (r / c s*)^2; a huge |r| / cs squares to inf
            z = np.divide(R[at], cs)
            with np.errstate(over="ignore"):
                np.square(z, out=z)
            np.minimum(z, 1.0, out=z)
            np.subtract(1.0, z, out=z)
            w3 = z * z
            w3 *= z
            keep[at] = np.add.reduce(w3, axis=1) >= (1.0 - b) * n
        keep[seed] = True      # never empty, whatever the rounding
        rows = np.flatnonzero(keep)
    else:
        rows = np.arange(R.shape[0])
    with np.errstate(over="ignore"):
        s0 = _CONSISTENT * start[rows]
    scales = _m_scale_rows(R[rows], c, b, s0)
    best = int(np.argmin(np.where(np.isnan(scales), np.inf, scales)))
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


def _scale_floor(y: np.ndarray) -> float:
    """Scale at or below which a fit of y is (numerically) exact, in y's
    units: 1e-10 times the median |y| (`_scale_start` at b = 0.5). Rounding
    grows with the size of y, not with its spread, and a median, like the
    S-scale, ignores up to half of the points: no outlier lifts the floor."""
    return 1e-10 * float(_scale_start(y[None, :], 0.5)[0])


def _check_identifiable(n: int, q: int, rank: Optional[int] = None) -> None:
    """The identifiability check of every fit: n > q, and full rank when the
    rank of the design is given (taken with its columns scaled by
    `_equilibrate`, so that it does not depend on the units of x)."""
    if n <= q:
        raise ValueError(f"need more than q = {q} observations, got {n}")
    if rank is not None and rank < q:
        raise ValueError("rank-deficient design matrix")


def _root_mean_square(r: np.ndarray, dof: int) -> float:
    """sqrt(sum(r^2) / dof), from r / max|r| so that no square overflows."""
    m = float(np.max(np.abs(r)))
    if not 0.0 < m < np.inf:
        return m        # 0 for r = 0; inf or NaN for a non-finite r
    return m * math.sqrt(float(np.sum(np.square(r / m))) / dof)


def _equilibrate(J: np.ndarray):
    """J with each column divided by the power of 2 just above its largest
    |entry|, and those divisors: the division is exact, and the rank cutoff
    of `lstsq` no longer depends on the units of the coefficients."""
    d = np.ldexp(1.0, np.frexp(np.max(np.abs(J), axis=0))[1])
    return J / d, d


def _solve_gram(G: np.ndarray):
    """Finite solution of H step = g for G = [H, g] (q, q + 1), when the
    symmetric H is positive definite and well conditioned: diag H inside
    `_GRAM_RANGE` and det H > `_COLLINEAR` prod(diag H); else None. q = 2 has
    a closed form, which scaling a column by a power of 2 scales exactly;
    other q take the Cholesky factor of H scaled to a unit diagonal."""
    q = G.shape[0]
    lo, hi = _GRAM_RANGE
    if q == 2:
        # Python floats: the same IEEE arithmetic as numpy scalars, at less cost
        (g11, g12, h1), (_, g22, h2) = G.tolist()
        det = g11 * g22 - g12 * g12
        if not (lo < g11 < hi and lo < g22 < hi and det > _COLLINEAR * g11 * g22):
            return None
        step = np.array(((g22 * h1 - g12 * h2) / det, (g11 * h2 - g12 * h1) / det))
    else:
        d = np.sqrt(np.diagonal(G))          # NaN for a negative diagonal
        try:
            L = np.linalg.cholesky(G[:, :q] / np.outer(d, d))
        except np.linalg.LinAlgError:        # not positive definite
            return None
        if not (np.all((lo < d * d) & (d * d < hi))
                and np.prod(np.diagonal(L)) ** 2 > _COLLINEAR):
            return None
        step = np.linalg.solve(G[:, :q], G[:, q])
    return step if np.isfinite(step).all() else None


def _weighted_step(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solution of A step = rhs, which does not depend on the
    units of A's columns: for two columns `_solve_gram` of A'[A, rhs], else,
    or if it refuses, `lstsq` on the columns scaled by `_equilibrate`, whose
    SVD does not square the condition number."""
    if A.shape[1] == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            step = _solve_gram(A.T @ np.column_stack([A, rhs]))
        if step is not None:
            return step
    A, d = _equilibrate(A)
    return np.linalg.lstsq(A, rhs, rcond=None)[0] / d


def _s_scale(c: float, b: float):
    """S-stage criterion of `_descend`: the M-scale s of r (`_m_scale_row`
    warm-started at the current scale), also the unit of the stop, with the
    weights (1 - z)^2 and curvature (1 - z)(1 - 5z) at z = min((r/cs)^2, 1)."""
    def criterion(r, s):
        s = _m_scale_row(r, s, c, b)
        z = np.minimum(np.square(r / (c * s)), 1.0)
        w = 1.0 - z
        return s, w * w, w * (1.0 - 5.0 * z), s
    return criterion


def _m_objective(sigma: float, c: float):
    """M-stage criterion of `_descend`: mean rho_M(r / sigma) at the fixed
    scale sigma, the unit of the stop. One pass over z = min((r / c sigma)^2, 1)
    gives it, the next weights (1 - z)^2 and curvature (1 - z)(1 - 5z)."""
    cs = c * sigma

    def criterion(r, _):
        z = np.minimum(np.square(r / cs), 1.0)
        w = 1.0 - z
        # rho = 1 - (1 - z)^3 written so that small terms keep their relative
        # accuracy, which the relative rounding test of `_descend` needs
        return (float(np.add.reduce(z * (3.0 - z * (3.0 - z)))) / r.size,
                w * w, w * (1.0 - 5.0 * z), sigma)
    return criterion


def _least_squares(r, _):
    """Least-squares criterion of `_descend`: the root mean square of r, also
    the unit of the stop, with unit weights and no curvature (IRLS steps)."""
    rms = _root_mean_square(r, r.size)
    return rms, np.ones(r.size), None, rms


def _descend(y, f, J, beta, r, criterion, start, tol, max_iter, floor,
             stop_on_fall=False):
    """Safeguarded Newton descent of a criterion from beta, whose residuals
    are r = y - f(beta): the one loop of every iterative fit. Returns beta,
    its residuals, the value there, the step count and whether it converged.

    J is the Jacobian df/dbeta: an array when it is constant (the design
    matrix of a linear fit), else a function of beta. criterion(r, value)
    gives the state (value, weights w, curvature h, unit) at residuals r from
    the current value; start stands for the value before the first state.
    With w = psi(u)/u and h = psi'(u) on one scale, a step solves
    (J' diag(h) J) step = J'(w r) by `_solve_gram` when it can; otherwise,
    and always when h is None, it is the IRLS step `_weighted_step(J sqrt(w),
    r sqrt(w))`. It is halved while it raises the value by more than rounding
    (relative `_OBJECTIVE_ROUNDING`) or makes a residual non-finite. The
    descent converges when an accepted step moves the fitted values, or with
    stop_on_fall lowers the value, by less than tol * unit, or when the unit
    is at most floor (an exact fit). It gives up after max_iter steps, or
    when `_HALVINGS` halvings leave the value rising.
    """
    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        value, w, h, unit = criterion(r, start)
        while steps < max_iter and unit > floor:
            steps += 1
            A = J(beta) if callable(J) else J
            step = None if h is None else _solve_gram(
                A.T @ np.column_stack([A * h[:, None], w * r]))
            if step is None:
                sw = np.sqrt(w)
                step = _weighted_step(A * sw[:, None], r * sw)
            bound = value * (1.0 + _OBJECTIVE_ROUNDING)
            for _ in range(_HALVINGS):
                cand = beta + step
                r_cand = y - f(cand)
                trial = criterion(r_cand, value)
                moved = float(np.abs(r_cand - r).max())
                if trial[0] <= bound and moved < np.inf:
                    break
                step = step / 2.0
            else:
                return beta, r, value, steps, False
            fall = value - trial[0] if stop_on_fall else np.inf
            beta, r, (value, w, h, unit) = cand, r_cand, trial
            if moved < tol * unit or fall < tol * unit:
                return beta, r, value, steps, True
    return beta, r, value, steps, unit <= floor


def _fit_mm(y, f, J, betas, R, spec, method, cfg) -> RobustFit:
    """The MM stages of both families, from elemental candidates betas (k, q)
    with residuals R (k, n), and f and J as in `_descend`. The S-stage
    descends the M-scale (`_s_scale`) from the screened winner until a step
    also barely lowers it (sigma is stationary in beta at the S-minimum);
    its last value is sigma. The M-stage descends mean rho_M(r / sigma); its
    stop is the fit's `converged`, and `iterations` counts both stages. A
    scale not finite or at most `_scale_floor(y)` marks an exact fit, with
    sigma 0, flagged degenerate after a DegenerateScaleWarning."""
    c, b = cfg.rho_s_tuning, cfg.breakdown_b
    best, s = _smallest_scale_row(R, c, b)
    beta, floor, steps = betas[best], _scale_floor(y), 0
    if np.isfinite(s) and s > floor:
        # residuals afresh, since the row of R comes from another computation
        beta, r, s, steps, _ = _descend(y, f, J, beta, y - f(beta), _s_scale(c, b), s,
                                        cfg.tol, cfg.max_iter, floor, stop_on_fall=True)
    if not np.isfinite(s) or s <= floor:
        warnings.warn(f"degenerate M-scale in {method.value} fit",
                      DegenerateScaleWarning)
        return RobustFit(spec=spec, beta_hat=beta, sigma_hat=0.0, method=method,
                         converged=True, iterations=steps, degenerate_scale=True)
    beta, _, _, m_steps, converged = _descend(
        y, f, J, beta, r, _m_objective(s, cfg.rho_m_tuning), None, cfg.tol,
        cfg.max_iter, floor)
    return RobustFit(spec=spec, beta_hat=beta, sigma_hat=s, method=method,
                     converged=converged, iterations=steps + m_steps)


def _curve(spec: RegressionSpec, x: np.ndarray):
    """f and J of `_descend` for a nonlinear family at the covariates x."""
    return (lambda beta: spec.predict(x, beta),
            lambda beta: np.asarray(spec.gradient(x, beta), dtype=float))


def _shift_exponential(beta: np.ndarray, a: float) -> np.ndarray:
    """(b1, b2) of the curve b1 exp(b2 (x - a)) written as b1' exp(b2 x):
    b1' = b1 exp(-b2 a). The exponential fits run in the centred covariate
    x - mean(x), where the Jacobian's columns e^{b2 x} and b1 x e^{b2 x} are
    far from collinear, and map their coefficients back with a = mean(x)."""
    with np.errstate(over="ignore"):
        return np.array([beta[0] * np.exp(-beta[1] * a), beta[1]])


def _elemental_fits(X: np.ndarray, y: np.ndarray, idx: np.ndarray):
    """Exact fits of y = X beta through the elemental subsets idx (m, q):
    the betas (k, q) of the nonsingular subsets and the mask ok (m,) that
    marks them. A subset is singular when |det X[idx]| <= 1e-12 times the
    product of the column maxima of |X|, so rescaling a column keeps the
    same subsets. For q = 2 the determinant and the solve are the closed
    2 x 2 forms on the rows X[i], X[j] of each pair, for any two columns;
    a pair through a gross marker can overflow to inf or NaN betas, which
    the screen ranks as an infinite scale. Other q take `det` and `solve`
    of the stacked systems."""
    tiny = 1e-12 * np.prod(np.max(np.abs(X), axis=0))
    if X.shape[1] != 2:
        A = X[idx]                  # (m, q, q)
        ok = np.abs(np.linalg.det(A)) > tiny
        return np.linalg.solve(A[ok], y[idx[ok]][..., None])[..., 0], ok
    i, j = idx.T
    with np.errstate(over="ignore", invalid="ignore"):
        (a, b), (c, d) = X[i].T, X[j].T     # rows X[i] = (a, b), X[j] = (c, d)
        yi, yj = y[i], y[j]
        det = a * d - b * c
        ok = np.abs(det) > tiny
        a, b, c, d, yi, yj, det = (v[ok] for v in (a, b, c, d, yi, yj, det))
        betas = np.column_stack([(d * yi - b * yj) / det, (a * yj - c * yi) / det])
    return betas, ok


def fit_mm_linear(sample: PopulationSample, intercept: bool, cfg: MMConfig) -> RobustFit:
    """Linear MM fit: an S-estimator (beta_S, sigma), then a fixed-scale
    bisquare M-step started at beta_S, both through `_fit_mm` with J = X.

    The candidates are n_subsamples elemental subsets of q observations
    (`_elemental_subsets`) solved exactly by `_elemental_fits`, with closed
    2 x 2 forms for q = 2 and `det` and `solve` otherwise; one whose
    determinant is small relative to the column scales of X is singular and
    drops out. Stops are relative to the current scale and the rank of X is
    taken with its columns scaled, so the fit does not depend on the units
    of x. The candidates' residuals are one (m, n) array, filled in place.
    Raises ValueError when n <= q, X is rank-deficient or every subset is
    singular.
    """
    spec = linear_spec(sample.p, intercept)
    X = design_matrix(sample.x, intercept)
    y = sample.y
    n, q = X.shape
    _check_identifiable(n, q, np.linalg.matrix_rank(_equilibrate(X)[0]))

    rng = np.random.default_rng(cfg.seed)
    idx = _elemental_subsets(n, q, cfg.n_subsamples, rng)
    betas, ok = _elemental_fits(X, y, idx)
    if not np.any(ok):
        raise ValueError("all elemental subsets were singular")
    # a candidate through a gross outlier can overflow to inf or NaN
    # residuals, which `_smallest_scale_row` ranks as an infinite scale
    with np.errstate(over="ignore", invalid="ignore"):
        R = betas @ X.T
        np.subtract(y, R, out=R)
    return _fit_mm(y, lambda beta: X @ beta, X, betas, R, spec,
                   FitMethod.MM_LINEAR, cfg)


def _exponential_pairs(x: np.ndarray, y: np.ndarray, m: int,
                       rng: np.random.Generator):
    """Exact fits of y = b1 * exp(b2 * x) through m random pairs (i, j), i != j,
    from `_elemental_subsets`: b2 = log(y_i / y_j) / (x_i - x_j) and
    b1 = y_i * exp(-b2 * x_i).

    Returns the betas (k, 2), the residuals (k, n) and the pairs (k, 2) of the
    k candidates kept: those with finite betas. A pair with y_i / y_j <= 0 or
    x_i == x_j has no exact fit; a steep one can overflow its residuals,
    which `_smallest_scale_row` ranks as an infinite scale. The residuals of
    the kept candidates are one (k, n) array, filled in place.
    """
    i, j = _elemental_subsets(y.size, 2, m, rng).T
    with np.errstate(all="ignore"):
        b2 = np.log(y[i] / y[j]) / (x[i] - x[j])
        b1 = y[i] * np.exp(-b2 * x[i])
        ok = np.isfinite(b1) & np.isfinite(b2)
        b1, b2 = b1[ok], b2[ok]
        R = np.multiply.outer(b2, x)
        np.exp(R, out=R)
        np.multiply(R, b1[:, None], out=R)
        np.subtract(y, R, out=R)
    return np.column_stack([b1, b2]), R, np.column_stack([i[ok], j[ok]])


def fit_mm_nonlinear(sample: PopulationSample, spec: RegressionSpec,
                     cfg: MMConfig) -> RobustFit:
    """Nonlinear MM fit of the exponential family y = b1 * exp(b2 * x): the
    MM stages of `_fit_mm`, as for a linear fit, with J = df/dbeta, in the
    centred covariate (`_shift_exponential`).

    The candidates come from elemental subsets, as for nonlinear S-estimators
    (Stromberg 1993; Maronna, Martin, Yohai & Salibian-Barrera 2019): each of
    n_subsamples random pairs of distinct observations gives the curve
    through both points (`_exponential_pairs`). Raises ValueError when
    n <= 2, when the covariate is constant (only b1 * exp(b2 * x) is then
    identified, not b1 and b2), and when no drawn pair has a finite exact fit.
    """
    if spec.gradient is None:
        raise ValueError("nonlinear MM fitting requires a gradient")
    if spec.family is not Family.EXPONENTIAL:
        raise ValueError("elemental-pair starts exist for the exponential family only")
    x, y = sample.x, sample.y
    _check_identifiable(sample.n, spec.coef_dim)
    if np.all(x == x[0]):
        raise ValueError("constant covariate: the exponential curve is not identified")

    x_bar = float(np.mean(x))
    x = x - x_bar
    rng = np.random.default_rng(cfg.seed)
    betas, R, _ = _exponential_pairs(x[:, 0], y, cfg.n_subsamples, rng)
    if betas.shape[0] == 0:
        raise ValueError("no elemental pair has a finite exact fit")
    fit = _fit_mm(y, *_curve(spec, x), betas, R, spec, FitMethod.MM_NONLINEAR, cfg)
    return replace(fit, beta_hat=_shift_exponential(fit.beta_hat, x_bar))


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
    """Classical least-squares fit; sigma_hat is the residual standard
    deviation with denominator n - q (from r / max|r|, so it cannot
    overflow), and 0, flagged degenerate, at or below `_scale_floor(y)`.

    A linear fit is one `lstsq` on the design with its columns scaled by
    `_equilibrate`, which also gives the rank. A nonlinear fit is the
    unit-weight, curvature-free case of `_descend` in the centred covariate,
    with the default `MMConfig` tol and max_iter, from beta_init or else
    `_initial_beta_exponential`. Raises ValueError when n <= q and when a
    linear design is rank-deficient.
    """
    x, y = sample.x, sample.y
    n, q = sample.n, spec.coef_dim
    floor = _scale_floor(y)
    if spec.family is Family.LINEAR:
        X = design_matrix(x, spec.intercept)
        A, d = _equilibrate(X)
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        _check_identifiable(n, q, rank)
        beta = beta / d
        r = y - X @ beta
        converged, iters = True, 1
    else:
        _check_identifiable(n, q)
        if beta_init is None and spec.family is Family.EXPONENTIAL:
            beta_init = _initial_beta_exponential(sample)
        if spec.gradient is None or beta_init is None:
            raise ValueError("nonlinear least squares needs a gradient and beta_init")
        x_bar = float(np.mean(x))
        f, J = _curve(spec, x - x_bar)
        beta = _shift_exponential(np.asarray(beta_init, dtype=float), -x_bar)
        r = y - f(beta)
        beta, r, _, iters, converged = _descend(
            y, f, J, beta, r, _least_squares, None,
            MMConfig.tol, MMConfig.max_iter, floor)
        beta = _shift_exponential(beta, x_bar)
    sigma = _root_mean_square(r, n - q)
    if sigma <= floor:
        sigma = 0.0  # numerically exact fit
    return RobustFit(spec=spec, beta_hat=beta, sigma_hat=sigma,
                     method=FitMethod.LEAST_SQUARES, converged=converged,
                     iterations=iters, degenerate_scale=sigma == 0.0)
