"""NLS and two-step GMM estimation of shape parameters from grouped data.

Only shape parameters enter the share-fitting objective (the Lorenz curve
is scale-free); the scale is recovered afterwards from the sample mean
when one is available, and is 1 otherwise.
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg, special

from . import distributions as dist
from .distributions import FamilySpec, spec_from_shapes
from .exceptions import EstimationError, ExistenceError
from .grouped import lower_bound_gini

__all__ = [
    "FitResult",
    "WeightingMatrix",
    "starting_values",
    "nls_fit",
    "solve_scale",
    "weighting_matrix",
    "gmm_fit",
    "gmm_quadratic",
]

_GRID = range(1, 21)
_THETA2_MAX = 1e3
# |log shape| is bounded by this; shapes past 1e4 only arise in degenerate
# limits (e.g. the lognormal corner of GB2) where the Lorenz curve is flat
# in the parameters but the quantile function is no longer numerically usable
_LOG_SHAPE_BOUND = math.log(1e4)


@dataclass(frozen=True)
class FitResult:
    """Estimated shapes plus diagnostics of the minimization."""

    spec: FamilySpec
    method: str  # "nls" | "gmm"
    objective: float
    residuals: np.ndarray
    starts_tried: int
    converged: bool
    k: int
    note: str = ""

    @property
    def rss(self):
        return float(np.sum(self.residuals**2))


@dataclass(frozen=True)
class WeightingMatrix:
    """Asymptotic covariance pieces for the share moment conditions."""

    h: np.ndarray  # fitted group income limits, j = 1..J-1
    mu: float
    mu2: float
    mu2_partial: np.ndarray
    W: np.ndarray  # J x J
    Psi: np.ndarray  # (J-1) x J
    Omega: np.ndarray  # (J-1) x (J-1)


def _gini_anchor(d):
    g = d.survey_gini if d.survey_gini is not None else lower_bound_gini(d)
    return min(max(g, 1e-4), 1.0 - 1e-4)


def _brentq(f, xpre, xcur, fpre, fcur):
    """Root of f between xpre and xcur, where f takes the values fpre and
    fcur of opposite signs (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4).

    A step-for-step port of scipy's ``brentq.c`` at xtol 1e-10, rtol 1e-12
    and at most 100 iterations, so each root is bit-identical to
    ``scipy.optimize.brentq``'s, without importing ``scipy.optimize``.  As
    there, a NaN value of f raises ValueError and no convergence raises
    RuntimeError.
    """
    xtol, rtol, maxiter = 1e-10, 1e-12, 100
    xpre, xcur, fpre, fcur = float(xpre), float(xcur), float(fpre), float(fcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gives inf or NaN, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


@functools.lru_cache(maxsize=16)
def _nested_grid(family, g):
    """The b2, sm or dagum start grid at Gini anchor g, as tuples: for each
    theta1 on the grid, the root theta2 of G(theta1, theta2) = g over
    (lo, _THETA2_MAX) where it is bracketed.  It depends on the dataset only
    through g, and the GB2 pools all three grids, so each is solved once."""
    def shapes(theta1, theta2):  # dagum's shapes are (a, p), with p on the grid
        return (theta2, theta1) if family == "dagum" else (theta1, theta2)

    starts = []
    for theta1 in map(float, _GRID):
        def f(theta2):
            return dist._nested_gini(family, *shapes(theta1, theta2)) - g

        # the mean needs q > 1 (b2), q > 1/a (sm) or a > 1 (dagum)
        lo = (1.0 / theta1 if family == "sm" else 1.0) + 1e-6
        try:
            flo, fhi = f(lo), f(_THETA2_MAX)
        except OverflowError:
            continue
        if np.isfinite(flo) and np.isfinite(fhi) and flo * fhi <= 0.0:
            starts.append(shapes(theta1, _brentq(f, lo, _THETA2_MAX, flo, fhi)))
    return tuple(starts)


def starting_values(family, d):
    """Starting shape vectors per family.

    One-shape families invert their closed-form Gini at the anchor (the
    survey Gini when present, the lower bound otherwise).  Two-shape
    families sweep an integer grid on the first shape and solve the Gini
    equation for the second; the GB2 pools the three-parameter grids on
    its nested boundaries.
    """
    g = _gini_anchor(d)
    if family == "fisk":
        return [np.array([1.0 / g])]
    if family == "weibull":
        return [np.array([math.log(2.0) / (-math.log1p(-g))])]
    if family == "lognormal":
        return [np.array([math.sqrt(2.0) * special.ndtri((1.0 + g) / 2.0)])]

    if family in ("b2", "sm", "dagum"):
        starts = [np.array(st) for st in _nested_grid(family, g)]
    elif family == "gb2":
        # reuse the three-parameter grids on the a = 1, p = 1 and q = 1
        # boundaries, mapped to GB2 shapes through the family table
        starts = [np.array(dist._TABLE[nested].to_gb2(*st))
                  for nested in ("b2", "sm", "dagum") for st in _nested_grid(nested, g)]
    else:
        raise EstimationError(f"unknown family {family!r}")
    if not starts:
        raise EstimationError(
            f"no admissible starting values for {family} at Gini anchor {g:.4f}"
        )
    return starts


def _residual_factory(family, u, s, chol=None):
    """Residual rows of a stack of log-shape rows (m, k).

    In each row the share residuals come first, whitened to L^-1 m for GMM
    when the Cholesky factor L of Omega is given, then
    one entry per shape for the excess beyond the log-shape bound, then one
    entry for the infeasibility barrier, so the row's sum of squares is the
    objective with its penalties.  Infeasible rows zero the share entries
    and put a sloped barrier in the last one.  ``_levenberg_marquardt``
    never leaves the bound, but a general least-squares solver run on these
    rows (the MINPACK oracle of the tests) does, and the excess entries
    steer it back.
    """
    n = len(u)

    def residuals(x):
        xc = np.minimum(np.maximum(x, -_LOG_SHAPE_BOUND), _LOG_SHAPE_BOUND)
        shapes = np.exp(xc)
        margin = dist._margin_rows(family, shapes)
        feasible = margin > 0.0
        out = np.zeros((len(x), n + x.shape[1] + 1))
        out[:, n:-1] = x - xc
        out[:, -1] = np.where(feasible, 0.0, 100.0 * np.sqrt(1.0 - np.minimum(margin, 0.0)))
        if feasible.any():
            with np.errstate(all="ignore"):
                m = dist._lorenz_rows(family, shapes[feasible], u) - s
            finite = np.isfinite(m).all(axis=1)
            m[~finite] = 0.0
            if chol is not None:
                m = linalg.solve_triangular(chol, m.T, lower=True).T
            out[feasible, :n] = m
            out[feasible, -1] = np.where(finite, 0.0, 1e4)
        return out

    return residuals


# Levenberg-Marquardt runs from the _N_OPTIMIZED starts of lowest initial RSS,
# with forward differences of relative step _FD_STEP (sqrt of machine eps, as
# scipy's "2-point").  The box |x| <= _LOG_SHAPE_BOUND is a hard bound, as in
# a projected Levenberg-Marquardt (Kanzow, Yamashita & Fukushima 2004): each
# step is projected onto it, a difference that would leave it is taken
# inward, and a coordinate on its edge whose descent direction points out is
# held, its Jacobian column zeroed.  Inside the box all three are no-ops.  A
# row converges when its relative step, its relative decrease or the largest
# cosine between its residuals and a free Jacobian column falls below _XTOL,
# _FTOL or _GTOL; it stops unconverged after _MAX_ITER iterations (the
# equal-shares limit of a one-shape family takes about 50).
_N_OPTIMIZED, _FD_STEP = 5, np.finfo(float).eps ** 0.5
_XTOL, _FTOL, _GTOL, _MAX_ITER = 1e-10, 1e-12, 1e-10, 200


def _values_and_jacobians(residuals, x):
    """Residuals f (m, n) at the rows of x (m, k) and the transposed
    forward-difference Jacobians (m, k, n), from one call of ``residuals``;
    every stencil point stays inside the log-shape box."""
    k = x.shape[1]
    h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where(np.abs(x + h) > _LOG_SHAPE_BOUND, -h, h)  # difference inward at the edge
    points = x[:, None] + np.eye(k + 1, k, -1) * h[:, None]  # x, then x + h_j e_j
    r = residuals(points.reshape(-1, k)).reshape(len(x), k + 1, -1)
    dx = np.diagonal(points[:, 1:], axis1=1, axis2=2) - x
    return r[:, 0], (r[:, 1:] - r[:, :1]) / dx[..., None]


def _solve_rows(a, b):
    """The solutions of a[j] y = b[j]; NaN for a singular row."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan) if len(a) == 1 else np.concatenate(
            [_solve_rows(a[j:j + 1], b[j:j + 1]) for j in range(len(a))])


def _levenberg_marquardt(residuals, x0s):
    """Levenberg-Marquardt from every row of x0s (m, k) in lockstep: an
    iteration makes one ``residuals`` call, on the trial points and their
    stencils, and solves every (J'J + lam D) step = -J'f at once, D the running
    maximum of diag J'J (More 1978).  Rows accept, damp (Nielsen's rule) and
    stop on their own and never mix, so a row ends the same bit for bit alone
    or in a batch.  Returns the points, their sums of squares and whether
    each row converged."""
    x = np.array(x0s, dtype=float)
    m, k = x.shape
    lam, nu, d, done = np.full(m, 1e-3), np.full(m, 2.0), np.zeros((m, k)), np.zeros(m, bool)
    with np.errstate(all="ignore"):
        f, jt = _values_and_jacobians(residuals, x)
        cost = np.sum(f * f, axis=1)
        for _ in range(_MAX_ITER):
            i = np.flatnonzero(~done)
            jtj, g = jt[i] @ jt[i].transpose(0, 2, 1), np.sum(jt[i] * f[i, None], axis=2)
            # hold an edge coordinate whose descent direction -g leaves the box
            free = (np.abs(x[i]) < _LOG_SHAPE_BOUND) | (g * x[i] > 0.0)
            g, jtj = g * free, jtj * free[:, :, None] * free[:, None, :]
            col = np.diagonal(jtj, axis1=1, axis2=2)
            d[i] = np.maximum(d[i], col)
            cosine = np.abs(g) / np.sqrt(col * cost[i, None])
            stop = (cost[i] == 0.0) | np.all((col == 0.0) | (cosine <= _GTOL), axis=1)
            done[i[stop]], i, jtj, g = True, i[~stop], jtj[~stop], g[~stop]
            if not len(i):
                break
            damp = lam[i, None] * np.where(d[i] > 0.0, d[i], 1.0)
            step = _solve_rows(jtj + damp[..., None] * np.eye(k), -g)
            trial = np.clip(x[i] + step, -_LOG_SHAPE_BOUND, _LOG_SHAPE_BOUND)  # onto the box
            step = np.where(trial == x[i] + step, step, trial - x[i])  # its bits kept inside
            ft, jtt = _values_and_jacobians(residuals, trial)
            cost_t = np.sum(ft * ft, axis=1)
            drop, ok = cost[i] - cost_t, cost_t < cost[i]
            small = np.linalg.norm(step, axis=1) <= _XTOL * (_XTOL + np.linalg.norm(x[i], axis=1))
            done[i] = small | (ok & (drop <= _FTOL * cost[i]))
            rho = drop / np.sum(step * (damp * step - g), axis=1)
            lam[i] *= np.where(ok, np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), nu[i])
            nu[i] = np.where(ok, 2.0, 2.0 * nu[i])
            a = i[ok]
            x[a], f[a], jt[a], cost[a] = trial[ok], ft[ok], jtt[ok], cost_t[ok]
    return x, cost, done


def _multistart(residuals, starts):
    """Levenberg-Marquardt from the _N_OPTIMIZED starts of lowest initial RSS,
    screened in one ``residuals`` call: the best run's log-shapes, objective
    (inf when no run ends finite) and whether it converged."""
    x0s = np.log(np.asarray(starts, dtype=float))
    ranked = np.argsort(np.sum(residuals(x0s) ** 2, axis=1), kind="stable")[:_N_OPTIMIZED]
    x, rss, converged = _levenberg_marquardt(residuals, x0s[ranked])
    rss = np.where(np.isfinite(rss), rss, np.inf)
    best = int(np.argmin(rss))
    return x[best], float(rss[best]), bool(converged[best])


def _spec_at(family, d, x):
    """The spec at log-shapes x, clipped to the bound, and its share
    residuals; raises EstimationError outside the moment-existence region.
    The shares fix only the shapes: the scale matches the dataset's mean,
    and is 1 when the dataset has none."""
    shapes = np.exp(np.clip(x, -_LOG_SHAPE_BOUND, _LOG_SHAPE_BOUND))
    spec = spec_from_shapes(family, shapes)
    if not dist.moment_exists(spec, 1.0):
        raise EstimationError(
            f"{family} optimum violates the moment-existence region: {shapes}"
        )
    if d.mean is not None:
        spec = spec_from_shapes(family, shapes, scale=solve_scale(spec, d.mean))
    return spec, dist.lorenz(spec, d.u[:-1]) - d.s[:-1]


def nls_fit(family, d, starts=None):
    """Least-squares fit of the Lorenz curve to the observed shares.

    Ranks every starting value by its initial RSS, runs Levenberg-Marquardt
    from the best few and keeps the lowest residual sum of squares; the
    last share (identically 1) carries no information and is excluded.
    """
    k = dist.n_shape_params(family)
    if d.n_groups < k + 1:
        raise EstimationError(
            f"{family} needs at least {k + 1} groups, dataset has {d.n_groups}"
        )
    u, s = d.u[:-1], d.s[:-1]
    if starts is None:
        starts = starting_values(family, d)
    x, fval, converged = _multistart(_residual_factory(family, u, s), starts)
    if not np.isfinite(fval):
        raise EstimationError(f"every {family} run from the best of {len(starts)} starts failed")
    spec, residuals = _spec_at(family, d, x)
    return FitResult(spec=spec, method="nls", objective=float(np.sum(residuals**2)),
                     residuals=residuals, starts_tried=len(starts), converged=converged, k=k)


def solve_scale(spec, sample_mean):
    """Scale parameter matching the fitted shapes to the sample mean."""
    if sample_mean <= 0.0:
        raise EstimationError("sample mean must be positive")
    dist._require_moment(spec, 1.0, "mean")
    log_mean = dist.log_power_mean(spec, 1.0)  # log E[X] at unit scale
    if spec.family == "lognormal":  # the scale parameter is the log-scale mu
        return math.log(sample_mean) - log_mean
    return sample_mean / math.exp(log_mean)


def weighting_matrix(spec, d):
    """Asymptotic covariance Omega = Psi W Psi' of the share moments.

    Requires a finite second moment.  For i <= j, W_ij = A_i + B_i C_j
    with A = mu2_partial - h mu s, B = u h - mu s and C = h (1 - u) + mu s.
    The top group's income limit cancels from the algebra: taking h_J = 0
    with mu2_partial_J = mu2 gives the boundary column and W_JJ = mu2 - mu^2.
    """
    dist._require_moment(spec, 2.0, "second moment")
    J = d.n_groups
    u, s = d.u, d.s
    h = dist.quantile(spec, u[:-1])
    mu = dist.moment(spec, 1.0)
    mu2 = dist.moment(spec, 2.0)
    mu2_partial = mu2 * dist.incomplete_moment_cdf(spec, 2.0, h)

    hz = np.append(h, 0.0)  # h_J = 0
    A = np.append(mu2_partial, mu2) - hz * mu * s
    B = u * hz - mu * s
    C = hz * (1.0 - u) + mu * s
    W = np.triu(A[:, None] + B[:, None] * C)
    W = W + np.triu(W, 1).T

    Psi = np.hstack([np.eye(J - 1), -s[:-1, None]]) / mu
    Omega = Psi @ W @ Psi.T
    Omega = (Omega + Omega.T) / 2.0
    return WeightingMatrix(
        h=h, mu=mu, mu2=mu2, mu2_partial=mu2_partial, W=W, Psi=Psi, Omega=Omega
    )


def gmm_quadratic(m, omega=None):
    """Quadratic-form objective M' Omega^-1 M; identity Omega reproduces RSS."""
    m = np.asarray(m, dtype=float)
    if omega is not None:
        m = linalg.solve_triangular(linalg.cholesky(omega.Omega, lower=True), m, lower=True)
    return float(m @ m)


def gmm_fit(family, d, nls=None):
    """Two-step GMM: NLS first stage, optimally weighted second stage.

    The second stage is NLS on the share residuals whitened by the Cholesky
    factor of Omega, started from the first-stage shapes.  Omega is
    scale-free (W grows as b^2 and Psi as 1/b), so it is built at the
    first-stage spec as it is, and the dataset needs no mean; the fitted
    scale is set as for NLS.  Falls back to the first-stage result (with a
    warning and a note) when the weighting matrix cannot be built, every
    second-stage run fails, or the optimum leaves the moment-existence
    region.
    """
    if nls is None:
        nls = nls_fit(family, d)

    def fallback(reason):
        warnings.warn(f"GMM fell back to NLS for {family}: {reason}", RuntimeWarning)
        return replace(nls, method="gmm", note=f"second stage fell back to NLS: {reason}")

    try:
        chol = linalg.cholesky(weighting_matrix(nls.spec, d).Omega, lower=True)
    except (ExistenceError, linalg.LinAlgError) as exc:
        return fallback(str(exc))
    residuals_fn = _residual_factory(family, d.u[:-1], d.s[:-1], chol)
    x, fval, converged = _multistart(residuals_fn, [dist.shapes_of(nls.spec)])
    if not np.isfinite(fval):
        return fallback("every second-stage run failed")
    try:
        spec, residuals = _spec_at(family, d, x)
    except EstimationError:
        return fallback("second stage left the moment-existence region")
    return replace(nls, spec=spec, method="gmm", objective=float(fval),
                   residuals=residuals, converged=converged)
