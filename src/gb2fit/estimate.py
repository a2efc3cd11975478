"""NLS and two-step GMM estimation of shape parameters from grouped data.

Only shape parameters enter the share-fitting objective (the Lorenz curve
is scale-free); the scale is recovered afterwards from the sample mean
when one is available.
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg, optimize

from . import distributions as dist
from .distributions import FamilySpec, lorenz_exists_margin, spec_from_shapes
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
# |log shape| beyond this is penalized, not evaluated; shapes past 1e4
# only arise in degenerate limits (e.g. the lognormal corner of GB2)
# where the Lorenz curve is flat in the parameters but the quantile
# function is no longer numerically usable
_LOG_SHAPE_BOUND = math.log(1e4)
# Levenberg-Marquardt runs only from this many starts, those with the
# lowest initial RSS
_N_OPTIMIZED = 5


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


def _solve_theta2(family, theta1, g, lo):
    """Root of G(theta1, theta2) = g over (lo, _THETA2_MAX), or None."""

    def shapes(theta2):
        if family == "dagum":  # shapes are (a, p) with theta1 = p on the grid
            return theta2, theta1
        return theta1, theta2

    def f(theta2):
        return dist._nested_gini(family, *shapes(theta2)) - g

    lo = lo + 1e-6
    try:
        flo, fhi = f(lo), f(_THETA2_MAX)
    except OverflowError:
        return None
    if not np.isfinite(flo) or not np.isfinite(fhi) or flo * fhi > 0.0:
        return None
    theta2 = optimize.brentq(f, lo, _THETA2_MAX, xtol=1e-10, rtol=1e-12)
    return np.array(shapes(theta2))


@functools.lru_cache(maxsize=16)
def _nested_grid(family, g):
    """The b2, sm or dagum start grid at Gini anchor g, as tuples: it
    depends on the dataset only through g, and the GB2 grid pools all
    three, so each is solved once per anchor."""
    starts = []
    for theta1 in _GRID:
        # the mean needs q > 1 (b2), q > 1/a (sm) or a > 1 (dagum)
        lo = 1.0 / theta1 if family == "sm" else 1.0
        st = _solve_theta2(family, float(theta1), g, lo)
        if st is not None:
            starts.append(tuple(st))
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
        from .specfun import std_normal_quantile

        return [np.array([math.sqrt(2.0) * std_normal_quantile((1.0 + g) / 2.0)])]

    if family in ("b2", "sm", "dagum"):
        starts = [np.array(st) for st in _nested_grid(family, g)]
    elif family == "gb2":
        # reuse the three-parameter grids on the a = 1, p = 1 and q = 1
        # boundaries, mapped to GB2 shapes through the family table
        starts = [dist.shapes_of(spec_from_shapes(nested, st).as_gb2())
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
    and put a sloped barrier in the last one.
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


# relative step of scipy's "2-point" finite differences, sqrt(machine eps)
_FD_STEP = np.finfo(float).eps ** 0.5


def _least_squares(residuals, x0):
    """``least_squares(method="lm")`` from one start, with a Jacobian that
    evaluates its k forward-difference rows in one call of ``residuals``.

    The steps are those of scipy's default "2-point" Jacobian, and f(x) is
    reused when x is the last point evaluated, so the run is the same,
    bit for bit, as with the default.  That holds from scipy 1.16, where
    "lm" always calls MINPACK's lmder with scipy's own finite differences;
    earlier versions ran lmdif, which takes steps of its own.
    """
    last = [None, None]  # the last point evaluated and its residuals

    def fun(x):
        f = residuals(x[None])[0]
        last[:] = x.copy(), f
        return f

    def jac(x):
        f0 = last[1] if np.array_equal(x, last[0]) else fun(x)
        h = _FD_STEP * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
        steps = np.tile(x, (len(x), 1))
        np.fill_diagonal(steps, x + h)
        dx = (x + h) - x
        return ((residuals(steps) - f0) / dx[:, None]).T

    # scipy's default cap of 100 evaluations per shape stops short when
    # the optimum sits on the log-shape bound (the equal-shares limit of
    # the one-shape families takes about 220)
    return optimize.least_squares(
        fun, x0, jac=jac, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
        max_nfev=1000 * len(x0),
    )


def _least_squares_multistart(residuals, starts):
    """Levenberg-Marquardt from the starts with the lowest initial RSS.

    All starts are screened in one call of ``residuals``.  Returns the best
    log-shapes, their objective and the solver status, or (None, inf, 0)
    when every run failed.
    """
    x0s = np.log(np.asarray(starts, dtype=float))
    rss0 = np.sum(residuals(x0s) ** 2, axis=1)
    ranked = sorted(range(len(x0s)), key=rss0.__getitem__)[:_N_OPTIMIZED]
    best_x, best_f, best_status = None, np.inf, 0
    for i in ranked:
        try:
            res = _least_squares(residuals, x0s[i])
        except (FloatingPointError, linalg.LinAlgError, ValueError):
            continue
        f = float(res.fun @ res.fun)
        if np.isfinite(f) and f < best_f:
            best_x, best_f, best_status = res.x, f, res.status
    return best_x, best_f, best_status


def _spec_at(family, d, x, scale=1.0):
    """The spec at log-shapes x, clipped to the bound, and its share
    residuals; raises EstimationError outside the moment-existence region."""
    shapes = np.exp(np.clip(x, -_LOG_SHAPE_BOUND, _LOG_SHAPE_BOUND))
    spec = spec_from_shapes(family, shapes, scale=scale)
    if lorenz_exists_margin(spec) <= 0.0:
        raise EstimationError(
            f"{family} optimum violates the moment-existence region: {shapes}"
        )
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
    x, _, status = _least_squares_multistart(_residual_factory(family, u, s), starts)
    if x is None:
        raise EstimationError(f"every {family} run from the best of {len(starts)} starts failed")
    spec, residuals = _spec_at(family, d, x)
    return FitResult(spec=spec, method="nls", objective=float(np.sum(residuals**2)),
                     residuals=residuals, starts_tried=len(starts), converged=status > 0, k=k)


def solve_scale(spec, sample_mean):
    """Scale parameter matching the fitted shapes to the sample mean."""
    if sample_mean <= 0.0:
        raise EstimationError("sample mean must be positive")
    if not dist.mean_exists(spec):
        raise ExistenceError(
            f"mean does not exist for {spec.family}{spec.params}; cannot recover scale"
        )
    log_mean = dist.log_power_mean(spec, 1.0)  # log E[X] at unit scale
    if spec.family == "lognormal":  # the scale parameter is the log-scale mu
        return math.log(sample_mean) - log_mean
    return sample_mean / math.exp(log_mean)


_COND_LIMIT = 1e12


def weighting_matrix(spec, d):
    """Asymptotic covariance Omega = Psi W Psi' of the share moments.

    Requires a finite second moment.  For i <= j, W_ij = A_i + B_i C_j
    with A = mu2_partial - h mu s, B = u h - mu s and C = h (1 - u) + mu s.
    The top group's income limit cancels from the algebra: taking h_J = 0
    with mu2_partial_J = mu2 gives the boundary column and W_JJ = mu2 - mu^2.
    """
    if not dist.moment_exists(spec, 2.0):
        raise ExistenceError(
            f"second moment does not exist for {spec.family}{spec.params}"
        )
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


def _omega_cholesky(omega_matrix):
    """Lower Cholesky factor L of Omega = L L', so that the whitened
    vector L^-1 m has squared norm m' Omega^-1 m; adds ridge jitter when
    Omega is ill conditioned."""
    Om = omega_matrix.Omega.copy()
    n = Om.shape[0]
    cond = np.linalg.cond(Om)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        ridge = 1e-10 * np.trace(Om) / n
        warnings.warn(
            f"weighting matrix condition number {cond:.3g} exceeds {_COND_LIMIT:.0e}; "
            f"adding ridge {ridge:.3g}",
            RuntimeWarning,
        )
        Om += ridge * np.eye(n)
    return linalg.cholesky(Om, lower=True)


def gmm_quadratic(m, omega=None):
    """Quadratic-form objective M' Omega^-1 M; identity Omega reproduces RSS."""
    m = np.asarray(m, dtype=float)
    if omega is not None:
        m = linalg.solve_triangular(_omega_cholesky(omega), m, lower=True)
    return float(m @ m)


def gmm_fit(family, d, nls=None):
    """Two-step GMM: NLS first stage, optimally weighted second stage.

    The second stage is NLS on the share residuals whitened by the Cholesky
    factor of Omega, started from the first-stage shapes.  Scale is
    recovered from the dataset mean and held fixed.  Falls back to the
    first-stage result (with a warning and a note) when the weighting
    matrix cannot be built, every second-stage run fails, or the optimum
    leaves the moment-existence region.
    """
    if d.mean is None:
        raise EstimationError("sample mean required for GMM scale recovery")
    if nls is None:
        nls = nls_fit(family, d)
    eta = solve_scale(nls.spec, d.mean)
    scaled = dist.with_scale(nls.spec, eta)

    def fallback(reason):
        warnings.warn(f"GMM fell back to NLS for {family}: {reason}", RuntimeWarning)
        return replace(nls, spec=scaled, method="gmm",
                       note=f"second stage fell back to NLS: {reason}")

    try:
        chol = _omega_cholesky(weighting_matrix(scaled, d))
    except (ExistenceError, linalg.LinAlgError) as exc:
        return fallback(str(exc))
    residuals_fn = _residual_factory(family, d.u[:-1], d.s[:-1], chol)
    x, fval, status = _least_squares_multistart(residuals_fn, [dist.shapes_of(nls.spec)])
    if x is None:
        return fallback("every second-stage run failed")
    try:
        spec, residuals = _spec_at(family, d, x, scale=eta)
    except EstimationError:
        return fallback("second stage left the moment-existence region")
    return replace(nls, spec=spec, method="gmm", objective=float(fval),
                   residuals=residuals, converged=status > 0)
