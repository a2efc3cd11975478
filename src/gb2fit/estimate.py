"""NLS and two-step GMM estimation of shape parameters from grouped data.

Only shape parameters enter the share-fitting objective (the Lorenz curve
is scale-free); the scale is recovered afterwards from the sample mean
when one is available.
"""

import math
import warnings
from dataclasses import dataclass

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


def _closed_gini(family, shapes):
    return dist.gini_closed(spec_from_shapes(family, shapes)).value


def _solve_theta2(family, theta1, g, lo):
    """Root of G(theta1, theta2) = g over (lo, _THETA2_MAX), or None."""

    def build(theta2):
        if family == "dagum":  # shapes are (a, p) with theta1 = p on the grid
            return np.array([theta2, theta1])
        return np.array([theta1, theta2])

    def f(theta2):
        return _closed_gini(family, build(theta2)) - g

    lo = lo + 1e-6
    try:
        flo, fhi = f(lo), f(_THETA2_MAX)
    except (ExistenceError, OverflowError):
        return None
    if not np.isfinite(flo) or not np.isfinite(fhi) or flo * fhi > 0.0:
        return None
    theta2 = optimize.brentq(f, lo, _THETA2_MAX, xtol=1e-10, rtol=1e-12)
    return build(theta2)


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

    starts = []
    if family in ("b2", "sm", "dagum"):
        for theta1 in _GRID:
            if family == "b2":
                lo = 1.0  # q > 1
            elif family == "sm":
                lo = 1.0 / theta1  # q > 1/a
            else:
                lo = 1.0  # dagum: a > 1
            st = _solve_theta2(family, float(theta1), g, lo)
            if st is not None:
                starts.append(st)
    elif family == "gb2":
        # gb2 shapes are (a, p, q); reuse the three-parameter grids on the
        # a = 1, p = 1 and q = 1 boundaries
        for st in starting_values("b2", d):
            starts.append(np.array([1.0, st[0], st[1]]))
        for st in starting_values("sm", d):
            starts.append(np.array([st[0], 1.0, st[1]]))
        for st in starting_values("dagum", d):
            starts.append(np.array([st[0], st[1], 1.0]))
    else:
        raise EstimationError(f"unknown family {family!r}")
    if not starts:
        raise EstimationError(
            f"no admissible starting values for {family} at Gini anchor {g:.4f}"
        )
    return starts


def _residual_factory(family, u, s, whiten=None):
    """Residual vector over log-shapes.

    The share residuals (whitened for GMM) come first, then one entry per
    shape for the excess beyond the log-shape bound, then one entry for
    the infeasibility barrier, so the sum of squares is the objective with
    its penalties.  Infeasible points zero the share entries and put a
    sloped barrier in the last one.
    """
    n = len(u)

    def residuals(x):
        xc = np.clip(x, -_LOG_SHAPE_BOUND, _LOG_SHAPE_BOUND)
        out = np.zeros(n + len(x) + 1)
        out[n:-1] = x - xc
        spec = spec_from_shapes(family, np.exp(xc))
        margin = lorenz_exists_margin(spec)
        if margin <= 0.0:
            out[-1] = 100.0 * math.sqrt(1.0 - margin)
            return out
        with np.errstate(all="ignore"):
            m = dist.lorenz(spec, u) - s
        if not np.all(np.isfinite(m)):
            out[-1] = 1e4
            return out
        out[:n] = m if whiten is None else whiten(m)
        return out

    return residuals


def _least_squares_multistart(residuals, starts):
    """Levenberg-Marquardt from the starts with the lowest initial RSS.

    Returns the best log-shapes, their objective and the solver status,
    or (None, inf, 0) when every run failed.
    """
    x0s = [np.log(np.asarray(st, dtype=float)) for st in starts]
    rss0 = [float(np.sum(residuals(x0) ** 2)) for x0 in x0s]
    ranked = sorted(range(len(x0s)), key=rss0.__getitem__)[:_N_OPTIMIZED]
    best_x, best_f, best_status = None, np.inf, 0
    for i in ranked:
        try:
            # scipy's default cap of 100 evaluations per shape stops short
            # when the optimum sits on the log-shape bound (the equal-shares
            # limit of the one-shape families takes about 220)
            res = optimize.least_squares(
                residuals, x0s[i], method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                max_nfev=1000 * len(x0s[i]),
            )
        except (FloatingPointError, linalg.LinAlgError, ValueError):
            continue
        f = float(res.fun @ res.fun)
        if np.isfinite(f) and f < best_f:
            best_x, best_f, best_status = res.x, f, res.status
    return best_x, best_f, best_status


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
    shapes = np.exp(np.clip(x, -_LOG_SHAPE_BOUND, _LOG_SHAPE_BOUND))
    spec = spec_from_shapes(family, shapes)
    if lorenz_exists_margin(spec) <= 0.0:
        raise EstimationError(
            f"{family} optimum violates the moment-existence region: {shapes}"
        )
    residuals = dist.lorenz(spec, u) - s
    return FitResult(
        spec=spec,
        method="nls",
        objective=float(np.sum(residuals**2)),
        residuals=residuals,
        starts_tried=len(starts),
        converged=status > 0,
        k=k,
    )


def solve_scale(spec, sample_mean):
    """Scale parameter matching the fitted shapes to the sample mean."""
    if sample_mean <= 0.0:
        raise EstimationError("sample mean must be positive")
    if not dist.mean_exists(spec):
        raise ExistenceError(
            f"mean does not exist for {spec.family}{spec.params}; cannot recover scale"
        )
    if spec.family == "lognormal":
        sigma = spec.params[1]
        return math.log(sample_mean) - sigma**2 / 2.0
    unit = dist.with_scale(spec, 1.0)
    return sample_mean / dist.moment(unit, 1.0)


_COND_LIMIT = 1e12


def weighting_matrix(spec, d):
    """Asymptotic covariance Omega = Psi W Psi' of the share moments.

    Requires a finite second moment.  The last row/column of W uses the
    analytically cancelled boundary forms (the top group income limit
    drops out of the algebra).
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
    mu2_partial = mu2 * np.asarray(
        [dist.incomplete_moment_cdf(spec, 2.0, hi) for hi in h]
    )

    W = np.empty((J, J))
    for i in range(J - 1):
        for j in range(i, J - 1):
            W[i, j] = (
                mu2_partial[i]
                + (u[i] * h[i] - mu * s[i]) * (h[j] - u[j] * h[j] + mu * s[j])
                - h[i] * mu * s[i]
            )
    for i in range(J - 1):  # boundary column: h_J cancels to mu
        W[i, J - 1] = mu2_partial[i] + (u[i] * h[i] - mu * s[i]) * mu - h[i] * mu * s[i]
    W[J - 1, J - 1] = mu2 - mu**2
    W = np.triu(W) + np.triu(W, 1).T

    Psi = np.zeros((J - 1, J))
    Psi[np.arange(J - 1), np.arange(J - 1)] = 1.0 / mu
    Psi[:, J - 1] = -s[:-1] / mu
    Omega = Psi @ W @ Psi.T
    Omega = (Omega + Omega.T) / 2.0
    return WeightingMatrix(
        h=h, mu=mu, mu2=mu2, mu2_partial=mu2_partial, W=W, Psi=Psi, Omega=Omega
    )


def _omega_whitener(omega_matrix):
    """Whitening closure m -> L^-1 m with Omega = L L', so that the
    whitened vector's squared norm is m' Omega^-1 m; adds ridge jitter
    when Omega is ill conditioned."""
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
    chol = linalg.cholesky(Om, lower=True)
    return lambda m: linalg.solve_triangular(chol, m, lower=True)


def gmm_quadratic(m, omega=None):
    """Quadratic-form objective M' Omega^-1 M; identity Omega reproduces RSS."""
    m = np.asarray(m, dtype=float)
    if omega is not None:
        m = _omega_whitener(omega)(m)
    return float(m @ m)


def gmm_fit(family, d, nls=None):
    """Two-step GMM: NLS first stage, optimally weighted second stage.

    Scale is recovered from the dataset mean and held fixed while the
    second stage re-estimates the shapes.  Falls back to the first-stage
    result (with a warning) when the weighting matrix cannot be built or
    the second stage worsens the fit.
    """
    if d.mean is None:
        raise EstimationError("sample mean required for GMM scale recovery")
    if nls is None:
        nls = nls_fit(family, d)
    eta = solve_scale(nls.spec, d.mean)
    scaled = dist.with_scale(nls.spec, eta)

    def fallback(reason):
        warnings.warn(f"GMM fell back to NLS for {family}: {reason}", RuntimeWarning)
        return FitResult(
            spec=scaled,
            method="gmm",
            objective=nls.objective,
            residuals=nls.residuals,
            starts_tried=nls.starts_tried,
            converged=nls.converged,
            k=nls.k,
            note=f"second stage fell back to NLS: {reason}",
        )

    try:
        wm = weighting_matrix(scaled, d)
        whiten = _omega_whitener(wm)
    except (ExistenceError, linalg.LinAlgError) as exc:
        return fallback(str(exc))

    u, s = d.u[:-1], d.s[:-1]
    residuals_fn = _residual_factory(family, u, s, whiten=whiten)
    start_shapes = dist.shapes_of(nls.spec)
    f_start = float(np.sum(residuals_fn(np.log(start_shapes)) ** 2))
    x, fval, status = _least_squares_multistart(residuals_fn, [start_shapes])
    if x is None or fval > f_start:
        x, fval = np.log(start_shapes), f_start
    shapes = np.exp(np.clip(x, -_LOG_SHAPE_BOUND, _LOG_SHAPE_BOUND))
    spec = spec_from_shapes(family, shapes, scale=eta)
    if lorenz_exists_margin(spec) <= 0.0:
        return fallback("second stage left the moment-existence region")
    residuals = dist.lorenz(spec, u) - s
    return FitResult(
        spec=spec,
        method="gmm",
        objective=float(fval),
        residuals=residuals,
        starts_tried=nls.starts_tried,
        converged=status > 0,
        k=nls.k,
    )
