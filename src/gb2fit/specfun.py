"""Special functions used by the distribution formulas.

Gamma/beta/normal primitives are thin wrappers around scipy.special with
explicit domain checking.  The generalized hypergeometric series at unit
argument, which has no scipy counterpart, is evaluated here directly.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .exceptions import DomainError, NonConvergenceError

__all__ = [
    "SeriesControl",
    "SeriesResult",
    "ln_gamma",
    "inc_beta_ratio",
    "inv_inc_beta_ratio",
    "inc_gamma_ratio",
    "std_normal_cdf",
    "std_normal_quantile",
    "hyp3f2_unit",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for series evaluation."""

    max_terms: int = 5_000_000
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class SeriesResult:
    value: float
    converged: bool
    est_rel_error: float
    terms: int


def ln_gamma(x):
    """Natural log of the gamma function for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("ln_gamma requires x > 0")
    out = special.gammaln(x)
    return float(out) if out.ndim == 0 else out


def inc_beta_ratio(x, p, q):
    """Incomplete beta function ratio B(x; p, q) on [0, 1]; x, p and q
    broadcast."""
    if np.less_equal(p, 0.0).any() or np.less_equal(q, 0.0).any():
        raise DomainError("inc_beta_ratio requires p, q > 0")
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise DomainError("inc_beta_ratio requires 0 <= x <= 1")
    out = special.betainc(p, q, x)
    return float(out) if out.ndim == 0 else out


def inv_inc_beta_ratio(y, p, q):
    """Inverse of the incomplete beta function ratio; y, p and q broadcast."""
    if np.less_equal(p, 0.0).any() or np.less_equal(q, 0.0).any():
        raise DomainError("inv_inc_beta_ratio requires p, q > 0")
    y = np.asarray(y, dtype=float)
    if np.any((y < 0.0) | (y > 1.0)):
        raise DomainError("inv_inc_beta_ratio requires 0 <= y <= 1")
    out = special.betaincinv(p, q, y)
    return float(out) if out.ndim == 0 else out


def inc_gamma_ratio(x, nu):
    """Regularized lower incomplete gamma function G(x; nu); x and nu
    broadcast."""
    if np.less_equal(nu, 0.0).any():
        raise DomainError("inc_gamma_ratio requires nu > 0")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("inc_gamma_ratio requires x >= 0")
    out = special.gammainc(nu, x)
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal cdf."""
    out = special.ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(u):
    """Standard normal quantile for u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise DomainError("std_normal_quantile requires 0 < u < 1")
    out = special.ndtri(u)
    return float(out) if out.ndim == 0 else out


# Terms of the series behave like C * k^(-1-s) with s the convergence
# margin, so the truncated tail is close to t_K * K / s.  Adding that
# estimate to the partial sum leaves a residual of roughly t_K / s times
# the (unknown) next-order coefficient; _RESIDUAL_SAFETY bounds it for
# the argument ranges produced by the Gini formula.  Both estimates are
# asymptotic in k and only hold once k dominates every parameter, so the
# stop test is deferred until k exceeds _ASYMPTOTIC_FACTOR times the
# largest parameter.
_RESIDUAL_SAFETY = 8.0
_ASYMPTOTIC_FACTOR = 10.0
_BLOCK = 100_000


def hyp3f2_unit(a1, a2, a3, b1, b2, ctl=SeriesControl()):
    """Sum the 3F2 hypergeometric series at unit argument.

    Requires a positive convergence margin s = b1 + b2 - a1 - a2 - a3.
    Returns a SeriesResult; ``converged`` is False when the estimated
    relative error of the returned value still exceeds ``ctl.rel_tol``
    after ``ctl.max_terms`` terms.
    """
    s = b1 + b2 - a1 - a2 - a3
    if s <= 0.0:
        raise NonConvergenceError(
            f"3F2 series diverges at unit argument (margin {s:.6g} <= 0)"
        )
    if a1 == 0.0 or a2 == 0.0 or a3 == 0.0:
        return SeriesResult(1.0, True, 0.0, 0)

    k_min = _ASYMPTOTIC_FACTOR * max(abs(a1), abs(a2), abs(a3), abs(b1), abs(b2))
    total = 1.0
    t = 1.0  # running term, t_0 = 1
    k0 = 0
    converged = False
    est = np.inf
    while k0 < ctl.max_terms:
        n = min(_BLOCK, ctl.max_terms - k0)
        k = np.arange(k0, k0 + n, dtype=float)
        ratios = ((a1 + k) * (a2 + k) * (a3 + k)) / ((b1 + k) * (b2 + k) * (k + 1.0))
        terms = t * np.cumprod(ratios)
        total += float(terms.sum())
        t = float(terms[-1])
        k0 += n
        est = abs(t) * _RESIDUAL_SAFETY / s / max(abs(total), np.finfo(float).tiny)
        if est <= ctl.rel_tol and k0 >= k_min:
            converged = True
            break

    if not converged:
        # stopped by max_terms; outside the asymptotic regime neither the
        # tail estimate nor the error bound can be trusted
        if k0 < k_min:
            est = np.inf

    # integral estimate of the truncated tail
    tail = t * ((a1 + k0) * (a2 + k0) * (a3 + k0)) / (
        (b1 + k0) * (b2 + k0) * (k0 + 1.0)
    ) * (k0 + 1.0) / s
    return SeriesResult(total + tail, converged, est, k0)
