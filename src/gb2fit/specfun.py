"""Special functions used by the distribution formulas: gamma, beta and
normal primitives, thin wrappers around scipy.special with explicit
domain checking."""

import numpy as np
from scipy import special

from .exceptions import DomainError

__all__ = [
    "inv_inc_beta_ratio",
    "inc_gamma_ratio",
    "std_normal_cdf",
    "std_normal_quantile",
]


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
