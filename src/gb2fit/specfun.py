"""The inverse incomplete beta ratio of the GB2 Lorenz kernel and quantile,
scipy's ``betaincinv`` with explicit domain checking.  The other special
functions are called from scipy.special where they are used."""

import numpy as np
from scipy import special

from .exceptions import DomainError

__all__ = ["inv_inc_beta_ratio"]


def inv_inc_beta_ratio(y, p, q):
    """Inverse of the incomplete beta function ratio; y, p and q broadcast."""
    if np.count_nonzero(np.less_equal(p, 0.0)) or np.count_nonzero(np.less_equal(q, 0.0)):
        raise DomainError("inv_inc_beta_ratio requires p, q > 0")
    y = np.asarray(y, dtype=float)
    if np.count_nonzero((y < 0.0) | (y > 1.0)):
        raise DomainError("inv_inc_beta_ratio requires 0 <= y <= 1")
    out = special.betaincinv(p, q, y)
    return float(out) if out.ndim == 0 else out
