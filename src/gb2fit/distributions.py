"""The GB2 family: cdfs, quantiles, Lorenz curves, moments and Gini indices.

Supported families and their parameter vectors:

    gb2        (a, b, p, q)
    b2         (b, p, q)        # GB2 with a = 1
    sm         (a, b, q)        # Singh-Maddala, GB2 with p = 1
    dagum      (a, b, p)        # GB2 with q = 1
    lognormal  (mu, sigma)
    fisk       (a, b)           # GB2 with p = q = 1
    weibull    (a, b)

``b`` is the scale (money units); everything else is a dimensionless
shape except the lognormal ``mu``, which plays the role of a log-scale.

The nested families are rows of one table that maps their shapes to GB2
(a, p, q), so every formula below is written once for the GB2; only the
lognormal and the Weibull have formulas of their own.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import linalg, special

from .exceptions import DomainError, ExistenceError
from .specfun import inv_inc_beta_ratio

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "GiniValue",
    "cdf",
    "quantile",
    "sample",
    "lorenz",
    "moment",
    "log_power_mean",
    "incomplete_moment_cdf",
    "gini_closed",
    "n_shape_params",
    "shapes_of",
    "spec_from_shapes",
]


def _inverse_beta_pair(u, p, q):
    """z = I_u^-1(p, q) and 1 - z, each with its own digits: above
    u = I_1/2(p, q), where z > 1/2, 1 - z comes from I_(1-z)(q, p) = 1 - u."""
    upper = u > special.betainc(p, q, 0.5)
    if not np.count_nonzero(upper):  # no u above it: the arguments as they are
        w = inv_inc_beta_ratio(u, p, q)
        return w, 1.0 - w
    w = inv_inc_beta_ratio(np.where(upper, 1.0 - u, u), np.where(upper, q, p), np.where(upper, p, q))
    wc = 1.0 - w
    return np.where(upper, wc, w), np.where(upper, w, wc)


def _inverse_beta_odds(u, p, q):
    z, zc = _inverse_beta_pair(u, p, q)
    with np.errstate(divide="ignore"):  # zc underflows to 0 in a heavy upper tail
        return z / zc


def _sm_pair(u, p, q):
    t = np.log1p(-u) / q  # (1 - u)^(1/q) = exp(t)
    return -np.expm1(t), np.exp(t)


def _dagum_pair(u, p, q):
    t = np.log(u) / p  # u^(1/p) = exp(t)
    return np.exp(t), -np.expm1(t)


@dataclass(frozen=True)
class _Family:
    """One row of the family table.  For the GB2-nested families ``to_gb2``
    maps the shapes (``shapes_of`` order) to GB2 (a, p, q), ``z`` is the pair
    z(u) = I_u^-1(p, q) and 1 - z, each with its own digits, and ``odds`` is
    z / (1 - z), in a form that keeps the upper tail where 1 - z is 0."""

    n_params: int
    scale_index: int
    to_gb2: Optional[Callable] = None
    z: Optional[Callable] = None
    odds: Optional[Callable] = None


_TABLE = {
    "gb2": _Family(4, 1, lambda a, p, q: (a, p, q), _inverse_beta_pair, _inverse_beta_odds),
    "b2": _Family(3, 0, lambda p, q: (1.0, p, q), _inverse_beta_pair, _inverse_beta_odds),
    "sm": _Family(  # p = 1: I_z(1, q) = 1 - (1 - z)^q
        3, 1, lambda a, q: (a, 1.0, q), _sm_pair,
        lambda u, p, q: np.expm1(-np.log1p(-u) / q),
    ),
    "dagum": _Family(  # q = 1: I_z(p, 1) = z^p
        3, 1, lambda a, p: (a, p, 1.0), _dagum_pair,
        lambda u, p, q: 1.0 / np.expm1(-np.log(u) / p),
    ),
    "lognormal": _Family(2, 0),
    "fisk": _Family(  # p = q = 1: I_z(1, 1) = z
        2, 1, lambda a: (a, 1.0, 1.0),
        lambda u, p, q: (u, 1.0 - u),
        lambda u, p, q: u / (1.0 - u),
    ),
    "weibull": _Family(2, 1),
}

FAMILIES = tuple(_TABLE)


@dataclass(frozen=True)
class FamilySpec:
    """A distribution family tag plus its parameter vector."""

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        params = tuple(float(v) for v in self.params)
        n = _TABLE[self.family].n_params
        if len(params) != n:
            raise DomainError(f"{self.family} takes {n} parameters, got {len(params)}")
        for i, v in enumerate(params):
            if self.family == "lognormal" and i == 0:
                continue  # mu may be any real
            if v <= 0.0 or not math.isfinite(v):
                raise DomainError(
                    f"{self.family} parameter {i} must be positive and finite, got {v}"
                )
        object.__setattr__(self, "params", params)


def _gb2(spec):
    """GB2 parameters (a, b, p, q) of a nested spec, else None."""
    row, par = _TABLE[spec.family], spec.params
    if row.to_gb2 is None:
        return None
    a, p, q = row.to_gb2(*par[:row.scale_index], *par[row.scale_index + 1:])
    return a, par[row.scale_index], p, q


@dataclass(frozen=True)
class GiniValue:
    """A Gini index together with how it was computed."""

    value: float
    method: str  # closed_form | quadrature

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise DomainError(f"Gini value {self.value} outside [0, 1]")


def n_shape_params(family):
    """Number of shape parameters estimated from shares."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    return _TABLE[family].n_params - 1


def shapes_of(spec):
    """Shape parameters of a spec, scale removed.

    Orderings: gb2 (a, p, q); b2 (p, q); sm (a, q); dagum (a, p);
    lognormal (sigma,); fisk (a,); weibull (a,).
    """
    i = _TABLE[spec.family].scale_index
    return np.array([v for j, v in enumerate(spec.params) if j != i])


def spec_from_shapes(family, shapes, scale=1.0):
    """Build a FamilySpec from shape parameters plus a scale."""
    shapes = [float(v) for v in np.atleast_1d(shapes)]
    if len(shapes) != n_shape_params(family):
        raise DomainError(
            f"{family} has {n_shape_params(family)} shape parameters, "
            f"got {len(shapes)}"
        )
    params = list(shapes)
    params.insert(_TABLE[family].scale_index, float(scale))
    return FamilySpec(family, tuple(params))


def _margin(family, shapes, k=1.0):
    """The signed distance to the boundary where E[X^k] stops existing, for
    any real k, from shapes in the ``shapes_of`` order, floats or columns;
    its sign is the existence (GB2: -ap < k < aq; Weibull: k > -a)."""
    row = _TABLE[family]
    if row.to_gb2 is not None:
        a, p, q = row.to_gb2(*shapes)
        c = k / a
        return np.minimum(q - c, p + c)
    if family == "weibull":
        return shapes[0] + k
    return np.full_like(shapes[0], np.inf, dtype=float)  # lognormal


def moment_exists(spec, k):
    """Whether E[X^k] is finite, for any real k."""
    i = _TABLE[spec.family].scale_index
    return bool(_margin(spec.family, spec.params[:i] + spec.params[i + 1:], k) > 0.0)


def _require_moment(spec, k, what):
    """Raise ExistenceError, naming ``what``, unless E[X^k] is finite."""
    if not moment_exists(spec, k):
        raise ExistenceError(f"{what} does not exist for {spec.family}{spec.params}")


def cdf(spec, x):
    """Cumulative distribution function."""
    return _moment_cdf(spec, 0.0, x)


def quantile(spec, u):
    """Quantile function for u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise DomainError("quantile requires 0 < u < 1")
    g = _gb2(spec)
    if g is not None:
        a, b, p, q = g
        out = b * _TABLE[spec.family].odds(u, p, q) ** (1.0 / a)
    elif spec.family == "lognormal":
        mu, sigma = spec.params
        out = np.exp(mu + sigma * special.ndtri(u))
    else:  # weibull
        a, b = spec.params
        out = b * (-np.log1p(-u)) ** (1.0 / a)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def sample(spec, n, seed=0):
    """``n`` draws, deterministic given the seed: gb2 and b2 (z has no closed
    form) as the beta-prime ratio b (G_p / G_q)^(1/a) of two standard gamma
    variates (McDonald 1984), the rest by the inverse transform."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    rng = np.random.default_rng(seed)
    if _TABLE[spec.family].z is _inverse_beta_pair:
        a, b, p, q = _gb2(spec)
        return b * (rng.standard_gamma(p, n) / rng.standard_gamma(q, n)) ** (1.0 / a)
    u = rng.random(n)
    np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16, out=u)
    return quantile(spec, u)


def _shape_columns(shapes, ndim=0):
    """The columns of shape rows (m, k), each as (m,) followed by ``ndim``
    unit axes, so that it broadcasts against an ``ndim``-dimensional u: the
    items of one (k, m, 1, ...) view."""
    shapes = np.asarray(shapes, dtype=float)
    return shapes.T.reshape(shapes.shape[::-1] + (1,) * ndim)


def _lorenz_columns(family, cols, u):
    """Lorenz curves of a stack of shape rows, given as their columns
    ``_shape_columns(shapes, u.ndim)``.

    ``shapes`` is (m, k) in the ``shapes_of`` order and ``u`` any array in
    [0, 1]; returns an array of shape (m,) + u.shape.  Nothing is checked:
    the callers check u and keep rows with a positive existence margin, and
    hold ``np.errstate(divide="ignore")`` when u may be 0 or 1.
    """
    row = _TABLE[family]
    if row.to_gb2 is not None:
        a, p, q = row.to_gb2(*cols)
        if row.z is _inverse_beta_pair and len(p) > 1:
            # a row whose (p, q) repeats the row before it (the a-difference
            # of a gb2 stencil) takes that row's z
            new = np.ones(len(p), bool)
            new[1:] = ((p[1:] != p[:-1]) | (q[1:] != q[:-1])).ravel()
            take = new.cumsum() - 1
            z, zc = (v[take] for v in _inverse_beta_pair(u, p[new], q[new]))
        else:
            z, zc = row.z(u, p, q)
        c = 1.0 / a
        return _beta_cdf(z, zc, p + c, q - c)
    if family == "lognormal":  # ndtri(0) = -inf and ndtri(1) = inf give L = 0 and 1
        (sigma,) = cols
        return special.ndtr(special.ndtri(u) - sigma)
    (a,) = cols  # weibull
    return special.gammainc(1.0 + 1.0 / a, -np.log1p(-u))


def lorenz(spec, u):
    """Lorenz curve L(u) on [0, 1]; scale-free."""
    _require_moment(spec, 1.0, "Lorenz curve")
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)):
        raise DomainError("lorenz requires 0 <= u <= 1")
    # log 0 at u = 0 or 1 gives z = 0 or 1 (GB2 family), and log1p(-1) = -inf gives L(1) = 1 (Weibull)
    with np.errstate(divide="ignore"):
        out = np.asarray(_lorenz_columns(spec.family, _shape_columns(shapes_of(spec)[None], u.ndim), u)[0])
    return float(out) if out.ndim == 0 else out


def log_power_mean(spec, k):
    """log (E[X^k])^(1/k) at unit scale, for any real k with E[X^k] finite.

    The limit k = 0 is E[log X].  Callers check ``moment_exists``.
    """
    g = _gb2(spec)
    if g is not None:
        # log of the beta ratio B(p + k/a, q - k/a) / B(p, q); the log
        # gamma of p + q cancels, which keeps the difference accurate
        a, _, p, q = g
        if k == 0.0:
            return float(special.digamma(p) - special.digamma(q)) / a
        return float(
            special.gammaln(p + k / a) - special.gammaln(p)
            + special.gammaln(q - k / a) - special.gammaln(q)
        ) / k
    if spec.family == "lognormal":  # E[X^k] = exp(k^2 sigma^2 / 2)
        return k * spec.params[1] ** 2 / 2.0
    a = spec.params[0]  # weibull: E[X^k] = Gamma(1 + k/a)
    if k == 0.0:
        return float(special.digamma(1.0)) / a
    return float(special.gammaln(1.0 + k / a)) / k


def moment(spec, k):
    """k-th raw moment E[X^k] for k > 0."""
    if k <= 0.0:
        raise DomainError("moment requires k > 0")
    _require_moment(spec, k, f"moment of order {k}")
    scale = spec.params[_TABLE[spec.family].scale_index]
    log_scale = scale if spec.family == "lognormal" else math.log(scale)
    return math.exp(k * (log_scale + log_power_mean(spec, k)))


def incomplete_moment_cdf(spec, k, x):
    """Normalized k-th incomplete moment F_(k)(x) = int_0^x t^k dF / E[X^k].

    Composing the k = 1 case with the quantile reproduces the Lorenz curve.
    """
    if k <= 0.0:
        raise DomainError("incomplete_moment_cdf requires k > 0")
    _require_moment(spec, k, f"incomplete moment of order {k}")
    return _moment_cdf(spec, k, x)


def _moment_cdf(spec, k, x):
    """F_(k)(x), the cdf at k = 0: the cdf of the same family with shapes
    shifted by k (GB2 p + k/a, q - k/a; lognormal mu + k sigma^2; Weibull
    a generalized gamma of shape 1 + k/a).  Callers check existence."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("cdf requires x >= 0")
    g = _gb2(spec)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if g is not None:
            a, b, p, q = g
            xa = (x / b) ** a
            out = _beta_cdf(xa / (1.0 + xa), 1.0 / (1.0 + xa), p + k / a, q - k / a)
        elif spec.family == "lognormal":
            mu, sigma = spec.params
            out = special.ndtr((np.log(x) - (mu + k * sigma**2)) / sigma)  # 0 at x = 0
        else:  # weibull
            a, b = spec.params
            out = special.gammainc(1.0 + k / a, (x / b) ** a)
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def _beta_cdf(z, zc, p, q):
    """I_z(p, q) from z and zc = 1 - z, each with its own digits, in one
    betainc call: 1 - I_zc(q, p) where z > 1/2 and the Beta(p, q) density,
    which scales the argument's rounding, exceeds 1 (zc has the smaller
    ulp); elsewhere I_z(p, q), whose relative digits the complement loses."""
    ln_density = special.xlogy(p - 1.0, z) + special.xlogy(q - 1.0, zc) - special.betaln(p, q)
    upper = (z > 0.5) & (ln_density > 0.0)
    if not np.count_nonzero(upper):  # I_z(p, q) everywhere: the arguments as they are
        return special.betainc(p, q, z)
    i = special.betainc(np.where(upper, q, p), np.where(upper, p, q), np.where(upper, zc, z))
    return np.where(upper, 1.0 - i, i)


# The closed-form Ginis of b2 (p, q), sm (a, q) and dagum (a, p), from the
# two shapes in the ``shapes_of`` order; ``gini_closed`` clips them to
# [0, 1] and keeps the shapes inside the existence region.  Each ln Gamma is
# Stirling's formula plus ``_ln_gamma_rest``; the terms (x - 1/2) ln x, of
# size p or q, are folded into log1p of the ratios of the arguments, so that
# nothing of that size cancels.
def _b2_gini(p, q):  # 2 B(2p, 2q - 1) / (p B(p, q)^2)
    r = _ln_gamma_rest
    return 2.0 / p * math.exp(
        0.5 * math.log(p * q / (p + q) / (4.0 * math.pi)) + math.log1p(2.0 * p / (2.0 * q - 1.0))
        + r(2.0 * p) - 2.0 * r(p) + r(2.0 * q) - 2.0 * r(q) - r(2.0 * (p + q)) + 2.0 * r(p + q))


def _sm_gini(a, q):  # 1 - Gamma(q) Gamma(2q - c) / (Gamma(q - c) Gamma(2q)), c = 1/a
    r = _ln_gamma_rest
    c = 1.0 / a
    m = q - c
    return -math.expm1(
        -c * math.log(2.0) + (m - 0.5) * math.log1p(c / m)
        + (2.0 * q - c - 0.5) * math.log1p(-c / (2.0 * q))
        + r(q) - r(m) + r(2.0 * q - c) - r(2.0 * q))


def _dagum_gini(a, p):  # Gamma(p) Gamma(2p + c) / (Gamma(2p) Gamma(p + c)) - 1, c = 1/a
    r = _ln_gamma_rest
    c = 1.0 / a
    return math.expm1(
        c * math.log(2.0) + (2.0 * p + c - 0.5) * math.log1p(c / (2.0 * p))
        - (p + c - 0.5) * math.log1p(c / p)
        + r(2.0 * p + c) - r(2.0 * p) - r(p + c) + r(p))


_NESTED_GINI = {"b2": _b2_gini, "sm": _sm_gini, "dagum": _dagum_gini}


def gini_closed(spec):
    """Exact Gini index: closed forms, and one quadrature for the GB2.

    The nested families keep their own closed forms, which are cheaper than
    the quadrature.
    """
    _require_moment(spec, 1.0, "Gini")
    fam, par = spec.family, spec.params
    if fam == "gb2":
        a, _, p, q = par
        g = _gb2_gini(a, p, q)
    elif fam in ("b2", "sm", "dagum"):
        g = _NESTED_GINI[fam](*map(float, shapes_of(spec)))
    elif fam == "lognormal":
        g = 2.0 * float(special.ndtr(par[1] / math.sqrt(2.0))) - 1.0
    elif fam == "fisk":
        g = 1.0 / par[0]
    else:  # weibull; finite for every a > 0 despite the usual a > 1 statement
        g = 1.0 - 2.0 ** (-1.0 / par[0])
    return GiniValue(min(max(g, 0.0), 1.0), "quadrature" if fam == "gb2" else "closed_form")


# The GB2 Gini quadrature: an endpoint power up to _JACOBI_POWER goes into
# the weight of a Gauss-Jacobi rule, and each rule has _NODES nodes.  The
# logit window ends where the tail probability of Z or of Beta(p, q) beyond
# it is _WINDOW_TAIL.
_JACOBI_POWER = 20.0
_NODES = 60
_LEGENDRE = special.roots_legendre(_NODES)
_WINDOW_TAIL = 1e-18
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _ln_gamma_rest(x):
    """ln Gamma(x) less its Stirling terms (x - 1/2) ln x - x + ln(2 pi) / 2."""
    if x < 20.0:
        return float(special.gammaln(x)) - (x - 0.5) * math.log(x) + x - _HALF_LN_2PI
    y = 1.0 / (x * x)
    return (1 / 12 + y * (-1 / 360 + y * (1 / 1260 + y * (-1 / 1680 + y / 1188)))) / x


def _ln_mode_density(p, q):
    """ln of the density of logit Z, Z ~ Beta(p, q), at its mode ln(p/q):
    p ln(p/(p+q)) + q ln(q/(p+q)) - ln B(p, q).  Written out with Stirling's
    formula its terms of size p and q cancel; summing gammaln leaves an
    error of 1e-11 near p, q = 1e4 (scipy's betaln does the same)."""
    return (0.5 * math.log(p * q / (p + q)) - _HALF_LN_2PI
            - _ln_gamma_rest(p) - _ln_gamma_rest(q) + _ln_gamma_rest(p + q))


def _jacobi(beta, end, smooth, ln_scale):
    """exp(-ln_scale) * int_0^end x^beta smooth(x) dx by Gauss-Jacobi.

    The rule for the weight (1 + y)^beta on [-1, 1] comes from the
    eigenvectors of its Jacobi matrix (Golub & Welsch 1969): scipy's
    ``roots_jacobi`` is off by up to 3e-8 near beta = -1 at 60 nodes.
    """
    k = np.arange(1.0, _NODES)
    s = 2.0 * k + beta
    diag = np.append(beta / (beta + 2.0), beta**2 / (s * (s + 2.0)))
    y, v = linalg.eigh_tridiagonal(diag, 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0)))
    log_mass = (beta + 1.0) * math.log(end) - math.log(beta + 1.0) - ln_scale
    return math.exp(log_mass) * (v[0] ** 2 @ smooth(end * (1.0 + y) / 2.0))


def _logit(z):
    return math.log(z) - math.log1p(-z)


def _gb2_gini(a, p, q):
    """Gini of a GB2 with shapes (a, p, q), q > 1/a, as 1 - 2K.

    K = E[1 - I_Z(p, q)] with Z ~ Beta(P, Q), P = p + 1/a, Q = q - 1/a: the
    law of z = y / (1 + y), y = (x / b)^a, under the size-biased density
    x f(x) / E[X].  Near z = 0 the integrand is z^(P-1) (1 - z^p h(z)) and
    near z = 1 it is (1 - z)^(q+Q-1) g(z), with h and g smooth.  When such
    an exponent is small, a Gauss-Jacobi rule takes its power into the
    weight on [0, zl] or [1 - xr, 1]; a larger one leaves a thin tail that
    the window takes.  The window is a Gauss-Legendre rule in t = logit z,
    where the integrand is log-concave.  When both exponents are small,
    zl = xr = 1/2 and the window is empty.
    """
    P, Q = p + 1.0 / a, q - 1.0 / a
    ln_mode = _ln_mode_density(P, Q)
    ln_b = -P * math.log1p(Q / P) - Q * math.log1p(P / Q) - ln_mode
    k = 0.0
    if P <= _JACOBI_POWER:
        zl = min(0.5, _JACOBI_POWER / q)
        lo = _logit(zl)
        k += special.betainc(P, Q, zl) - _jacobi(
            p + P - 1.0, zl,
            lambda z: special.betainc(p, q, z) / z**p * (1.0 - z) ** (Q - 1.0), ln_b)
    else:
        lo = _logit(special.betaincinv(P, Q, _WINDOW_TAIL))
    if q + Q <= _JACOBI_POWER:
        xr = min(0.5, _JACOBI_POWER / P)
        hi = -_logit(xr)
        k += _jacobi(
            q + Q - 1.0, xr,
            lambda x: special.betainc(q, p, x) / x**q * (1.0 - x) ** (P - 1.0), ln_b)
    else:
        hi = -_logit(max(special.betaincinv(q, p, _WINDOW_TAIL),
                         special.betaincinv(Q, P, _WINDOW_TAIL)))
    if hi > lo:
        x, w = _LEGENDRE
        t = lo + (hi - lo) * (1.0 + x) / 2.0
        survival = _beta_cdf(special.expit(-t), special.expit(t), q, p)  # I_(1-z)(q, p)
        # about the mode, where the terms P ln z and Q ln(1 - z) cancel
        dt = t - math.log(P / Q)
        density = np.exp(ln_mode - P * np.log1p(Q / (P + Q) * np.expm1(-dt))
                         - Q * np.log1p(P / (P + Q) * np.expm1(dt)))
        k += (hi - lo) / 2.0 * (w @ (survival * density))
    return 1.0 - 2.0 * k
