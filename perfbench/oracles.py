"""Reference values computed with mpmath, independently of gb2fit.

Nothing here imports the package under test.  Distributions are given as
``(family, params)`` with the parameter orderings of the package
(gb2 (a, b, p, q), b2 (b, p, q), sm (a, b, q), dagum (a, b, p),
lognormal (mu, sigma), fisk (a, b), weibull (a, b)).
"""

import json
import os

import mpmath as mp

DPS = 25


def _gb2_shapes(family, params):
    """(a, b, p, q) of a GB2-nested family, or None."""
    if family == "gb2":
        return tuple(params)
    if family == "b2":
        b, p, q = params
        return 1, b, p, q
    if family == "sm":
        a, b, q = params
        return a, b, 1, q
    if family == "dagum":
        a, b, p = params
        return a, b, p, 1
    if family == "fisk":
        a, b = params
        return a, b, 1, 1
    return None


def _hyp3f2_unit(a1, a2, a3, b1, b2):
    """3F2(a1, a2, a3; b1, b2; 1) through Thomae's relation.

    Putting the largest numerator parameter first turns the convergence
    margin s = b1 + b2 - a1 - a2 - a3 (which vanishes at the Gini's
    existence boundary) into that parameter, so mpmath converges there too.
    """
    a1, a2, a3 = sorted((a1, a2, a3), reverse=True)
    s = b1 + b2 - a1 - a2 - a3
    pref = mp.gamma(b1) * mp.gamma(b2) * mp.gamma(s) / (
        mp.gamma(a1) * mp.gamma(s + a2) * mp.gamma(s + a3)
    )
    return pref * mp.hyp3f2(b1 - a1, b2 - a1, s, s + a2, s + a3, 1)


# below this margin q - 1/a the GB2 Gini comes from the 3F2 series, above
# it from quadrature: tanh-sinh loses digits as the size-biased density's
# endpoint singularity approaches order -1, and mpmath's 3F2 summation
# loses them when a Thomae parameter 1 - q is large and negative
SERIES_MARGIN = 0.2


def _gb2_gini_series(a, p, q):
    """McDonald (1984): two 3F2(1) sums."""
    B = mp.beta
    j1 = _hyp3f2_unit(1, p + q, 2 * p + 1 / a, p + 1, 2 * (p + q))
    j2 = _hyp3f2_unit(1, p + q, 2 * p + 1 / a, p + 1 / a + 1, 2 * (p + q))
    pref = B(2 * q - 1 / a, 2 * p + 1 / a) / (B(p, q) * B(p + 1 / a, q - 1 / a))
    return pref * (j1 / p - j2 / (p + 1 / a))


def _gb2_gini_quad(a, p, q):
    """G = 2 E[X F(X)] / E[X] - 1 = 1 - 2 E'[1 - I_z(p, q)], with z under the
    size-biased law Beta(p + 1/a, q - 1/a), by quadrature."""
    P, Q = p + 1 / a, q - 1 / a
    norm = mp.beta(P, Q)

    def f(z):
        tail = mp.betainc(p, q, z, 1, regularized=True)
        return tail * mp.power(z, P - 1) * mp.power(1 - z, Q - 1) / norm

    # split around the mean, where a large q concentrates the law near 0
    m = P / (P + Q)
    pts = sorted({mp.mpf(0), mp.mpf(1) / 2, mp.mpf(1)}
                 | {x for x in (m / 10, m, 10 * m, 100 * m) if x < 0.5})
    return 1 - 2 * mp.quad(f, pts)


def gini(family, params):
    """Gini index to about DPS digits.

    The one-shape-family and nested-family closed forms are those of
    Kleiber & Kotz (2003); the GB2 takes the series or the quadrature.
    """
    with mp.workdps(DPS):
        G = mp.gamma
        if family == "lognormal":
            return float(mp.erf(mp.mpf(params[1]) / 2))
        if family == "weibull":
            return float(1 - mp.power(2, -1 / mp.mpf(params[0])))
        if family == "fisk":
            return float(1 / mp.mpf(params[0]))
        if family == "b2":
            _, p, q = (mp.mpf(v) for v in params)
            return float(2 * mp.beta(2 * p, 2 * q - 1) / (p * mp.beta(p, q) ** 2))
        if family == "sm":
            a, _, q = (mp.mpf(v) for v in params)
            return float(1 - G(q) * G(2 * q - 1 / a) / (G(q - 1 / a) * G(2 * q)))
        if family == "dagum":
            a, _, p = (mp.mpf(v) for v in params)
            return float(G(p) * G(2 * p + 1 / a) / (G(2 * p) * G(p + 1 / a)) - 1)
        a, _, p, q = (mp.mpf(v) for v in params)
        if q - 1 / a < SERIES_MARGIN:
            return float(_gb2_gini_series(a, p, q))
        return float(_gb2_gini_quad(a, p, q))


def _expect(family, params, g):
    """E[g(X)] by tanh-sinh quadrature of the density.

    GB2-nested members integrate in beta space, z = y / (1 + y) with
    y = (x / b)^a, where z ~ Beta(p, q) and the tails become algebraic
    endpoint singularities; lognormal integrates over the normal density
    and weibull over the unit exponential.
    """
    if family == "lognormal":
        mu, sigma = (mp.mpf(v) for v in params)
        f = lambda t: g(mp.exp(mu + sigma * t)) * mp.npdf(t)
        return mp.quad(f, [-mp.inf, -3, 0, 3, mp.inf])
    if family == "weibull":
        a, b = (mp.mpf(v) for v in params)
        f = lambda t: g(b * mp.power(t, 1 / a)) * mp.exp(-t)
        return mp.quad(f, [0, 1, mp.inf])
    a, b, p, q = (mp.mpf(v) for v in _gb2_shapes(family, params))
    norm = mp.beta(p, q)

    def f(z):
        x = b * mp.power(z / (1 - z), 1 / a)
        return g(x) * mp.power(z, p - 1) * mp.power(1 - z, q - 1) / norm

    return mp.quad(f, [0, mp.mpf(1) / 2, 1])


def _mean(family, params):
    """E[X] from the closed-form moment; the quadrature of x f(x) loses
    digits where the mean barely exists."""
    if family == "lognormal":
        mu, sigma = (mp.mpf(v) for v in params)
        return mp.exp(mu + sigma**2 / 2)
    if family == "weibull":
        a, b = (mp.mpf(v) for v in params)
        return b * mp.gamma(1 + 1 / a)
    a, b, p, q = (mp.mpf(v) for v in _gb2_shapes(family, params))
    return b * mp.beta(p + 1 / a, q - 1 / a) / mp.beta(p, q)


def atkinson(family, params, eps):
    """Atkinson index A_eps = 1 - (E[X^(1-eps)])^(1/(1-eps)) / E[X]."""
    with mp.workdps(DPS):
        eps = mp.mpf(eps)
        mu = _mean(family, params)
        if eps == 1:
            ede = mp.exp(_expect(family, params, mp.log))
        else:
            k = 1 - eps
            ede = mp.power(_expect(family, params, lambda x: mp.power(x, k)), 1 / k)
        return float(1 - ede / mu)


def lognormal_atkinson(sigma, eps):
    """Closed form 1 - exp(-eps sigma^2 / 2), the cross-check of atkinson()."""
    with mp.workdps(DPS):
        return float(1 - mp.exp(-mp.mpf(eps) * mp.mpf(sigma) ** 2 / 2))


class OracleCache:
    """Oracle values keyed by (kind, family, params, eps), kept in a JSON
    file so that fixed inputs (the grid, and the fits of the fixed
    samples) are computed once per checkout."""

    def __init__(self, path):
        self.path = path
        self.values = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.values = json.load(fh)
        self.dirty = False

    def get(self, kind, family, params, eps=None):
        key = json.dumps([kind, family, [repr(float(v)) for v in params], eps])
        if key not in self.values:
            if kind == "gini":
                self.values[key] = gini(family, params)
            else:
                self.values[key] = atkinson(family, params, eps)
            self.dirty = True
        return self.values[key]

    def save(self):
        if self.dirty:
            tmp = self.path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.values, fh, indent=0, sort_keys=True)
            os.replace(tmp, self.path)
            self.dirty = False
