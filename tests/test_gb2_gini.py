"""The GB2 Gini quadrature against a 30-digit mpmath oracle.

The oracle writes G = 1 - 2K with K = E[I_(1-z)(q, p)] under the
size-biased law Beta(p + 1/a, q - 1/a) of z.  It integrates the half
z in [0, 1/2] in z and the half z in [1/2, 1] in t = 1 - z, each between
log-spaced breakpoints (down to 1e-20) and breakpoints around the two
bulks, and through u = x^e where the endpoint power e is below 1.  Its incomplete beta sums the positive-term series of
2F1(a + b, 1; a + 1; x), on the side of the mean where it converges fast;
mpmath's own betainc raises at p = q = 1e4.

The values are precomputed: ``PYTHONPATH=src python tests/test_gb2_gini.py``
recomputes every one and prints the table.
"""

import math

import numpy as np
import pytest

from gb2fit import distributions as d
from gb2fit.distributions import FamilySpec

mp = pytest.importorskip("mpmath")


def _inc_beta(a, b, x):
    """I_x(a, b), exact to the working precision."""
    if x <= 0:
        return mp.mpf(0)
    if x > a / (a + b):
        return 1 - _inc_beta(b, a, 1 - x)
    log_pref = a * mp.log(x) + b * mp.log1p(-x) - mp.log(a) - mp.log(mp.beta(a, b))
    return mp.exp(log_pref) * mp.hyp2f1(a + b, 1, a + 1, x)


def _half(e, smooth, bulks, mass):
    """int_0^(1/2) x^(e - 1) smooth(x) dx; a piece whose bound ``mass`` is
    below 1e-40 is left out."""
    xs = {mp.mpf(0), mp.mpf(1) / 2}
    xs |= {mp.mpf(10) ** (-mp.mpf(j) / 4) for j in range(2, 80)}
    for m, s in bulks:
        xs |= {x for x in (m + j * s / 2 for j in range(-30, 31)) if 0 < x < mp.mpf(1) / 2}
    xs = sorted(xs)
    total = mp.mpf(0)
    for x0, x1 in zip(xs[:-1], xs[1:]):
        if mass(x0, x1) < mp.mpf(10) ** -40:
            continue
        if e >= 1:  # tanh-sinh only on the piece at the endpoint
            total += mp.quad(lambda x: x ** (e - 1) * smooth(x), [x0, x1],
                             method="gauss-legendre" if x0 > 0 else "tanh-sinh")
        else:
            total += mp.quad(lambda u: smooth(u ** (1 / e)), [x0**e, x1**e]) / e
    return total


def oracle_gini(a, p, q):
    """Gini of gb2(a, 1, p, q) to 30 digits."""
    with mp.workdps(30):
        a, p, q = mp.mpf(a), mp.mpf(p), mp.mpf(q)
        P, Q = p + 1 / a, q - 1 / a
        B = mp.beta(P, Q)

        def bulk(u, v):  # mean and standard deviation of Beta(u, v)
            return u / (u + v), mp.sqrt(u * v / ((u + v) ** 2 * (u + v + 1)))

        def left(z):  # 1 - I_z(p, q) times the density less z^(P - 1)
            return (1 - _inc_beta(p, q, z)) * (1 - z) ** (Q - 1) / B

        def right(t):  # I_t(q, p) times the density less t^(q + Q - 1), t = 1 - z
            return _inc_beta(q, p, t) / t**q * (1 - t) ** (P - 1) / B

        # the integrands are below the densities of Beta(P, Q) and Beta(Q, P)
        k_left = _half(P, left, (bulk(P, Q), bulk(p + P, q + Q)),
                       lambda x0, x1: _inc_beta(P, Q, x1) - _inc_beta(P, Q, x0))
        k_right = _half(q + Q, right, (bulk(Q, P), bulk(q + Q, p + P)),
                        lambda x0, x1: _inc_beta(Q, P, x1) - _inc_beta(Q, P, x0))
        return 1 - 2 * (k_left + k_right)


# (a, p, q) and the oracle's Gini.  In order: the three shapes where the
# old 3F2 series was silently off by up to 3.8e-5; two where the Gini of
# perfbench's oracle is wrong; the ten GB2 specs of the measures-grid
# workload (margins q - 1/a from 1 to 0.005); the GB2 fits of the six
# presets of presets-both, each with p or q on the 1e4 bound; margins from
# 1e-2 down to 1e-4, two of them at corners of the fit box; p, q up to 1e4
# with small a; and three more, the last with a Gini of 0.004, where a
# relative error is 250 times the absolute one.
ORACLE = [
    (0.3027, 23.39, 3.341, 0.9966628182647063),
    (5.0, 200.0, 0.3, 0.5159610319540474),
    (0.5, 100.0, 2.05, 0.9814598748614214),
    (2.0, 30.0, 0.51, 0.966228285125955),
    (50.0, 0.02, 0.5, 0.3350038279381981),
    (3.0, 0.8, 1.3333333333333333, 0.3137379059035057),
    (5.0, 0.5, 1.2, 0.24214171674480095),
    (3.0, 0.8, 0.6333333333333333, 0.46563721166841743),
    (5.0, 0.5, 0.5, 0.34853340234824753),
    (3.0, 0.8, 0.43333333333333335, 0.6805211408531123),
    (5.0, 0.5, 0.30000000000000004, 0.5525431192710432),
    (3.0, 0.8, 0.3633333333333333, 0.8684489650799979),
    (5.0, 0.5, 0.23, 0.7902361500370904),
    (3.0, 0.8, 0.3383333333333333, 0.9747559053448672),
    (5.0, 0.5, 0.20500000000000002, 0.9564306908237229),
    (0.06845003081563425, 10000.00000000001, 178.20098020324576, 0.5751370012089033),
    (0.13278464554154998, 10000.00000000001, 51.18563181975544, 0.5639993720972449),
    (0.054125594512930295, 286.67327292034025, 10000.00000000001, 0.559418228319688),
    (0.6103835778097412, 2.760116800743511, 10000.00000000001, 0.48635712975717044),
    (0.873434228143854, 1.3356745963760972, 10000.00000000001, 0.4920911463493459),
    (0.7801595513628419, 1.4911701328335984, 10000.00000000001, 0.511689386743762),
    (2.0, 1.0, 0.5001, 0.9996859713368202),
    (0.5, 3.0, 2.0001, 0.999973096912251),
    (10.0, 0.5, 0.10010000000000001, 0.9980557319146444),
    (2.0, 1.0, 0.501, 0.9968714200676583),
    (0.5, 3.0, 2.001, 0.9997311197001195),
    (10.0, 0.5, 0.101, 0.9809039789710222),
    (2.0, 1.0, 0.51, 0.9698396664589838),
    (0.5, 3.0, 2.01, 0.9973261599269984),
    (10.0, 0.5, 0.11, 0.8379793327437869),
    (1.0, 10000.0, 1.0001, 0.9998614016163435),
    (10000.0, 0.0001, 0.0002, 0.4814814912271019),
    (0.5, 10000.0, 3.0, 0.7500374943758437),
    (0.5, 2.5, 10000.0, 0.5821251207626232),
    (0.3, 10000.0, 10000.0, 0.02659183723206293),
    (1.0, 10000.0, 50.0, 0.08058988673947087),
    (6.0, 0.2, 8.0, 0.3159917481392987),
    (1.0, 50.0, 60.0, 0.10807357664777038),
    (80.0, 10.3, 5.35, 0.0038954290324632874),
]


@pytest.mark.parametrize("a, p, q, gini", ORACLE)
def test_quadrature_matches_oracle(a, p, q, gini):
    g = d.gini_closed(FamilySpec("gb2", (a, 1.0, p, q)))
    assert g.method == "quadrature"
    assert abs(g.value - gini) <= 1e-10 * gini


def test_oracle_reproduces_table():
    for a, p, q, gini in (ORACLE[4], ORACLE[14]):
        assert abs(float(oracle_gini(a, p, q)) - gini) <= 1e-16 * gini


def test_fit_box_gives_finite_ginis():
    # log-uniform a and p in [1e-4, 1e4], margin q - 1/a in [1e-4, 1e4]
    rng = np.random.default_rng(7)
    n = 0
    for la, lp, lm in rng.uniform(-4.0, 4.0, size=(400, 3)):
        a, p = 10.0**la, 10.0**lp
        q = 1.0 / a + 10.0**lm
        if q > 1e4:
            continue
        g = d.gini_closed(FamilySpec("gb2", (a, 1.0, p, q)))
        assert g.method == "quadrature" and math.isfinite(g.value), (a, p, q)
        n += 1
    assert n > 250


def _legendre_rule(n):
    """The n-node Gauss-Legendre rule to 30 digits, its weights halved to
    sum to 1: each node is Newton-polished from Tricomi's guess, and its
    weight is 2 / ((1 - x^2) P_n'(x)^2)."""
    nodes, weights = [], []
    with mp.workdps(30):
        for i in range(n, 0, -1):
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(8):
                p0, p1 = mp.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)  # P_n' from P_n and P_(n-1)
                x -= p1 / dp
            nodes.append(x)
            weights.append(1 / ((1 - x * x) * dp * dp))
    return nodes, weights


def test_legendre_rule_against_mpmath():
    y, w = d._gauss_rule(0.0)
    nodes, weights = _legendre_rule(d._NODES)
    assert max(abs(mp.mpf(got) - want) for got, want in zip(y, nodes)) <= 1e-15
    assert max(abs(mp.mpf(got) / want - 1) for got, want in zip(w, weights)) <= 1e-13


@pytest.mark.parametrize("beta", [-0.99, -0.9, 0.5, 7.3, 39.0])
def test_jacobi_rule_is_exact_on_polynomials(beta):
    # sum_i w_i (1 + y_i)^j = 2^j (beta + 1) / (beta + j + 1) for j < 2 _NODES
    y, w = d._gauss_rule(beta)
    j = np.arange(2 * d._NODES)
    got = np.array([w @ (1.0 + y) ** k for k in j])
    np.testing.assert_allclose(got, 2.0**j * (beta + 1.0) / (beta + j + 1.0), rtol=1e-12, atol=0.0)


if __name__ == "__main__":
    for a, p, q, _ in ORACLE:
        print(f"    ({a!r}, {p!r}, {q!r}, {float(oracle_gini(a, p, q))!r}),", flush=True)
