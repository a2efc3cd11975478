"""Special-function tests against quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from gb2fit import distributions as d
from gb2fit.distributions import FamilySpec, _beta_cdf
from gb2fit.exceptions import DomainError
from gb2fit.specfun import inv_inc_beta_ratio


class TestIncBeta:
    """The incomplete beta ratio I_x(p, q) as the kernel computes it, from x
    and 1 - x."""

    def test_uniform_case(self):
        for x in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert _beta_cdf(x, 1.0 - x, 1.0, 1.0) == pytest.approx(x, abs=1e-12)

    def test_symmetry(self):
        assert _beta_cdf(0.5, 0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_quadrature_oracle(self):
        p, q, x = 3.0, 1.5, 0.25
        num, _ = quad(lambda t: t ** (p - 1) * (1 - t) ** (q - 1), 0.0, x)
        den, _ = quad(lambda t: t ** (p - 1) * (1 - t) ** (q - 1), 0.0, 1.0)
        assert _beta_cdf(x, 1.0 - x, p, q) == pytest.approx(num / den, abs=1e-9)

    def test_monotone_and_bounded(self):
        xs = np.linspace(0.0, 1.0, 201)
        for p, q in [(0.5, 0.5), (2.0, 5.0), (5.0, 0.5)]:
            vals = _beta_cdf(xs, 1.0 - xs, p, q)
            assert np.all(np.diff(vals) >= 0.0)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_broadcast_shapes(self):
        x = np.array([0.0, 0.3, 1.0])
        p, q = np.array([[0.5], [2.0]]), np.array([[3.0], [1.5]])
        got = _beta_cdf(x, 1.0 - x, p, q)
        assert got.shape == (2, 3)
        for i in range(2):
            assert got[i].tobytes() == _beta_cdf(x, 1.0 - x, float(p[i, 0]), float(q[i, 0])).tobytes()

    @pytest.mark.parametrize("upper", [False, True])
    def test_equals_the_swapped_form(self, upper):
        # I_z(p, q) swaps the arguments exactly where z > 1/2 and the density
        # exceeds 1, bit for bit, whether some entry or none does
        z = np.array([0.05, 0.3, 0.5, 0.7, 0.95]) if upper else np.array([0.05, 0.2, 0.4])
        p, q = np.array([[0.7], [2.0], [3.5]]), np.array([[1.3], [2.0], [1.2]])
        ln_density = special.xlogy(p - 1.0, z) + special.xlogy(q - 1.0, 1.0 - z) - special.betaln(p, q)
        swap = (z > 0.5) & (ln_density > 0.0)
        assert swap.any() == upper
        i = special.betainc(np.where(swap, q, p), np.where(swap, p, q), np.where(swap, 1.0 - z, z))
        assert np.array_equal(_beta_cdf(z, 1.0 - z, p, q), np.where(swap, 1.0 - i, i))

    @pytest.mark.parametrize("bad", ["y", "p", "q"])
    def test_broadcast_domain(self, bad):
        args = {"y": np.array([0.2, 0.7]), "p": np.array([[2.0], [1.0]]), "q": np.array([[1.5], [3.0]])}
        # one entry out of the domain
        args[bad] = np.array([0.2, 1.5]) if bad == "y" else np.array([[2.0], [0.0]])
        with pytest.raises(DomainError):
            inv_inc_beta_ratio(args["y"], args["p"], args["q"])


class TestInvIncBeta:
    def test_uniform_case(self):
        for y in (0.0, 0.3, 1.0):
            assert inv_inc_beta_ratio(y, 1.0, 1.0) == pytest.approx(y, abs=1e-12)

    def test_symmetry(self):
        assert inv_inc_beta_ratio(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_round_trip(self):
        ys = np.linspace(0.01, 0.99, 25)
        for p in (0.5, 1.0, 2.0, 5.0):
            for q in (0.5, 1.0, 2.0, 5.0):
                x = inv_inc_beta_ratio(ys, p, q)
                back = special.betainc(p, q, x)
                assert np.max(np.abs(back - ys)) < 1e-9

    def test_endpoints(self):
        assert inv_inc_beta_ratio(0.0, 2.0, 3.0) == 0.0
        assert inv_inc_beta_ratio(1.0, 2.0, 3.0) == 1.0

    @pytest.mark.parametrize("upper", [False, True])
    def test_pair_equals_the_swapped_form(self, upper):
        # z and 1 - z swap the arguments exactly where u > I_1/2(p, q), bit
        # for bit, whether some entry or none does
        u = np.array([0.05, 0.3, 0.6, 0.9]) if upper else np.array([0.01, 0.1, 0.2])
        p, q = np.array([[0.8], [2.0], [3.0]]), np.array([[1.5], [2.0], [2.5]])
        swap = u > special.betainc(p, q, 0.5)
        assert swap.any() == upper
        w = special.betaincinv(np.where(swap, q, p), np.where(swap, p, q), np.where(swap, 1.0 - u, u))
        z, zc = d._inverse_beta_pair(u, p, q)
        assert np.array_equal(z, np.where(swap, 1.0 - w, w)) and np.array_equal(zc, np.where(swap, w, 1.0 - w))



# weibull(1, 1) has cdf P(1, x) and k-th incomplete moment P(1 + k, x)
_EXP = FamilySpec("weibull", (1.0, 1.0))


class TestIncGamma:
    """The regularized incomplete gamma ratio P(nu, x), as the Weibull cdf
    and incomplete moments compute it."""

    def test_exponential_case(self):
        for x in (0.1, 1.0, 3.0):
            assert d.cdf(_EXP, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-12)

    def test_zero(self):
        assert d.incomplete_moment_cdf(_EXP, 1.5, 0.0) == 0.0

    def test_quadrature_oracle(self):
        x, nu = 2.0, 2.5
        num, _ = quad(lambda t: t ** (nu - 1) * math.exp(-t), 0.0, x)
        expected = num / math.gamma(nu)
        assert d.incomplete_moment_cdf(_EXP, nu - 1.0, x) == pytest.approx(expected, abs=1e-9)

    def test_monotone(self):
        xs = np.linspace(0.0, 20.0, 301)
        vals = d.incomplete_moment_cdf(_EXP, 2.3, xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


# lognormal(0, 1) has cdf Phi(log x) and quantile exp(Phi^-1(u))
_STD_LOG = FamilySpec("lognormal", (0.0, 1.0))


class TestNormal:
    """The standard normal cdf and quantile, as the lognormal computes them."""

    def test_cdf_zero(self):
        assert d.cdf(_STD_LOG, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_quantile_half(self):
        assert math.log(d.quantile(_STD_LOG, 0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_cdf_minus_one(self):
        # 1 - Phi(1) from the erf series
        expected = 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))
        got = d.cdf(_STD_LOG, math.exp(-1.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.158655, abs=1e-6)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            d.quantile(_STD_LOG, 0.0)
        with pytest.raises(DomainError):
            d.quantile(_STD_LOG, 1.0)
