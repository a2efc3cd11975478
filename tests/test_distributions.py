"""Distribution-family tests: Table-style formulas against quadrature and
reduction identities."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from gb2fit import distributions as d
from gb2fit.distributions import FamilySpec
from gb2fit.exceptions import DomainError, ExistenceError
from gb2fit.measures import atkinson_exists

from mc_oracle import mc_gini

# one representative per family, existence-respecting (second moments too)
SPECS = {
    "gb2": FamilySpec("gb2", (2.0, 1.5, 1.5, 2.5)),
    "b2": FamilySpec("b2", (1.0, 2.0, 4.0)),
    "sm": FamilySpec("sm", (2.0, 1.0, 1.5)),
    "dagum": FamilySpec("dagum", (3.0, 2.0, 0.9)),
    "lognormal": FamilySpec("lognormal", (0.0, 1.0)),
    "fisk": FamilySpec("fisk", (3.0, 1.0)),
    "weibull": FamilySpec("weibull", (1.5, 2.0)),
}


def numeric_pdf(spec, x, dx=1e-6):
    return (d.cdf(spec, x + dx) - d.cdf(spec, x - dx)) / (2 * dx)


def _beta_quantile_pair(mp, u, p, q):
    """z and 1 - z with I_z(p, q) = u, at the working precision of ``mp``:
    Newton from scipy's inverse on the side of z = 1/2 that u falls on."""
    u, ln_beta = mp.mpf(u), mp.log(mp.beta(p, q))
    upper = u > mp.betainc(p, q, 0, mp.mpf(0.5), regularized=True)
    p, q, y = (q, p, 1 - u) if upper else (p, q, u)
    w = mp.findroot(
        lambda w: mp.betainc(p, q, 0, w, regularized=True) - y,
        mp.mpf(special.betaincinv(float(p), float(q), float(y))), solver="newton",
        df=lambda w: mp.exp((p - 1) * mp.log(w) + (q - 1) * mp.log1p(-w) - ln_beta))
    return (1 - w, w) if upper else (w, 1 - w)


class TestFamilySpec:
    def test_unknown_family(self):
        with pytest.raises(DomainError):
            FamilySpec("gamma", (1.0, 2.0))

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            FamilySpec("gb2", (1.0, 2.0))

    def test_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            FamilySpec("fisk", (-1.0, 1.0))

    def test_lognormal_mu_any_real(self):
        FamilySpec("lognormal", (-3.0, 0.5))  # must not raise

    def test_as_gb2_nesting(self):
        assert d._gb2(FamilySpec("sm", (2.0, 1.0, 1.5))) == (2.0, 1.0, 1.0, 1.5)
        assert d._gb2(FamilySpec("lognormal", (0.0, 1.0))) is None

    def test_shapes_round_trip(self):
        for spec in SPECS.values():
            shapes = d.shapes_of(spec)
            assert len(shapes) == d.n_shape_params(spec.family)
            rebuilt = d.spec_from_shapes(
                spec.family, shapes, scale=spec.params[1] if spec.family != "b2" and spec.family != "lognormal" else spec.params[0]
            )
            assert rebuilt == spec


class TestCdfQuantile:
    def test_fisk_median(self):
        assert d.cdf(FamilySpec("fisk", (2.0, 3.0)), 3.0) == pytest.approx(0.5, abs=1e-12)
        assert d.quantile(FamilySpec("fisk", (2.0, 3.0)), 0.5) == pytest.approx(3.0, rel=1e-12)

    def test_weibull_at_scale(self):
        assert d.cdf(FamilySpec("weibull", (1.7, 2.0)), 2.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12
        )
        # F(x) = 1 - exp(-(x/b)^a), and F(0) = 0 exactly
        for a, b in [(1.0, 1.0), (1.7, 2.0), (0.4, 3.0)]:
            spec = FamilySpec("weibull", (a, b))
            for x in (0.1, 1.0, 3.0, 10.0):
                assert d.cdf(spec, x) == pytest.approx(-math.expm1(-((x / b) ** a)), abs=1e-12)
            assert d.cdf(spec, 0.0) == 0.0

    def test_lognormal_median(self):
        assert d.quantile(FamilySpec("lognormal", (0.3, 1.2)), 0.5) == pytest.approx(
            math.exp(0.3), rel=1e-10
        )
        assert d.cdf(FamilySpec("lognormal", (0.3, 1.2)), math.exp(0.3)) == pytest.approx(0.5, abs=1e-14)

    def test_lognormal_round_trip(self):
        spec = FamilySpec("lognormal", (-0.4, 0.9))
        for u in np.linspace(0.001, 0.999, 41):
            assert d.cdf(spec, d.quantile(spec, u)) == pytest.approx(u, abs=1e-10)

    def test_gb2_cdf_quadrature(self):
        spec = FamilySpec("gb2", (2.0, 1.0, 1.5, 2.5))
        x = 0.7
        val, _ = quad(lambda t: numeric_pdf(spec, t), 1e-9, x, limit=200)
        assert d.cdf(spec, x) == pytest.approx(val, abs=1e-5)
        v = x**2 / (1.0 + x**2)
        assert d.cdf(spec, x) == pytest.approx(special.betainc(1.5, 2.5, v), abs=1e-12)

    def test_round_trip_all_families(self):
        us = np.linspace(0.01, 0.99, 33)
        for spec in SPECS.values():
            x = d.quantile(spec, us)
            back = d.cdf(spec, x)
            assert np.max(np.abs(back - us)) < 1e-9, spec.family

    def test_cdf_monotone(self):
        xs = np.linspace(0.0, 20.0, 400)
        for spec in SPECS.values():
            vals = d.cdf(spec, xs)
            assert np.all(np.diff(vals) >= -1e-15)
            assert vals[0] <= 1e-12 and vals[-1] <= 1.0

    @pytest.mark.parametrize("p", [100.0, 1e3, 1e4])
    def test_dagum_quantile_keeps_digits_at_large_p(self, p):
        # x = b (u^(-1/p) - 1)^(-1/a), where u^(-1/p) - 1 cancels at large p
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            want = float((mp.mpf(0.9) ** (-1 / mp.mpf(p)) - 1) ** (-1 / mp.mpf(2)))
        got = d.quantile(FamilySpec("dagum", (2.0, 1.0, p)), 0.9)
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("spec", [FamilySpec("gb2", (3.0, 1.0, 0.8, 0.3383)),
                                      FamilySpec("b2", (2.0, 2.5, 1.005))])
    @pytest.mark.parametrize("tail", [1e-6, 1e-10, 1e-15])
    def test_gb2_quantile_keeps_the_upper_tail(self, spec, tail):
        # above the median the odds come from the complement 1 - z, which
        # does not round to 0; 1 - u is exact in floating point
        mp = pytest.importorskip("mpmath")
        u = 1.0 - tail
        x = d.quantile(spec, u)
        assert math.isfinite(x)
        a, b, p, q = d._gb2(spec)
        with mp.workdps(30):
            y = (mp.mpf(x) / mp.mpf(b)) ** mp.mpf(a)
            survival = mp.betainc(mp.mpf(q), mp.mpf(p), 0, 1 / (1 + y), regularized=True)
            want = 1 - mp.mpf(u)
            assert abs(survival - want) <= 2e-15 * want

    @pytest.mark.parametrize("spec", [
        FamilySpec("b2", (1.0, 0.05, 1e4)), FamilySpec("b2", (1.0, 1.0, 1e4)),
        FamilySpec("gb2", (3.0, 1.0, 0.05, 1e4))])
    def test_gb2_quantile_inverts_on_the_side_of_the_beta_median(self, spec):
        # with q = 1e4, z(u) stays far below 1/2 while u passes 1/2: the
        # inversion for 1 - z must start at u = I_1/2(p, q), not at u = 1/2
        mp = pytest.importorskip("mpmath")
        us = [0.3, 0.5, 0.6, 0.7, 0.9, 0.99]
        got = d.quantile(spec, np.array(us))
        with mp.workdps(80):
            a, b, p, q = (mp.mpf(v) for v in d._gb2(spec))
            for x, u in zip(got, us):
                z, zc = _beta_quantile_pair(mp, u, p, q)
                want = b * (z / zc) ** (1 / a)
                assert abs(x - want) <= 1e-14 * want, (u, float((x - want) / want))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            d.cdf(SPECS["gb2"], -1.0)
        with pytest.raises(DomainError):
            d.quantile(SPECS["gb2"], 1.0)
        for u in (0.0, 1.0):  # the lognormal's normal quantile is infinite there
            with pytest.raises(DomainError):
                d.quantile(SPECS["lognormal"], u)


# gb2(5, 1, 0.5, 0.205) has q - 1/a = 0.005: its upper tail is heavy
# enough that incomplete-beta inversion rounded draws to inf
_HEAVY_TAIL = FamilySpec("gb2", (5.0, 1.0, 0.5, 0.205))


class TestSample:
    @pytest.mark.parametrize("spec", [_HEAVY_TAIL, SPECS["gb2"], SPECS["b2"],
                                      FamilySpec("b2", (1.0, 2.5, 1.005))])
    def test_gamma_ratio_ks_against_cdf(self, spec):
        from scipy.stats import kstest

        x = d.sample(spec, 50_000, seed=12)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)
        stat = kstest(x, lambda t: d.cdf(spec, t)).statistic
        assert stat < 1.63 / math.sqrt(50_000)

    @pytest.mark.parametrize("family", list(SPECS))
    def test_deterministic_per_seed(self, family):
        a = d.sample(SPECS[family], 1_000, seed=5)
        assert a.tobytes() == d.sample(SPECS[family], 1_000, seed=5).tobytes()
        assert a.tobytes() != d.sample(SPECS[family], 1_000, seed=6).tobytes()

    @pytest.mark.parametrize("family", ["sm", "dagum", "fisk", "lognormal", "weibull"])
    def test_closed_forms_keep_the_inverse_transform(self, family):
        u = np.random.default_rng(3).random(10_000)
        np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16, out=u)
        want = d.quantile(SPECS[family], u)
        assert d.sample(SPECS[family], 10_000, seed=3).tobytes() == want.tobytes()


class TestLorenz:
    def test_boundaries(self):
        for spec in SPECS.values():
            assert d.lorenz(spec, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert d.lorenz(spec, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_lognormal_value(self):
        # L(0.5) = Phi(Phi^-1(0.5) - 1) = Phi(-1)
        got = d.lorenz(FamilySpec("lognormal", (0.0, 1.0)), 0.5)
        assert got == pytest.approx(0.15865525393145707, abs=1e-10)
        assert got == pytest.approx(0.5 * math.erfc(1.0 / math.sqrt(2.0)), abs=1e-12)

    def test_below_diagonal_and_convex(self):
        us = np.linspace(0.0, 1.0, 1000)
        for spec in SPECS.values():
            L = d.lorenz(spec, us)
            assert np.all(L <= us + 1e-12), spec.family
            assert np.all(np.diff(L) >= -1e-12), spec.family
            assert np.min(np.diff(L, 2)) >= -1e-10, spec.family

    def test_scale_invariance_bit_identical(self):
        us = np.linspace(0.05, 0.95, 19)
        for spec in SPECS.values():
            if spec.family == "lognormal":
                other = FamilySpec("lognormal", (spec.params[0] + math.log(7.0), spec.params[1]))
            else:
                scale = spec.params[d._TABLE[spec.family].scale_index]
                other = d.spec_from_shapes(spec.family, d.shapes_of(spec), 7.0 * scale)
            assert np.array_equal(d.lorenz(spec, us), d.lorenz(other, us)), spec.family

    def test_existence_errors(self):
        with pytest.raises(ExistenceError):
            d.lorenz(FamilySpec("fisk", (0.9, 1.0)), 0.5)
        with pytest.raises(ExistenceError):
            d.lorenz(FamilySpec("gb2", (2.0, 1.0, 1.0, 0.4)), 0.5)  # q <= 1/a
        with pytest.raises(ExistenceError):
            d.lorenz(FamilySpec("b2", (1.0, 2.0, 0.9)), 0.5)

    @pytest.mark.parametrize("a, q", [(0.0688, 177.35), (0.105, 79.8)])
    def test_gb2_kernel_on_the_shape_bound(self, a, q):
        # p = 1e4 is the log-shape bound that GB2 fits end on; z(u) is near 1
        # there, so the kernel inverts for 1 - z, which keeps its digits.
        # The floor is one ulp of 1 - z times the condition of L in it (~24
        # at u = 0.4), plus the error of betainc: 1.01e-14 at a = 0.0688
        mp = pytest.importorskip("mpmath")
        p, us = 1e4, np.arange(1, 10) / 10
        got = d.lorenz(FamilySpec("gb2", (a, 1.0, p, q)), us)
        with mp.workdps(40):
            A, P, Q = mp.mpf(a), mp.mpf(p), mp.mpf(q)
            ln_beta = mp.log(mp.beta(Q, P))
            for g, u in zip(got, us):
                # w = 1 - z(u) solves I_w(q, p) = 1 - u
                w = mp.findroot(
                    lambda w: mp.betainc(Q, P, 0, w, regularized=True) - (1 - mp.mpf(u)),
                    mp.mpf(special.betaincinv(q, p, 1.0 - u)), solver="newton",
                    df=lambda w: mp.exp((Q - 1) * mp.log(w) + (P - 1) * mp.log1p(-w) - ln_beta))
                want = 1 - mp.betainc(Q - 1 / A, P + 1 / A, 0, w, regularized=True)
                assert abs(g - want) <= 2e-14 * want, (u, float((g - want) / want))

    @pytest.mark.parametrize("spec", [
        FamilySpec("sm", (20.0, 1.0, 0.051)), FamilySpec("sm", (20.0, 1.0, 0.0668)),
        FamilySpec("sm", (3.0, 1.0, 0.3343)), FamilySpec("dagum", (1.05, 1.0, 1e4)),
        FamilySpec("dagum", (2.0, 1.0, 1e4)), FamilySpec("dagum", (1.0005, 1.0, 100.0)),
        FamilySpec("fisk", (1.0005, 1.0)), FamilySpec("b2", (1.0, 10.0, 1.0005)),
        FamilySpec("gb2", (2.0, 1.0, 3.0, 0.5005)),
    ], ids=lambda s: f"{s.family}{s.params}")
    def test_nested_kernel_against_mpmath(self, spec):
        # one kernel for every nested family: I_z(p + 1/a, q - 1/a) from the
        # pair (z, 1 - z), near the edges of the shape box and of the region
        # where the mean exists; sm(20, 1, 0.0668) is about the start that
        # starting_values builds for sm at Gini 0.6
        mp = pytest.importorskip("mpmath")
        us = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]
        got = d.lorenz(spec, np.array(us))
        with mp.workdps(80):
            a, _, p, q = (mp.mpf(v) for v in d._gb2(spec))
            for g, u in zip(got, us):
                z, _ = _beta_quantile_pair(mp, u, p, q)
                want = mp.betainc(p + 1 / a, q - 1 / a, 0, z, regularized=True)
                assert abs(g - want) <= 5e-13 * want, (u, float((g - want) / want))

    @pytest.mark.parametrize("spec", [
        FamilySpec("lognormal", (0.0, 0.8)), FamilySpec("lognormal", (0.0, 3.0)),
        FamilySpec("weibull", (1.6, 1.0)), FamilySpec("weibull", (0.2, 1.0))],
        ids=lambda s: f"{s.family}{s.params}")
    def test_closed_kernels_at_the_ends(self, spec):
        # the kernels take u = 0 and 1 without clipping: ndtri(0) = -inf and
        # -log1p(-1) = inf.  The reference is the clipped form, bit for bit
        us = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-20, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])
        shape = spec.params[1] if spec.family == "lognormal" else spec.params[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if spec.family == "lognormal":
                want = np.where((us > 0.0) & (us < 1.0), special.ndtr(
                    special.ndtri(np.clip(us, 1e-300, 1.0 - 1e-16)) - shape), us)
            else:
                want = np.where(us < 1.0, special.gammainc(
                    1.0 + 1.0 / shape, -np.log1p(-np.clip(us, 0.0, 1.0 - 1e-16))), 1.0)
            assert d.lorenz(spec, us).tobytes() == want.tobytes()
            for u, w in zip(us, want):
                got = d.lorenz(spec, float(u))
                assert type(got) is float and got == w, u

    def test_lognormal_kernel_below_the_diagonal_at_tiny_u(self):
        # at small sigma, L(u) is of the order of u: clipping u at 1e-300
        # would put L(1e-310) near 1e-300, above the diagonal
        us = np.array([5e-324, 1e-310, 1e-300])
        for sigma in (0.01, 0.1):
            got = d.lorenz(FamilySpec("lognormal", (0.0, sigma)), us)
            assert np.all(got <= us), sigma

    def test_quadrature_oracle(self):
        # L(u) = (1/mu) int_0^u quantile(t) dt
        for name in ("sm", "lognormal", "weibull"):
            spec = SPECS[name]
            mu = d.moment(spec, 1.0)
            for u in (0.3, 0.7):
                val, _ = quad(lambda t: d.quantile(spec, t), 1e-12, u, limit=200)
                assert d.lorenz(spec, u) == pytest.approx(val / mu, abs=1e-8), name


class TestMoment:
    def test_weibull_mean(self):
        a, b = 1.5, 2.0
        assert d.moment(FamilySpec("weibull", (a, b)), 1.0) == pytest.approx(
            b * math.gamma(1.0 + 1.0 / a), rel=1e-12
        )

    def test_lognormal_second(self):
        mu, sigma = 0.2, 0.7
        assert d.moment(FamilySpec("lognormal", (mu, sigma)), 2.0) == pytest.approx(
            math.exp(2 * mu + 2 * sigma**2), rel=1e-12
        )

    def test_gb2_second_moment_value(self):
        # B(1.5+1, 2.5-1)/B(1.5, 2.5) at (a,b,p,q) = (2,1,1.5,2.5)
        from scipy.special import beta as beta_fn

        spec = FamilySpec("gb2", (2.0, 1.0, 1.5, 2.5))
        expected = beta_fn(2.5, 1.5) / beta_fn(1.5, 2.5)
        assert d.moment(spec, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_quadrature_oracle(self):
        # E[X^k] = int_0^1 quantile(u)^k du; the open interval lets QAGS
        # resolve the algebraic endpoint singularity of heavy tails
        for name, spec in SPECS.items():
            for k in (1.0, 2.0):
                if not d.moment_exists(spec, k):
                    continue
                val, _ = quad(lambda u: d.quantile(spec, u) ** k, 0.0, 1.0, limit=400)
                assert d.moment(spec, k) == pytest.approx(val, rel=1e-6), (name, k)

    def test_homogeneity(self):
        spec = SPECS["sm"]
        scaled = d.spec_from_shapes(spec.family, d.shapes_of(spec), 3.0 * spec.params[1])
        assert d.moment(scaled, 2.0) == pytest.approx(9.0 * d.moment(spec, 2.0), rel=1e-12)

    def test_existence_error(self):
        with pytest.raises(ExistenceError):
            d.moment(FamilySpec("fisk", (1.5, 1.0)), 2.0)  # k/a >= 1
        with pytest.raises(ExistenceError):
            d.moment(FamilySpec("b2", (1.0, 2.0, 1.5)), 2.0)  # q <= k

    def test_fisk_moment_scale_shape_separation(self):
        # the corrected form b^k G(1+k/a)G(1-k/a)
        a, b, k = 2.5, 3.0, 1.0
        expected = b * math.gamma(1 + 1 / a) * math.gamma(1 - 1 / a)
        assert d.moment(FamilySpec("fisk", (a, b)), k) == pytest.approx(expected, rel=1e-12)
        # and it agrees with the GB2 row at p = q = 1
        assert d.moment(FamilySpec("fisk", (a, b)), k) == pytest.approx(
            d.moment(FamilySpec("gb2", (a, b, 1.0, 1.0)), k), rel=1e-12
        )


class TestIncompleteMoment:
    def test_limit_one(self):
        for spec in SPECS.values():
            big = d.quantile(spec, 1.0 - 1e-15)
            assert d.incomplete_moment_cdf(spec, 1.0, big) == pytest.approx(1.0, abs=1e-6)

    def test_k1_equals_lorenz(self):
        us = np.linspace(0.05, 0.95, 10)
        for name, spec in SPECS.items():
            x = d.quantile(spec, us)
            got = np.array([d.incomplete_moment_cdf(spec, 1.0, xi) for xi in x])
            want = d.lorenz(spec, us)
            assert np.max(np.abs(got - want)) < 1e-9, name

    def test_b2_k2_quadrature(self):
        spec = FamilySpec("b2", (1.0, 2.0, 4.0))
        x = 1.5
        num, _ = quad(lambda t: t**2 * numeric_pdf(spec, t), 1e-9, x, limit=200)
        den = d.moment(spec, 2.0)
        assert d.incomplete_moment_cdf(spec, 2.0, x) == pytest.approx(num / den, abs=1e-5)

    @pytest.mark.parametrize("a, k, x", [(2.0 / 3.0, 1.0, 2.0), (1.5, 2.0, 0.7), (0.5, 1.0, 30.0)])
    def test_weibull_quadrature(self, a, k, x):
        spec, b = FamilySpec("weibull", (a, 2.0)), 2.0

        def pdf(t):
            return (a / b) * (t / b) ** (a - 1.0) * math.exp(-((t / b) ** a))

        num, _ = quad(lambda t: t**k * pdf(t), 0.0, x, limit=200)
        assert d.incomplete_moment_cdf(spec, k, x) == pytest.approx(num / d.moment(spec, k), abs=1e-9)
        assert d.incomplete_moment_cdf(spec, k, 0.0) == 0.0

    def test_existence_error(self):
        with pytest.raises(ExistenceError):
            d.incomplete_moment_cdf(FamilySpec("sm", (2.0, 1.0, 0.9)), 2.0, 1.0)


class TestGiniClosed:
    def test_fisk(self):
        assert d.gini_closed(FamilySpec("fisk", (2.0, 5.0))).value == pytest.approx(0.5, abs=1e-12)

    def test_weibull(self):
        assert d.gini_closed(FamilySpec("weibull", (1.0, 3.0))).value == pytest.approx(0.5, abs=1e-12)
        # finite for a < 1 too (documented deviation from the a > 1 statement)
        assert 0.0 < d.gini_closed(FamilySpec("weibull", (0.5, 1.0))).value < 1.0

    def test_lognormal(self):
        # 2 Phi(sigma / sqrt 2) - 1 = erf(sigma / 2)
        got = d.gini_closed(FamilySpec("lognormal", (0.0, 1.0))).value
        assert got == pytest.approx(math.erf(0.5), abs=1e-12)
        assert got == pytest.approx(0.5205, abs=1e-4)

    def test_methods_tagged(self):
        assert d.gini_closed(SPECS["sm"]).method == "closed_form"
        assert d.gini_closed(SPECS["gb2"]).method == "quadrature"

    def test_reduction_identities(self):
        cases = [
            (FamilySpec("gb2", (2.0, 1.0, 1.0, 1.5)), FamilySpec("sm", (2.0, 1.0, 1.5))),
            (FamilySpec("gb2", (3.0, 1.0, 0.9, 1.0)), FamilySpec("dagum", (3.0, 1.0, 0.9))),
            (FamilySpec("gb2", (1.0, 1.0, 2.0, 4.0)), FamilySpec("b2", (1.0, 2.0, 4.0))),
            (FamilySpec("gb2", (3.0, 1.0, 1.0, 1.0)), FamilySpec("fisk", (3.0, 1.0))),
        ]
        for gb2_spec, nested in cases:
            g1 = d.gini_closed(gb2_spec).value
            g2 = d.gini_closed(nested).value
            assert g1 == pytest.approx(g2, abs=1e-8), nested.family

    def test_quadrature_oracle(self):
        for name, spec in SPECS.items():
            val, _ = quad(lambda u: d.lorenz(spec, u), 0.0, 1.0, limit=200)
            assert d.gini_closed(spec).value == pytest.approx(1 - 2 * val, abs=1e-6), name

    def test_scale_invariance(self):
        for spec in SPECS.values():
            if spec.family == "lognormal":
                other = FamilySpec("lognormal", (spec.params[0] + 2.0, spec.params[1]))
            else:
                other = d.spec_from_shapes(spec.family, d.shapes_of(spec), 13.0)
            assert d.gini_closed(spec).value == d.gini_closed(other).value, spec.family

    def test_existence_error(self):
        with pytest.raises(ExistenceError):
            d.gini_closed(FamilySpec("gb2", (2.0, 1.0, 1.5, 0.3)))  # q <= 1/a
        with pytest.raises(ExistenceError):
            d.gini_closed(FamilySpec("dagum", (0.8, 1.0, 2.0)))

    def test_gb2_vs_mc(self):
        spec = FamilySpec("gb2", (2.0, 1.0, 1.0, 1.5))
        g = d.gini_closed(spec)
        mc, se = mc_gini(spec)
        assert abs(g.value - mc) < 4 * se + 1e-4


class TestReductionIdentitiesFull:
    """GB2 boundary cases must agree with the nested families everywhere."""

    CASES = [
        (FamilySpec("gb2", (2.0, 1.3, 1.0, 1.5)), FamilySpec("sm", (2.0, 1.3, 1.5))),
        (FamilySpec("gb2", (3.0, 0.7, 0.9, 1.0)), FamilySpec("dagum", (3.0, 0.7, 0.9))),
        (FamilySpec("gb2", (1.0, 1.1, 2.0, 4.0)), FamilySpec("b2", (1.1, 2.0, 4.0))),
        (FamilySpec("gb2", (3.0, 2.0, 1.0, 1.0)), FamilySpec("fisk", (3.0, 2.0))),
        # near the existence boundaries: no second moment, no negative
        # moments of low order, no mean
        (FamilySpec("gb2", (2.0, 1.3, 1.0, 0.8)), FamilySpec("sm", (2.0, 1.3, 0.8))),
        (FamilySpec("gb2", (3.0, 0.7, 0.4, 1.0)), FamilySpec("dagum", (3.0, 0.7, 0.4))),
        (FamilySpec("gb2", (1.0, 1.1, 0.4, 1.5)), FamilySpec("b2", (1.1, 0.4, 1.5))),
        (FamilySpec("gb2", (0.8, 2.0, 1.0, 1.0)), FamilySpec("fisk", (0.8, 2.0))),
    ]

    IDS = ["sm", "dagum", "b2", "fisk", "sm-no-2nd-moment", "dagum-small-p", "b2-small-p",
           "fisk-no-mean"]

    @pytest.mark.parametrize("gb2_spec,nested", CASES, ids=IDS)
    def test_pointwise(self, gb2_spec, nested):
        us = np.linspace(0.05, 0.95, 10)
        xs = d.quantile(nested, us)
        assert np.max(np.abs(d.cdf(gb2_spec, xs) - d.cdf(nested, xs))) < 1e-8
        assert np.max(np.abs(d.quantile(gb2_spec, us) - xs)) < 1e-8 * np.max(xs)
        for k in (-2.0, -0.5, 2.0):
            assert d.moment_exists(gb2_spec, k) == d.moment_exists(nested, k), k
        for eps in (0.5, 1.5, 2.5):
            assert atkinson_exists(gb2_spec, eps) == atkinson_exists(nested, eps), eps
        exists = d.moment_exists(nested, 1.0)
        assert (d._margin_rows("gb2", d.shapes_of(gb2_spec)[None])[0] > 0.0) == exists
        assert (d._margin_rows(nested.family, d.shapes_of(nested)[None])[0] > 0.0) == exists
        if not exists:
            with pytest.raises(ExistenceError):
                d.lorenz(nested, us)
            return
        assert np.max(np.abs(d.lorenz(gb2_spec, us) - d.lorenz(nested, us))) < 1e-8
        if nested.family == "b2":  # a = 1 takes the same arithmetic path
            assert np.array_equal(d.lorenz(gb2_spec, us), d.lorenz(nested, us))
        assert d.moment(gb2_spec, 1.0) == pytest.approx(d.moment(nested, 1.0), rel=1e-8)
        if d.moment_exists(nested, 2.0):
            got = d.incomplete_moment_cdf(nested, 2.0, xs)
            assert np.max(np.abs(d.incomplete_moment_cdf(gb2_spec, 2.0, xs) - got)) < 1e-8


def _random_specs(family, n, rng):
    """``n`` specs of ``family`` with shapes drawn log-uniformly on
    [0.05, 50] and a positive Lorenz existence margin."""
    specs = []
    while len(specs) < n:
        shapes = np.exp(rng.uniform(math.log(0.05), math.log(50.0), d.n_shape_params(family)))
        spec = d.spec_from_shapes(family, shapes, scale=rng.uniform(0.5, 5.0))
        if d.moment_exists(spec, 1.0):
            specs.append(spec)
    return specs


class TestBroadcastKernels:
    """The estimator evaluates the private row kernels; the public functions
    must give the same values bit for bit."""

    @pytest.mark.parametrize("family", d.FAMILIES)
    def test_lorenz_rows_equal_lorenz(self, family):
        rng = np.random.default_rng(20261018)
        us = np.concatenate([[0.0, 1.0], rng.uniform(size=30), np.linspace(0.0, 1.0, 11)])
        specs = _random_specs(family, 60, rng)
        rows = d._lorenz_rows(family, np.array([d.shapes_of(s) for s in specs]), us)
        assert rows.shape == (len(specs), len(us))
        for spec, row in zip(specs, rows):
            assert row.tobytes() == d.lorenz(spec, us).tobytes(), spec
            # a scalar u takes the same arithmetic as u inside an array
            for j in (0, 1, 5):
                assert d.lorenz(spec, us[j]) == row[j], (spec, us[j])

    @pytest.mark.parametrize("family", d.FAMILIES)
    def test_margin_rows_equal_margin(self, family):
        # the sign of the barrier's margin is the existence of the mean
        rng = np.random.default_rng(7)
        shapes = np.exp(rng.uniform(math.log(0.05), math.log(50.0), (40, d.n_shape_params(family))))
        margins = d._margin_rows(family, shapes)
        assert (margins > 0.0).tolist() == [
            d.moment_exists(d.spec_from_shapes(family, s), 1.0) for s in shapes]

    @pytest.mark.parametrize("family", d.FAMILIES)
    def test_moment_exists_is_the_written_rule(self, family):
        # E[X^k] exists for -ap < k < aq on the GB2 shapes, for k > -a in the
        # Weibull and for every k in the lognormal.  The shapes are short binary
        # fractions, so k = aq and k = -ap are exact and hit the boundaries.
        gb2_shapes = {"gb2": lambda a, p, q: (a, p, q), "b2": lambda p, q: (1.0, p, q),
                      "sm": lambda a, q: (a, 1.0, q), "dagum": lambda a, p: (a, p, 1.0),
                      "fisk": lambda a: (a, 1.0, 1.0)}
        rows = list(itertools.product((0.5, 1.5, 2.0, 4.0), repeat=d.n_shape_params(family)))
        columns = np.array(rows).T
        for i, shapes in enumerate(rows):
            spec = d.spec_from_shapes(family, shapes)
            ks = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5]
            if family in gb2_shapes:
                a, p, q = gb2_shapes[family](*shapes)
                ks += [a * q, -a * p]
                exists = [-a * p < k < a * q for k in ks]
            elif family == "weibull":
                ks += [-shapes[0]]
                exists = [k > -shapes[0] for k in ks]
            else:
                exists = [True] * len(ks)
            assert [d.moment_exists(spec, k) for k in ks] == exists, (spec, ks)
            # the same rule on columns: the sign of each row's margin
            assert [d._margin(family, columns, k)[i] > 0.0 for k in ks] == exists, (spec, ks)

    @pytest.mark.parametrize("family", ["b2", "sm", "dagum"])
    def test_nested_gini_equals_gini_closed(self, family):
        grid = [1.05, 1.5, 2.0, 3.7, 8.0, 20.0]
        checked = 0
        for t1 in grid:
            for t2 in grid:
                spec = d.spec_from_shapes(family, [t1, t2], scale=2.0)
                if not d.moment_exists(spec, 1.0):
                    continue
                assert d._nested_gini(family, t1, t2) == d.gini_closed(spec).value, spec
                checked += 1
        assert checked >= 30


def _nested_gini_oracle(mp, family, t1, t2):
    """The closed-form Gini of b2 (p, q), sm (a, q) or dagum (a, p), to 30
    digits."""
    with mp.workdps(30):
        t1, t2, lg = mp.mpf(t1), mp.mpf(t2), mp.loggamma
        if family == "b2":
            p, q = t1, t2
            return 2 * mp.exp(lg(2 * p) + lg(2 * q - 1) - lg(2 * p + 2 * q - 1)
                              - 2 * (lg(p) + lg(q) - lg(p + q))) / p
        c = 1 / t1
        if family == "sm":
            return 1 - mp.exp(lg(t2) + lg(2 * t2 - c) - lg(t2 - c) - lg(2 * t2))
        return mp.exp(lg(t2) + lg(2 * t2 + c) - lg(2 * t2) - lg(t2 + c)) - 1


class TestNestedGiniOracle:
    """The b2, sm and dagum closed forms keep their digits up to the 1e4
    shape bound, where summed log gammas of size 1e5 used to cancel."""

    @pytest.mark.parametrize("spec", [
        FamilySpec("dagum", (2.0, 1.0, 1e4)),
        FamilySpec("b2", (1.0, 1e4, 2.0)), FamilySpec("b2", (1.0, 3.0, 1e4))])
    def test_large_shapes(self, spec):
        mp = pytest.importorskip("mpmath")
        want = float(_nested_gini_oracle(mp, spec.family, *d.shapes_of(spec)))
        assert abs(d.gini_closed(spec).value - want) <= 1e-13 * want

    @pytest.mark.parametrize("family", ["b2", "sm", "dagum"])
    def test_shape_box_sweep(self, family):
        # the ranges of the GB2 Gini sweep: a free shape log-uniform in
        # [1e-4, 1e4] and the existence margin (q - 1, q - 1/a or a - 1)
        # log-uniform in [1e-4, 1e4]; the bound is absolute, as a Gini may
        # be near 0
        mp = pytest.importorskip("mpmath")
        n = 0
        for lt, lm in np.random.default_rng(7).uniform(-4.0, 4.0, size=(300, 2)):
            t, m = 10.0**lt, 10.0**lm
            t1, t2 = {"b2": (t, 1.0 + m), "sm": (t, 1.0 / t + m), "dagum": (1.0 + m, t)}[family]
            if max(t1, t2) > 1e4:
                continue
            want = float(_nested_gini_oracle(mp, family, t1, t2))
            assert abs(d._nested_gini(family, t1, t2) - want) <= 1e-13, (t1, t2, want)
            n += 1
        assert n > 200
