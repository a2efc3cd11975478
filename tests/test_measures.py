"""Monte Carlo and weighted-sample inequality measure tests."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from gb2fit.distributions import FamilySpec, gini_closed, moment_exists
from gb2fit.exceptions import DomainError, ExistenceError, ValidationError
from gb2fit.measures import (
    McConfig,
    Microdata,
    atkinson_closed,
    atkinson_exists,
    atkinson_mc,
    sample_measures,
    weighted_atkinson,
    weighted_gini,
)

from mc_oracle import mc_gini


def brute_force_gini(values):
    """Mean absolute difference over 2 * mean, O(n^2)."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    mad = np.abs(x[:, None] - x[None, :]).sum() / (n * n)
    return mad / (2.0 * x.mean())


class TestMicrodata:
    def test_valid(self):
        m = Microdata(values=np.array([1.0, 2.0]))
        assert np.all(m.weights == 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            Microdata(values=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            Microdata(values=np.array([1.0]), weights=np.array([-2.0]))

    def test_rejects_misaligned(self):
        with pytest.raises(ValidationError):
            Microdata(values=np.array([1.0, 2.0]), weights=np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Microdata(values=np.array([]))

    @pytest.mark.parametrize("values, weights", [
        ([1.0, np.nan], None), ([1.0, np.inf], None), ([1e308, 1e308], None),
        ([1.0, 2.0], [1.0, np.inf]), ([1e200, 2.0], [1e200, 1.0]),
    ])
    def test_rejects_non_finite_total(self, values, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                Microdata(values=np.array(values), weights=None if weights is None else np.array(weights))


class TestMcConfig:
    def test_minimum_n(self):
        with pytest.raises(DomainError):
            McConfig(n=10)


class TestWeightedGini:
    def test_equality(self):
        assert weighted_gini(np.full(100, 3.0)) == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.lognormal(0.0, 1.0, size=200)
            assert weighted_gini(x) == pytest.approx(brute_force_gini(x), abs=1e-10)

    def test_two_point_limit(self):
        # incomes (delta, 1): gini -> 0.5 as delta -> 0
        assert weighted_gini(np.array([1e-12, 1.0])) == pytest.approx(0.5, abs=1e-9)

    def test_weight_duplication_semantics(self):
        x = np.array([1.0, 2.0, 5.0])
        w = np.array([2.0, 1.0, 3.0])
        expanded = np.array([1.0, 1.0, 2.0, 5.0, 5.0, 5.0])
        assert weighted_gini(x, w) == pytest.approx(weighted_gini(expanded), abs=1e-12)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(4)
        x = rng.lognormal(0.0, 0.7, size=500)
        w = rng.random(500) + 0.5
        assert weighted_gini(1000.0 * x, w) == pytest.approx(weighted_gini(x, w), abs=1e-12)


class TestWeightedAtkinson:
    def test_eps_zero(self):
        assert weighted_atkinson(np.array([1.0, 9.0]), 0.0) == 0.0

    def test_equality(self):
        for eps in (0.5, 1.0, 1.5):
            assert weighted_atkinson(np.full(50, 2.0), eps) == pytest.approx(0.0, abs=1e-12)

    def test_eps_one_geometric_mean(self):
        x = np.array([1.0, 4.0])
        expected = 1.0 - math.sqrt(1.0 * 4.0) / 2.5
        assert weighted_atkinson(x, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_half_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        mu = 2.0
        m = np.mean((x / mu) ** 0.5)
        assert weighted_atkinson(x, 0.5) == pytest.approx(1.0 - m**2, abs=1e-12)

    def test_weight_duplication_semantics(self):
        x = np.array([1.0, 3.0])
        w = np.array([2.0, 1.0])
        expanded = np.array([1.0, 1.0, 3.0])
        for eps in (0.5, 1.0, 1.5):
            assert weighted_atkinson(x, eps, w) == pytest.approx(
                weighted_atkinson(expanded, eps), abs=1e-12
            )

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            weighted_atkinson(np.array([1.0]), -0.5)


class TestGiniMc:
    """The closed-form Gini against the Monte Carlo oracle."""

    def test_matches_closed_form_within_4se(self):
        specs = [
            FamilySpec.lognormal(0.0, 1.0),
            FamilySpec.sm(2.0, 1.0, 1.5),
            FamilySpec.weibull(1.5, 1.0),
            FamilySpec.fisk(2.5, 1.0),
            FamilySpec.b2(1.0, 2.0, 4.0),
            FamilySpec.dagum(3.0, 1.0, 0.9),
        ]
        for spec in specs:
            mc, se = mc_gini(spec, n=200_000, seed=11)
            closed = gini_closed(spec).value
            assert abs(mc - closed) < 4 * se + 1e-4, spec.family

    def test_near_degenerate_fisk(self):
        mc, se = mc_gini(FamilySpec.fisk(50.0, 1.0), n=200_000, seed=2)
        assert abs(mc - 0.02) < 3 * se + 1e-4

    def test_lognormal_within_0003(self):
        mc, _ = mc_gini(FamilySpec.lognormal(0.0, 1.0), n=1_000_000, seed=0)
        assert abs(mc - 0.5205) < 0.003


class TestAtkinsonMc:
    def test_eps_zero(self):
        assert atkinson_mc(FamilySpec.weibull(1.5, 1.0), 0.0, McConfig(n=1_000, seed=0)) == 0.0

    def test_lognormal_analytic_oracle(self):
        # A_eps = 1 - exp(-eps sigma^2 / 2) for LN(mu, sigma)
        cfg = McConfig(n=400_000, seed=9)
        for sigma in (0.5, 1.0):
            for eps in (0.5, 1.0, 1.5):
                got = atkinson_mc(FamilySpec.lognormal(0.0, sigma), eps, cfg)
                want = 1.0 - math.exp(-eps * sigma**2 / 2.0)
                assert abs(got - want) < 0.003, (sigma, eps)

    def test_near_equal_incomes(self):
        for eps in (0.5, 1.0, 1.5):
            assert atkinson_mc(FamilySpec.fisk(100.0, 1.0), eps, McConfig(n=50_000, seed=1)) < 0.01

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5])
    def test_finite_at_a_heavy_tail(self, eps):
        # q - 1/a = 0.005: draws by incomplete-beta inversion rounded to inf here
        spec = FamilySpec.gb2(5.0, 1.0, 0.5, 0.205)
        for seed in range(3):
            assert math.isfinite(atkinson_mc(spec, eps, McConfig(n=100_000, seed=seed)))

    def test_monotone_in_eps(self):
        cfg = McConfig(n=100_000, seed=5)
        spec = FamilySpec.sm(2.0, 1.0, 2.0)
        vals = [atkinson_mc(spec, e, cfg) for e in (0.5, 1.0, 1.5)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_existence(self):
        # GB2-nested: eps > 1 needs p > (eps-1)/a
        assert not atkinson_exists(FamilySpec.sm(2.0, 1.0, 1.5), 4.0)  # p=1, need > 1.5
        assert atkinson_exists(FamilySpec.sm(2.0, 1.0, 1.5), 1.5)
        assert not atkinson_exists(FamilySpec.weibull(0.4, 1.0), 1.5)
        assert atkinson_exists(FamilySpec.lognormal(0.0, 1.0), 5.0)
        with pytest.raises(ExistenceError):
            atkinson_mc(FamilySpec.sm(2.0, 1.0, 1.5), 4.0, McConfig(n=1_000, seed=0))

    @pytest.mark.parametrize("a", [0.1, 0.4, 0.5, 0.6, 1.0, 1.5, 2.0, 3.7])
    def test_weibull_existence_is_moment_existence(self, a):
        # E[X^(1-eps)] = b^(1-eps) Gamma(1 + (1-eps)/a): finite iff a > eps - 1,
        # including the rounding cases eps - 1 == a and eps = 1.1, a = 0.1
        spec = FamilySpec.weibull(a, 2.0)
        for eps in (0.0, 0.5, 1.0, 1.1, 1.4, 1.5, 2.0, 2.5, 3.0, 4.7):
            assert atkinson_exists(spec, eps) == moment_exists(spec, 1.0 - eps) == (a > eps - 1.0)


# GB2 parameters (a, b, p, q) of the GB2-nested families, from their own
_GB2_SHAPES = {
    "gb2": lambda a, b, p, q: (a, b, p, q),
    "b2": lambda b, p, q: (1, b, p, q),
    "sm": lambda a, b, q: (a, b, 1, q),
    "dagum": lambda a, b, p: (a, b, p, 1),
    "fisk": lambda a, b: (a, b, 1, 1),
}


def atkinson_mpmath(spec, eps):
    """A_eps = 1 - (E[X^k])^(1/k) / E[X], k = 1 - eps, from the gamma,
    beta and digamma forms of the moments at 30 digits; at eps = 1 the
    power mean is exp(E[log X])."""
    with mpmath.workdps(30):
        eps = mpmath.mpf(eps)
        k = 1 - eps
        if spec.family in _GB2_SHAPES:
            a, b, p, q = (mpmath.mpf(v) for v in _GB2_SHAPES[spec.family](*spec.params))
            moment = lambda k: b**k * mpmath.beta(p + k / a, q - k / a) / mpmath.beta(p, q)
            log_mean = mpmath.log(b) + (mpmath.digamma(p) - mpmath.digamma(q)) / a
        elif spec.family == "weibull":
            a, b = (mpmath.mpf(v) for v in spec.params)
            moment = lambda k: b**k * mpmath.gamma(1 + k / a)
            log_mean = mpmath.log(b) + mpmath.digamma(1) / a
        else:  # lognormal
            mu, sigma = (mpmath.mpf(v) for v in spec.params)
            moment = lambda k: mpmath.exp(k * mu + k**2 * sigma**2 / 2)
            log_mean = mu
        ede = mpmath.exp(log_mean) if k == 0 else moment(k) ** (1 / k)
        return float(1 - ede / moment(1))


# one interior point per family, with finite E[X^2] and E[X^-1] so that
# Monte Carlo estimates have finite variance
ATKINSON_INTERIOR = [
    FamilySpec.gb2(2.0, 3.0, 0.8, 1.6),
    FamilySpec.b2(2.0, 2.0, 4.0),
    FamilySpec.sm(2.5, 1.0, 1.8),
    FamilySpec.dagum(3.2, 1.0, 0.8),
    FamilySpec.lognormal(0.3, 0.8),
    FamilySpec.fisk(2.5, 4.0),
    FamilySpec.weibull(1.4, 2.0),
]
# points 0.005 from an existence boundary: of the mean (q - 1/a) and, in
# most, also of E[X^-0.5], which A_1.5 needs (p - 0.5/a; a - 0.5 for the
# weibull); plus a heavy-tailed GB2 and a wide lognormal
ATKINSON_EDGE = [
    FamilySpec.gb2(5.0, 1.0, 0.5, 0.23),
    FamilySpec.gb2(3.0, 1.0, 0.5 / 3.0 + 0.005, 1.0 / 3.0 + 0.005),
    FamilySpec.b2(1.0, 0.505, 1.005),
    FamilySpec.sm(1.7, 1.0, 1.0 / 1.7 + 0.005),
    FamilySpec.dagum(1.005, 1.0, 0.5 / 1.005 + 0.005),
    FamilySpec.lognormal(-1.0, 2.0),
    FamilySpec.fisk(1.005, 1.0),
    FamilySpec.weibull(0.505, 1.0),
]


def spec_id(spec):
    return f"{spec.family}{spec.params}"


class TestAtkinsonClosed:
    @pytest.mark.parametrize("spec", ATKINSON_INTERIOR + ATKINSON_EDGE, ids=spec_id)
    def test_mpmath_closed_form(self, spec):
        for eps in (0.5, 1.0, 1.5):
            assert atkinson_exists(spec, eps)
            want = atkinson_mpmath(spec, eps)
            assert atkinson_closed(spec, eps) == pytest.approx(want, rel=1e-12, abs=0.0), eps

    def test_lognormal_analytic(self):
        for sigma in (0.3, 1.0, 2.5):
            for eps in (0.5, 1.0, 1.5, 3.0):
                want = -math.expm1(-eps * sigma**2 / 2.0)
                got = atkinson_closed(FamilySpec.lognormal(1.0, sigma), eps)
                assert got == pytest.approx(want, rel=1e-14), (sigma, eps)

    @pytest.mark.parametrize("spec", ATKINSON_INTERIOR, ids=spec_id)
    def test_monte_carlo(self, spec):
        # same tolerance as the lognormal check of atkinson_mc, at 2.5x its n
        cfg = McConfig(n=1_000_000, seed=11)
        for eps in (0.5, 1.0, 1.5):
            closed, mc = atkinson_closed(spec, eps), atkinson_mc(spec, eps, cfg)
            assert abs(closed - mc) < 0.003, (eps, closed, mc)

    def test_edges(self):
        spec = FamilySpec.sm(2.0, 1.0, 1.5)
        assert atkinson_closed(spec, 0.0) == 0.0
        with pytest.raises(DomainError):
            atkinson_closed(spec, -0.5)
        with pytest.raises(ExistenceError):
            atkinson_closed(spec, 4.0)  # needs p > 1.5 with p = 1


class TestSampleMeasures:
    def test_equality(self):
        m = Microdata(values=np.full(20, 7.0))
        out = sample_measures(m)
        assert out["gini"] == 0.0
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in out["atkinson"].values())
        assert out["mean"] == pytest.approx(7.0)

    def test_keys(self):
        m = Microdata(values=np.array([1.0, 2.0, 3.0]))
        out = sample_measures(m, epsilons=(0.5, 1.0))
        assert set(out) == {"gini", "atkinson", "mean"}
        assert set(out["atkinson"]) == {0.5, 1.0}

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.lognormal(0.0, 1.0, 300)
        w = rng.random(300) + 0.1
        a = sample_measures(Microdata(values=x, weights=w))
        b = sample_measures(Microdata(values=250.0 * x, weights=w))
        assert a["gini"] == pytest.approx(b["gini"], abs=1e-12)
        for eps in a["atkinson"]:
            assert a["atkinson"][eps] == pytest.approx(b["atkinson"][eps], abs=1e-12)
        assert b["mean"] == pytest.approx(250.0 * a["mean"], rel=1e-12)
