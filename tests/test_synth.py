"""Synthetic-data generation and the microdata-to-grouped pipeline."""

import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from gb2fit import distributions as d
from gb2fit.distributions import FamilySpec
from gb2fit.estimate import nls_fit
from gb2fit.exceptions import DomainError, ValidationError
from gb2fit.grouped import lower_bound_gini
from gb2fit.measures import Microdata, weighted_gini
from gb2fit.synth import (
    MIXTURE_PRESETS,
    GroupingPolicy,
    MixtureSpec,
    microdata_to_grouped,
    sample_family,
    sample_mixture,
    weighted_quantile,
)


def mixture_pdf(spec, x):
    """Density of the Weibull / zero-truncated-normal mixture for x > 0: the
    oracle that the mixture sampler is checked against."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("mixture density defined for x > 0 only")
    b, al = spec.beta, spec.alpha
    weib = (b / al**b) * x ** (b - 1.0) * np.exp(-((x / al) ** b))
    z = (x - spec.mu) / spec.sigma
    norm = np.exp(-0.5 * z**2) / (spec.sigma * math.sqrt(2.0 * math.pi))
    out = spec.omega * weib + (1.0 - spec.omega) * norm / special.ndtr(spec.mu / spec.sigma)
    return float(out) if out.ndim == 0 else out


class TestMixtureSpec:
    def test_table_presets(self):
        assert len(MIXTURE_PRESETS) == 6
        p1 = MIXTURE_PRESETS[0]
        assert (p1.beta, p1.mu, p1.alpha, p1.sigma, p1.omega) == (2.02, 5.24, 1.40, 6.27, 0.70)
        p6 = MIXTURE_PRESETS[5]
        assert (p6.beta, p6.mu, p6.alpha, p6.sigma, p6.omega) == (1.25, 13.32, 3.15, 3.02, 0.84)

    def test_validation(self):
        with pytest.raises(DomainError):
            MixtureSpec(beta=-1.0, alpha=1.0, omega=0.5, mu=0.0, sigma=1.0)
        with pytest.raises(DomainError):
            MixtureSpec(beta=1.0, alpha=1.0, omega=1.5, mu=0.0, sigma=1.0)
        for field in ("beta", "alpha", "mu", "sigma"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(DomainError):
                    MixtureSpec(**{**dict(beta=1.0, alpha=1.0, omega=0.5, mu=5.0, sigma=1.0), field: value})


class TestMixturePdf:
    @pytest.mark.parametrize("i", range(6))
    def test_integrates_to_one(self, i):
        spec = MIXTURE_PRESETS[i]
        val, _ = quad(lambda x: mixture_pdf(spec, x), 1e-12, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_omega_one_pure_weibull(self):
        spec = MixtureSpec(beta=1.7, alpha=2.0, omega=1.0, mu=0.0001, sigma=1.0)
        xs = np.linspace(0.1, 8.0, 50)
        b, al = 1.7, 2.0
        weib = (b / al**b) * xs ** (b - 1) * np.exp(-((xs / al) ** b))
        assert np.max(np.abs(mixture_pdf(spec, xs) - weib)) < 1e-12

    def test_component_sum_oracle(self):
        # Table-row parameters against an explicitly renormalized sum
        spec = MIXTURE_PRESETS[0]
        xs = np.linspace(0.5, 20.0, 30)
        b, al = spec.beta, spec.alpha
        weib = (b / al**b) * xs ** (b - 1) * np.exp(-((xs / al) ** b))
        z = (xs - spec.mu) / spec.sigma
        phi = np.exp(-0.5 * z**2) / (spec.sigma * math.sqrt(2 * math.pi))
        trunc_mass, _ = quad(
            lambda t: math.exp(-0.5 * ((t - spec.mu) / spec.sigma) ** 2)
            / (spec.sigma * math.sqrt(2 * math.pi)),
            0.0,
            np.inf,
        )
        expected = spec.omega * weib + (1 - spec.omega) * phi / trunc_mass
        assert np.max(np.abs(mixture_pdf(spec, xs) - expected)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            mixture_pdf(MIXTURE_PRESETS[0], 0.0)


class TestSampleMixture:
    def test_pure_weibull_ks(self):
        from scipy.stats import kstest

        spec = MixtureSpec(beta=1.5, alpha=2.0, omega=1.0, mu=1.0, sigma=1.0)
        m = sample_mixture(spec, 100_000, seed=7)
        stat = kstest(m.values, lambda x: d.cdf(FamilySpec("weibull", (1.5, 2.0)), x)).statistic
        # 1% critical value for the one-sample KS distance
        assert stat < 1.63 / math.sqrt(100_000)

    def test_pure_truncated_normal_mean(self):
        spec = MixtureSpec(beta=1.0, alpha=1.0, omega=0.0, mu=50.0, sigma=5.0)
        m = sample_mixture(spec, 40_000, seed=3)
        assert abs(m.values.mean() - 50.0) < 4 * 5.0 / math.sqrt(40_000)

    @pytest.mark.parametrize("i", range(6))
    def test_presets_positive(self, i):
        m = sample_mixture(MIXTURE_PRESETS[i], 5_000, seed=i)
        assert np.all(m.values > 0.0)

    @pytest.mark.parametrize("mu", [-100.0, -9.0])
    def test_no_normal_mass_above_zero_is_domain_error(self, mu):
        # Phi(-mu/sigma) rounds to 1, so the normal quantile of the mapped
        # uniforms would be inf; a pure Weibull never draws from the normal
        spec = MixtureSpec(beta=1.0, alpha=1.0, omega=0.5, mu=mu, sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"mu={mu}, sigma=1\.0"):
                sample_mixture(spec, 1_000, seed=0)
            pure = MixtureSpec(beta=1.0, alpha=1.0, omega=1.0, mu=mu, sigma=1.0)
            assert np.all(np.isfinite(sample_mixture(pure, 1_000, seed=0).values))

    @pytest.mark.parametrize("i", range(6))
    def test_cdf_matches_density(self, i):
        # the empirical cdf at the sample's 5%, 10%, ..., 95% quantiles
        # against the integral of the density; by the DKW inequality a gap of 0.015 at n = 20,000
        # has probability below 2 exp(-9)
        spec = MIXTURE_PRESETS[i]
        x = sample_mixture(spec, 20_000, seed=i).values
        for point in np.quantile(x, np.linspace(0.05, 0.95, 19)):
            cdf, _ = quad(lambda t: mixture_pdf(spec, t), 1e-12, point, limit=200)
            assert abs(np.mean(x <= point) - cdf) < 0.015

    def test_deterministic(self):
        a = sample_mixture(MIXTURE_PRESETS[2], 1_000, seed=9)
        b = sample_mixture(MIXTURE_PRESETS[2], 1_000, seed=9)
        assert np.array_equal(a.values, b.values)


class TestSampleFamily:
    def test_deterministic_and_positive(self):
        a = sample_family(FamilySpec("sm", (2.0, 1.0, 1.5)), 2_000, seed=1)
        b = sample_family(FamilySpec("sm", (2.0, 1.0, 1.5)), 2_000, seed=1)
        assert np.array_equal(a.values, b.values)
        assert np.all(a.values > 0.0)

    def test_ks_against_cdf(self):
        from scipy.stats import kstest

        spec = FamilySpec("lognormal", (0.0, 1.0))
        m = sample_family(spec, 50_000, seed=12)
        stat = kstest(m.values, lambda x: d.cdf(spec, x)).statistic
        assert stat < 1.63 / math.sqrt(50_000)


class TestWeightedQuantile:
    def test_unit_weights_median(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.ones(4)
        assert weighted_quantile(x, w, 0.5) == 2.0  # left-continuous

    def test_weight_mass(self):
        x = np.array([1.0, 10.0])
        w = np.array([9.0, 1.0])
        assert weighted_quantile(x, w, 0.5) == 1.0
        assert weighted_quantile(x, w, 0.95) == 10.0


class TestMicrodataToGrouped:
    def test_constant_incomes(self):
        m = Microdata(values=np.full(100, 5.0))
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=5))
        assert np.allclose(ds.s, ds.u)
        assert ds.survey_gini == 0.0
        assert ds.mean == pytest.approx(5.0)

    def test_hand_computed_quintiles(self):
        # 10 unit-weight incomes into quintiles: 2 per group
        x = np.arange(1.0, 11.0)  # total 55
        ds = microdata_to_grouped(Microdata(values=x), GroupingPolicy(n_groups=5))
        want = np.cumsum([3.0, 7.0, 11.0, 15.0, 19.0]) / 55.0
        assert np.allclose(ds.s, want, atol=1e-12)
        assert np.allclose(ds.u, [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_top_coding_caps_values(self):
        x = np.concatenate((np.full(99, 1.0), [1000.0]))
        m = Microdata(values=x)
        coded = microdata_to_grouped(m, GroupingPolicy(n_groups=5, top_code=True))
        uncoded = microdata_to_grouped(m, GroupingPolicy(n_groups=5))
        # cap = 10 x median = 10, so the top share must shrink
        assert coded.s[-2] > uncoded.s[-2]
        assert coded.mean == pytest.approx((99 * 1.0 + 10.0) / 100.0)

    def test_bottom_coding_floors_values(self):
        x = np.concatenate(([1e-6], np.full(99, 1.0)))
        m = Microdata(values=x)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=5, bottom_code=True))
        # floor = 1% of the pre-coding mean
        floor = 0.01 * x.mean()
        assert ds.mean == pytest.approx((floor + 99.0) / 100.0)

    def test_equivalisation(self):
        x = np.array([4.0, 4.0, 9.0, 9.0])
        sizes = np.array([4.0, 4.0, 9.0, 9.0])
        m = Microdata(values=x)
        ds = microdata_to_grouped(
            m, GroupingPolicy(n_groups=2, equivalise=True), household_sizes=sizes
        )
        # equivalised incomes 2 and 3 with person weights 4 and 9
        assert ds.mean == pytest.approx((4 * 2.0 + 9 * 3.0) / 13.0)

    @pytest.mark.parametrize("sizes", [[1.0, np.nan, 1.0, 1.0], [1.0, 1.0, np.inf, 1.0],
                                       [1.0, 0.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0], [1.0, 1.0]],
                             ids=["nan", "inf", "zero", "negative", "misaligned"])
    def test_equivalise_rejects_bad_sizes(self, sizes):
        # every record is kept, so a size that would drop one is an error
        with pytest.raises(ValidationError, match="household sizes must be positive, finite and aligned"):
            microdata_to_grouped(Microdata(values=np.arange(1.0, 5.0)),
                                 GroupingPolicy(n_groups=2, equivalise=True), household_sizes=sizes)

    @pytest.mark.parametrize("values, weights, sizes, message", [
        ([5e-324, 1.0], [1.0, 1.0], [4.0, 1.0], "all incomes must be positive"),
        ([1e-10, 1.0], [1e300, 1.0], [1e10, 1.0], "finite"),
    ], ids=["income-underflows", "weight-overflows"])
    def test_equivalised_microdata_is_validated(self, values, weights, sizes, message):
        m = Microdata(values=np.array(values), weights=np.array(weights))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                microdata_to_grouped(m, GroupingPolicy(n_groups=2, equivalise=True),
                                     household_sizes=sizes)

    def test_equivalise_requires_sizes(self):
        with pytest.raises(ValidationError):
            microdata_to_grouped(
                Microdata(values=np.ones(4)), GroupingPolicy(n_groups=2, equivalise=True)
            )

    def test_output_always_valid(self):
        rng = np.random.default_rng(0)
        for i in range(10):
            x = rng.lognormal(0.0, rng.uniform(0.3, 1.2), size=500)
            w = rng.random(500) + 0.1
            ds = microdata_to_grouped(
                Microdata(values=x, weights=w), GroupingPolicy(n_groups=10), id=f"r{i}"
            )
            assert np.all(ds.s <= ds.u + 1e-12)
            assert lower_bound_gini(ds) <= ds.survey_gini + 1e-12

    def test_boundary_records_to_lower_group(self):
        # 4 equal incomes into 2 groups: the cut at u=0.5 keeps 2 records below
        ds = microdata_to_grouped(
            Microdata(values=np.array([1.0, 1.0, 1.0, 1.0])), GroupingPolicy(n_groups=2)
        )
        assert ds.s[0] == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_fit(self):
        # sample -> group -> refit: Gini within max(0.01, 4 x sampling error)
        spec = FamilySpec("sm", (2.0, 1.0, 1.5))
        m = sample_family(spec, 100_000, seed=21)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="rt")
        fit = nls_fit("sm", ds)
        g_fit = d.gini_closed(fit.spec).value
        assert abs(g_fit - ds.survey_gini) < 0.01

    def test_survey_gini_matches_weighted_gini(self):
        rng = np.random.default_rng(2)
        x = rng.lognormal(0.0, 1.0, 1000)
        ds = microdata_to_grouped(Microdata(values=x), GroupingPolicy(n_groups=10))
        assert ds.survey_gini == pytest.approx(weighted_gini(x), abs=1e-12)
