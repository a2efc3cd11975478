"""NLS / GMM estimation tests: starting values, zero-noise recovery,
scale recovery and the weighting matrix."""

import collections
import inspect
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from gb2fit import distributions as d, estimate, io as gio
from gb2fit.distributions import FamilySpec, spec_from_shapes
from gb2fit.estimate import (
    gmm_fit,
    nls_fit,
    solve_scale,
    starting_values,
    weighting_matrix,
)
from gb2fit.exceptions import EstimationError, ExistenceError
from gb2fit.grouped import GroupedDataset

TRUE_SPECS = {
    "gb2": FamilySpec("gb2", (2.0, 1.0, 0.8, 1.6)),
    "b2": FamilySpec("b2", (1.0, 1.3, 2.2)),
    "sm": FamilySpec("sm", (1.7, 1.0, 1.9)),
    "dagum": FamilySpec("dagum", (2.4, 1.0, 0.9)),
    "lognormal": FamilySpec("lognormal", (0.0, 0.8)),
    "fisk": FamilySpec("fisk", (2.5, 1.0)),
    "weibull": FamilySpec("weibull", (1.4, 1.0)),
}

# Gini anchors of the starting-value tests: a dense sweep and both clamps
ANCHORS = [*np.linspace(0.05, 0.9, 60), 1e-4, 0.5, 0.9999]


def _fit_from(family, ds, start):
    """``family``'s NLS fit to ds from ``start`` alone."""
    residuals = estimate._residual_factory(family, ds.u[:-1], ds.s[:-1])
    return nls_fit(family, ds, {family: estimate._runs([(residuals, start)])[0]})


def deciles_from(spec, mean=None, id="gen"):
    u = np.arange(1, 11) / 10
    return GroupedDataset(id=id, u=u, s=d.lorenz(spec, u), mean=mean)


class TestStartingValues:
    def test_fisk_inversion(self):
        ds = deciles_from(FamilySpec("fisk", (2.0, 1.0)))
        ds = GroupedDataset(id="x", u=ds.u, s=ds.s, survey_gini=0.5)
        start = starting_values("fisk", ds)
        assert start[0] == pytest.approx(2.0, rel=1e-10)

    def test_weibull_inversion(self):
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.2, 1.0]), survey_gini=0.5
        )
        start = starting_values("weibull", ds)
        assert start[0] == pytest.approx(1.0, rel=1e-10)

    def test_lognormal_inversion(self):
        # G = 2 Phi(sigma/sqrt(2)) - 1 inverted at the anchor
        g = 0.3
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]), survey_gini=g
        )
        start = starting_values("lognormal", ds)
        got = d.gini_closed(FamilySpec("lognormal", (0.0, start[0]))).value
        assert got == pytest.approx(g, abs=1e-10)

    @pytest.mark.parametrize("sigma, p", [(1e-4, 1e4), (0.5, 8.0), (2.0, 1.001), (1e4, 1.001)])
    def test_b2_start_stays_in_the_box(self, sigma, p):
        # p = q = 2/sigma^2, clipped to the mean's region (q > 1) and the box
        assert estimate._nested_start("b2", "lognormal", np.array([sigma])).tolist() == [p, p]

    def test_every_start_hits_anchor(self):
        # the one-shape inversions, and sm and dagum at the fisk start (q = 1
        # and p = 1), have the anchor's closed-form Gini; b2 takes p = q =
        # 2/sigma^2 from the lognormal start, clipped to [1.001, 1e4]
        n_starts = 0
        for g in ANCHORS:
            ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]), survey_gini=g)
            for family in ("fisk", "weibull", "lognormal", "sm", "dagum"):
                st = starting_values(family, ds)
                got = d.gini_closed(d.spec_from_shapes(family, st)).value
                assert got == pytest.approx(g, abs=1e-12), (family, g, st)
                n_starts += 1
            (sigma,), b2 = starting_values("lognormal", ds), starting_values("b2", ds)
            assert b2[0] == b2[1] == min(max(2.0 / sigma**2, 1.001), 1e4)
        assert n_starts == 5 * len(ANCHORS)

    def test_returned_start_is_a_fresh_array(self):
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]),
                            survey_gini=0.42)
        first = starting_values("sm", ds)
        first[:] = -1.0
        assert starting_values("sm", ds)[0] > 0.0

    def test_gb2_pool_is_nested_grids_on_gb2_boundaries(self):
        # each nesting family starts at its first donor's start, and gb2's
        # is b2's as GB2 (a, p, q) = (1, p, q)
        for g in (1e-4, 0.1, 0.3, 0.42, 0.6, 0.9, 0.9999):
            ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]),
                                survey_gini=g)
            for family, (donor, *_) in estimate._DONORS.items():
                want = estimate._nested_start(family, donor, starting_values(donor, ds))
                got = starting_values(family, ds)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (family, g)
            want = np.array([1.0, *starting_values("b2", ds)])
            assert starting_values("gb2", ds).tobytes() == want.tobytes(), g

    def test_unknown_family_raises(self):
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]))
        with pytest.raises(EstimationError, match="unknown family 'pareto'"):
            starting_values("pareto", ds)

    def test_anchor_defaults_to_lower_bound(self):
        # without survey_gini the anchor is the lower bound
        ds = deciles_from(FamilySpec("fisk", (2.0, 1.0)))
        start = starting_values("fisk", ds)
        from gb2fit.grouped import lower_bound_gini

        assert start[0] == pytest.approx(1.0 / lower_bound_gini(ds), rel=1e-10)


class TestNlsFit:
    @pytest.mark.parametrize("family", sorted(TRUE_SPECS))
    def test_zero_noise_recovery(self, family):
        spec = TRUE_SPECS[family]
        fit = nls_fit(family, deciles_from(spec))
        true_shapes = d.shapes_of(spec)
        got_shapes = d.shapes_of(fit.spec)
        assert fit.rss <= 1e-12
        assert np.max(np.abs(got_shapes - true_shapes) / true_shapes) < 1e-3
        g_true = d.gini_closed(spec).value
        g_fit = d.gini_closed(fit.spec).value
        assert abs(g_fit - g_true) < 1e-4

    def test_lognormal_sigma_recovery(self):
        fit = nls_fit("lognormal", deciles_from(FamilySpec("lognormal", (0.0, 0.8))))
        assert d.shapes_of(fit.spec)[0] == pytest.approx(0.8, abs=1e-4)
        assert fit.rss <= 1e-12

    def test_gb2_recovers_nested_sm_gini(self):
        sm = FamilySpec("sm", (2.0, 1.0, 1.5))
        fit = nls_fit("gb2", deciles_from(sm))
        g_fit = d.gini_closed(fit.spec).value
        assert g_fit == pytest.approx(d.gini_closed(sm).value, abs=1e-4)

    def test_residuals_exclude_last_share(self):
        fit = nls_fit("fisk", deciles_from(TRUE_SPECS["fisk"]))
        assert len(fit.residuals) == 9
        assert d.lorenz(fit.spec, 1.0) == 1.0

    def test_donor_start_at_most_the_gini_anchored_run(self):
        ds = deciles_from(FamilySpec("sm", (1.7, 1.0, 1.9)))
        full = nls_fit("sm", ds)
        single = _fit_from("sm", ds, starting_values("sm", ds))
        assert full.rss <= single.rss + 1e-15

    def test_sm_heavy_tail_reaches_lower_rss(self):
        # at q = 0.12, z(u) = 1 - (1 - u)^(1/q) is close to 1; taking I_z from
        # z alone loses the digits of 1 - z, and the fit then stops at RSS
        # 4.664144490849429e-07
        from gb2fit.synth import GroupingPolicy, microdata_to_grouped, sample_family

        m = sample_family(FamilySpec("sm", (20.0, 1.0, 0.12)), 20000, seed=77)
        fit = nls_fit("sm", microdata_to_grouped(m, GroupingPolicy(n_groups=10)))
        assert fit.rss <= (1.0 - 0.004) * 4.664144490849429e-07

    def test_too_few_groups(self):
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]))
        with pytest.raises(EstimationError):
            nls_fit("gb2", ds)

    def test_metadata(self):
        fit = nls_fit("sm", deciles_from(TRUE_SPECS["sm"]))
        assert fit.method == "nls" and fit.converged and fit.k == 2
        assert fit.starts_tried >= 1
        assert fit.objective == pytest.approx(fit.rss)


class TestSolveScale:
    def test_weibull_unit_shape(self):
        assert solve_scale(FamilySpec("weibull", (1.0, 1.0)), 5.0) == pytest.approx(5.0, rel=1e-12)

    def test_lognormal(self):
        got = solve_scale(FamilySpec("lognormal", (0.0, 1.0)), math.e)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_gb2_quadrature(self):
        spec = FamilySpec("gb2", (2.0, 1.0, 1.5, 2.5))
        eta = solve_scale(spec, 10.0)
        mean, _ = quad(
            lambda u: d.quantile(spec_from_shapes(spec.family, d.shapes_of(spec), eta), u),
            0.0, 1.0, limit=400,
        )
        assert mean == pytest.approx(10.0, rel=1e-8)

    def test_existence_error(self):
        with pytest.raises(ExistenceError):
            solve_scale(FamilySpec("fisk", (0.9, 1.0)), 1.0)

    def test_negative_mean(self):
        with pytest.raises(EstimationError):
            solve_scale(FamilySpec("weibull", (1.0, 1.0)), -1.0)

    @pytest.mark.parametrize("spec, mean", [
        (FamilySpec("weibull", (0.005, 1.0)), 1e300),  # log E[X] = 863 at unit scale: exp overflows
        (FamilySpec("gb2", (0.005, 1.0, 1e-4, 1e4)), 1e-300),  # log E[X] = -991: exp underflows to 0
    ], ids=["overflow", "underflow"])
    def test_unit_mean_past_a_double(self, spec, mean):
        # the scale then comes from logs, and its mean is the record's
        eta = solve_scale(spec, mean)
        fitted = spec_from_shapes(spec.family, d.shapes_of(spec), eta)
        assert d.moment(fitted, 1.0) == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("spec", [FamilySpec("weibull", (0.005, 1.0)),
                                      FamilySpec("gb2", (0.005, 1.0, 1e-4, 1e4))], ids=["0", "inf"])
    def test_no_finite_scale(self, spec):
        # at a mean of 1 the scale is exp(-863), which is 0, or exp(991), which overflows
        with pytest.raises(EstimationError, match=f"no positive finite scale of the fitted {spec.family} "
                                                  "matches the record's mean 1$"):
            solve_scale(spec, 1.0)


class TestWeightingMatrix:
    def build(self, spec=None, J=10):
        spec = spec or FamilySpec("lognormal", (0.0, 1.0))
        u = np.arange(1, J + 1) / J
        ds = GroupedDataset(id="w", u=u, s=d.lorenz(spec, u))
        return spec, ds, weighting_matrix(spec, ds)

    def test_shapes(self):
        spec, ds, omega = self.build()
        J = ds.n_groups
        assert estimate._share_covariance(spec, ds)[0].shape == (J, J)
        assert omega.shape == (J - 1, J - 1)

    def test_omega_symmetric_psd(self):
        for spec in (
            FamilySpec("lognormal", (0.0, 1.0)),
            FamilySpec("weibull", (1.5, 2.0)),
            FamilySpec("b2", (1.0, 2.0, 8.0)),
        ):
            _, _, omega = self.build(spec)
            assert np.array_equal(omega, omega.T)
            assert np.min(np.linalg.eigvalsh(omega)) >= -1e-10

    def test_w_symmetric(self):
        spec, ds, _ = self.build()
        W = estimate._share_covariance(spec, ds)[0]
        assert np.array_equal(W, W.T)

    def test_wjj_is_variance(self):
        spec, ds, _ = self.build()
        var = d.moment(spec, 2.0) - d.moment(spec, 1.0) ** 2
        assert estimate._share_covariance(spec, ds)[0][-1, -1] == pytest.approx(var, rel=1e-14)

    def test_wjj_raw_formula_light_tail(self):
        # raw formula with h_J = quantile(1 - 1e-10), u_J = s_J = 1;
        # needs a light tail so the truncated part of mu2 is negligible
        for spec in (
            FamilySpec("lognormal", (0.0, 0.5)),
            FamilySpec("weibull", (1.5, 2.0)),
            FamilySpec("b2", (1.0, 2.0, 12.0)),
        ):
            _, ds, _ = self.build(spec)
            wjj = estimate._share_covariance(spec, ds)[0][-1, -1]
            hJ = d.quantile(spec, 1.0 - 1e-10)
            mu = d.moment(spec, 1.0)
            mu2pJ = d.moment(spec, 2.0) * d.incomplete_moment_cdf(spec, 2.0, hJ)
            raw = mu2pJ + (1.0 * hJ - mu * 1.0) * (hJ - 1.0 * hJ + mu * 1.0) - hJ * mu * 1.0
            assert abs(raw - wjj) / abs(wjj) < 1e-6, spec.family

    def test_one_share_omega_nonneg(self):
        spec = FamilySpec("weibull", (1.5, 2.0))
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.25, 1.0]))
        omega = weighting_matrix(spec, ds)
        assert omega.shape == (1, 1) and omega[0, 0] >= 0.0
        mu = d.moment(spec, 1.0)
        v = np.array([1.0 / mu, -0.25 / mu])
        W = estimate._share_covariance(spec, ds)[0]
        assert omega[0, 0] == pytest.approx(float(v @ W @ v), rel=1e-12)

    def test_second_moment_required(self):
        with pytest.raises(ExistenceError):
            _, ds, _ = self.build()
            weighting_matrix(FamilySpec("sm", (2.0, 1.0, 0.9)), ds)

    @pytest.mark.parametrize("family", sorted(TRUE_SPECS))
    def test_w_matches_elementwise_loop(self, family):
        ds = _sampled("gb2", seed=5)
        spec = nls_fit(family, ds).spec
        W = estimate._share_covariance(spec, ds)[0]
        want = _w_double_loop(spec, ds)
        assert np.max(np.abs(W - want)) <= 1e-14 * np.max(np.abs(want))


def _w_double_loop(spec, ds):
    """Reference W built element by element, with the boundary column and
    W_JJ written out as their own cases."""
    J, u, s = ds.n_groups, ds.u, ds.s
    h = d.quantile(spec, u[:-1])
    mu, mu2 = d.moment(spec, 1.0), d.moment(spec, 2.0)
    mu2_partial = [mu2 * d.incomplete_moment_cdf(spec, 2.0, hi) for hi in h]
    W = np.empty((J, J))
    for i in range(J - 1):
        for j in range(i, J - 1):
            W[i, j] = (
                mu2_partial[i]
                + (u[i] * h[i] - mu * s[i]) * (h[j] - u[j] * h[j] + mu * s[j])
                - h[i] * mu * s[i]
            )
        W[i, J - 1] = mu2_partial[i] + (u[i] * h[i] - mu * s[i]) * mu - h[i] * mu * s[i]
    W[J - 1, J - 1] = mu2 - mu**2
    return np.triu(W) + np.triu(W, 1).T


class TestGmm:
    def test_zero_noise_fixed_point(self):
        spec = FamilySpec("lognormal", (0.0, 0.8))
        mean = math.exp(0.32)
        ds = deciles_from(spec, mean=mean)
        nls = nls_fit("lognormal", ds)
        gmm = gmm_fit(ds, nls)
        assert d.shapes_of(gmm.spec)[0] == pytest.approx(0.8, abs=1e-3)
        assert gmm.method == "gmm"
        # scale was recovered: mu = ln(mean) - sigma^2/2 = 0
        assert gmm.spec.params[0] == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("family", sorted(TRUE_SPECS))
    def test_zero_noise_moves_little(self, family):
        spec = TRUE_SPECS[family]
        mean = d.moment(spec, 1.0)
        ds = deciles_from(spec, mean=mean)
        nls = nls_fit(family, ds)
        gmm = gmm_fit(ds, nls)
        move = np.max(np.abs(d.shapes_of(gmm.spec) - d.shapes_of(nls.spec)))
        assert move < 1e-3, family

    def test_fits_the_family_of_its_first_stage(self):
        # the second stage fits the family of its first stage: there is no
        # other family argument to disagree with it
        assert list(inspect.signature(gmm_fit).parameters) == ["d", "nls"]
        ds = _sampled("preset-5", seed=3, groups=5)
        for family in d.FAMILIES:
            assert gmm_fit(ds, nls_fit(family, ds)).spec.family == family

    def test_without_mean_unit_scale(self):
        # Omega is scale-free, so GMM needs no mean; the scale is then 1
        ds = deciles_from(TRUE_SPECS["weibull"])
        gmm = gmm_fit(ds, nls_fit("weibull", ds))
        assert gmm.method == "gmm" and gmm.spec.params[1] == 1.0
        assert gmm.spec.params[0] == pytest.approx(1.4, rel=1e-4)

    def test_second_stage_never_worse(self):
        # noisy dataset: second stage objective <= objective at the NLS start
        spec = FamilySpec("b2", (1.0, 2.0, 4.0))
        from gb2fit.synth import GroupingPolicy, microdata_to_grouped, sample_family

        m = sample_family(spec, 100_000, seed=17)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="b2")
        nls = nls_fit("b2", ds)
        gmm = gmm_fit(ds, nls)
        eta = solve_scale(nls.spec, ds.mean)
        scaled = spec_from_shapes("b2", d.shapes_of(nls.spec), eta)
        omega = weighting_matrix(scaled, ds)
        m = nls.residuals
        f_start = float(m @ np.linalg.solve(omega, m))
        assert gmm.objective <= f_start + 1e-12

    def test_sampled_b2_gini_close(self):
        spec = FamilySpec("b2", (1.0, 2.0, 4.0))
        from gb2fit.synth import GroupingPolicy, microdata_to_grouped, sample_family

        m = sample_family(spec, 100_000, seed=23)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="b2")
        gmm = gmm_fit(ds, nls_fit("b2", ds))
        g = d.gini_closed(gmm.spec).value
        assert abs(g - d.gini_closed(spec).value) < 0.01

    def test_fallback_note_on_missing_second_moment(self):
        # true SM with 1 < aq < 2: mean exists but the second moment does not
        spec = FamilySpec("sm", (1.5, 1.0, 1.0))
        ds = deciles_from(spec, mean=d.moment(spec, 1.0))
        nls = nls_fit("sm", ds)
        with warnings.catch_warnings():  # the note is the one report
            warnings.simplefilter("error")
            gmm = gmm_fit(ds, nls)
        assert gmm.note == "second stage fell back to NLS: the fitted sm has no second moment"

    @pytest.mark.parametrize("family, truth, mean, reason", [
        ("sm", FamilySpec("sm", (1.5, 1.0, 1.0)), 1.0, "the fitted sm has no second moment"),
        ("fisk", FamilySpec("lognormal", (0.0, 0.8)), 1.0, "Omega is not positive definite"),
        ("fisk", FamilySpec("lognormal", (0.0, 0.7)), 1e200, "the moments overflow"),
        ("fisk", FamilySpec("lognormal", (0.0, 0.7)), 1e-310, "Omega is not finite"),
    ])
    def test_fallback_note_names_the_cause(self, family, truth, mean, reason):
        # fixed words per cause: no spec, library message or number; the
        # note is the one report, with no warning, numpy's at 1e-310 included
        ds = deciles_from(truth, mean=mean)
        nls = nls_fit(family, ds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gmm = gmm_fit(ds, nls)
        assert gmm.note == "second stage fell back to NLS: " + reason
        assert gmm.spec == nls.spec

    def test_second_stage_exception_is_raised(self, monkeypatch):
        # the whitened residuals raise: gmm_fit raises it, and no fallback
        # hides it
        ds = deciles_from(TRUE_SPECS["lognormal"], mean=1.0)
        nls = nls_fit("lognormal", ds)
        factory = estimate._residual_factory

        def failing_factory(family, u, s, chol=None):
            if chol is None:
                return factory(family, u, s)

            def failing(x):
                raise RuntimeError("injected failure")

            return failing

        monkeypatch.setattr(estimate, "_residual_factory", failing_factory)
        with pytest.raises(RuntimeError, match="injected failure"):
            gmm_fit(ds, nls)

    @pytest.mark.parametrize("with_mean", [True, False])
    def test_second_stage_outside_existence_region_falls_back(self, monkeypatch, with_mean):
        # the second-stage row ends at gb2(0.5, 1, 1), where aq < 1 and the
        # mean does not exist: the cell keeps its NLS fit, with the note
        ds = _sampled("gb2", seed=5)
        if not with_mean:
            ds = GroupedDataset(id=ds.id, u=ds.u, s=ds.s)
        nls = nls_fit("gb2", ds)

        def outside_run(residuals, x0s):
            return np.log([[0.5, 1.0, 1.0]]), np.array([0.1]), np.array([True])

        monkeypatch.setattr(estimate, "_levenberg_marquardt", outside_run)
        with warnings.catch_warnings():  # the note is the one report
            warnings.simplefilter("error")
            gmm = gmm_fit(ds, nls)
        assert gmm.note == "second stage fell back to NLS: second stage left the moment-existence region"
        assert gmm.method == "gmm" and gmm.spec == nls.spec and gmm.objective == nls.objective

    @pytest.mark.parametrize("mean", [1e200, 1e300, 1e-310])
    @pytest.mark.parametrize("family", ["lognormal", "fisk", "weibull", "sm"])
    def test_extreme_mean_falls_back(self, family, mean):
        # a moment overflows at the fitted scale (1e200, 1e300), or Omega
        # holds NaN (1e-310): the cell keeps its NLS fit
        u = np.arange(1, 6) / 5
        s = d.lorenz(FamilySpec("lognormal", (0.0, 0.7)), u)
        ds = GroupedDataset(id="extreme", u=u, s=s, mean=mean)
        with warnings.catch_warnings():  # the note is the one report
            warnings.simplefilter("error")
            nls = nls_fit(family, ds)
            gmm = gmm_fit(ds, nls)
        assert gmm.note.startswith("second stage fell back to NLS: ")
        assert gmm.method == "gmm" and gmm.spec == nls.spec


def _sampled(source, seed, groups=10):
    from gb2fit.synth import (
        MIXTURE_PRESETS,
        GroupingPolicy,
        microdata_to_grouped,
        sample_family,
        sample_mixture,
    )

    if source == "gb2":
        m = sample_family(FamilySpec("gb2", (3.0, 1.0, 1.2, 1.5)), 20_000, seed=seed)
    else:
        m = sample_mixture(MIXTURE_PRESETS[4], 10_000, seed=seed)
    return microdata_to_grouped(m, GroupingPolicy(n_groups=groups), id=source)


class TestFittedScale:
    @pytest.mark.parametrize("source", ["gb2", "preset-5"])
    def test_every_fit_matches_the_mean(self, source):
        # the shares fix the shapes; the scale of every NLS and GMM fit,
        # second stage (gb2 on the gb2 source) or fallback, reproduces the
        # dataset's mean
        ds = _sampled(source, seed=5)
        for family in d.FAMILIES:
            nls = nls_fit(family, ds)
            gmm = gmm_fit(ds, nls)
            for fit in (nls, gmm):
                assert d.moment(fit.spec, 1.0) == pytest.approx(ds.mean, rel=1e-12), (family, fit.method)


class TestStartScreening:
    """Levenberg-Marquardt from the starts that the nesting tree gives
    reaches the minimum that single runs from a fixed lattice of starts
    reach."""

    @pytest.mark.parametrize("source", ["gb2", "preset-5"])
    @pytest.mark.parametrize("family", ["gb2", "b2", "sm", "dagum"])
    def test_screened_rss_matches_every_start(self, source, family):
        ds = _sampled(source, seed=31)
        screened = nls_fit(family, ds)
        assert screened.starts_tried == (3 if family == "gb2" else 1)
        values = [0.5, 1.5, 5.0] if family == "gb2" else [0.5, 1.0, 2.0, 5.0, 20.0]
        best = math.inf
        for st in itertools.product(values, repeat=d.n_shape_params(family)):
            try:  # one start per run: nothing is screened out
                best = min(best, _fit_from(family, ds, np.array(st)).rss)
            except EstimationError:
                continue
        assert abs(screened.rss - best) <= 1e-9 * best, (screened.rss, best)

    def test_gmm_whitened_objective(self):
        ds = _sampled("gb2", seed=5)
        nls = nls_fit("gb2", ds)
        gmm = gmm_fit(ds, nls)
        assert gmm.note == "" and gmm.converged  # the second stage ran
        omega = weighting_matrix(
            spec_from_shapes("gb2", d.shapes_of(nls.spec), solve_scale(nls.spec, ds.mean)), ds)
        assert np.linalg.cond(omega) < 1e12  # no ridge: the plain solve applies
        m = nls.residuals
        f_start = float(m @ np.linalg.solve(omega, m))
        assert gmm.objective <= f_start

    def test_whitening_in_one_solve_matches_rows(self):
        from scipy import linalg

        from gb2fit import estimate

        ds = _sampled("gb2", seed=5)
        nls = nls_fit("gb2", ds)
        omega = weighting_matrix(
            spec_from_shapes("gb2", d.shapes_of(nls.spec), solve_scale(nls.spec, ds.mean)), ds)
        chol = linalg.cholesky(omega, lower=True)
        u, s = ds.u[:-1], ds.s[:-1]
        x0s = np.vstack([_starts("gb2", ds), [[0.0, 0.0, -1.0], [12.0, 0.0, 0.0]]])  # infeasible, clipped
        got = estimate._residual_factory("gb2", u, s, chol)(x0s)
        want = estimate._residual_factory("gb2", u, s)(x0s)
        n = len(u)
        want[:, :n] = [linalg.solve_triangular(chol, r, lower=True) for r in want[:, :n]]
        assert np.array_equal(got[:, n:], want[:, n:])  # bound and barrier entries
        assert np.max(np.abs(got[:, :n] - want[:, :n])) <= 1e-14 * np.max(np.abs(want[:, :n]))

    def test_iteration_cap_reports_unconverged(self, monkeypatch):
        from gb2fit import estimate

        ds = _sampled("preset-5", seed=31)
        full = nls_fit("sm", ds)
        assert full.converged
        monkeypatch.setattr(estimate, "_MAX_ITER", 2)
        capped = nls_fit("sm", ds)
        assert not capped.converged and capped.rss > full.rss

    @pytest.mark.parametrize("family", ["fisk", "weibull", "lognormal"])
    def test_equal_shares_limit_converges(self, family):
        # the optimum is the equal-incomes limit, on the log-shape bound:
        # shape 1e4 for fisk and weibull, sigma 1e-4 for the lognormal
        u = np.arange(1, 11) / 10
        fit = nls_fit(family, GroupedDataset(id="eq", u=u, s=u.copy()))
        assert fit.converged
        (shape,) = d.shapes_of(fit.spec)
        want = 1e-4 if family == "lognormal" else 1e4
        assert shape == pytest.approx(want, rel=1e-6)


def _starts(family, ds):
    """The log-shapes of ``family``'s Gini-anchored start, and for the GB2
    three: each of its donors' starts through ``_nested_start``."""
    if family != "gb2":
        return np.log([starting_values(family, ds)])
    donors = estimate._DONORS["gb2"]
    return np.log([estimate._nested_start("gb2", donor, starting_values(donor, ds)) for donor in donors])


def _donor_starts(family, ds):
    """``family``'s starts at the optima of each of its donors."""
    runs = estimate.nls_runs(estimate._DONORS[family], ds)
    return [estimate._nested_start(family, donor, np.exp(runs[donor][0])) for donor in estimate._DONORS[family]]


class TestOneStart:
    """Levenberg-Marquardt from the optimum of gb2's donor of lowest RSS ends
    where the best of three runs from the b2, sm and dagum optima ends, so
    the other two runs are not made."""

    def test_best_donor_reaches_the_three_start_optimum(self):
        for ds in (*_presets(), _sampled("preset-5", 31, groups=5), _sampled("gb2", 31, groups=5)):
            residuals = estimate._residual_factory("gb2", ds.u[:-1], ds.s[:-1])
            x0s = np.log(_donor_starts("gb2", ds))
            _, rss3, _ = estimate._levenberg_marquardt([residuals] * len(x0s), x0s)
            best = np.min(np.where(np.isfinite(rss3), rss3, np.inf))
            rss = estimate.nls_runs(["gb2"], ds)["gb2"][1]
            assert abs(rss - best) <= 1e-9 * best, (ds.id, rss, best)


class TestMultistartAudit:
    """Each family's one-start NLS fit ends within 1e-6 relative of the
    lowest RSS that Levenberg-Marquardt reaches from a coarse grid of
    log-shape starts, each family's grid one batch: the six seed-3 presets
    at 5 groups, and the lognormal truth at 10 groups whose gb2 fit is the
    known miss.  A listed miss that closes fails too, so the list stays
    true."""

    # in units of the log-shape bound: 7 points inside it for one shape, a
    # 5 x 5 grid on 0.75 of it for two, a 4 x 4 x 4 grid on 0.6 of it for three
    GRIDS = {1: np.linspace(-1.0, 1.0, 9)[1:-1], 2: np.linspace(-0.75, 0.75, 5), 3: np.linspace(-0.6, 0.6, 4)}
    # the fits known to end above their grid's best, each with what should close it
    MISSES = {
        ("lognormal-6", "gb2"): "the lognormal corner: gb2 stops 1.8e-5 above a start on the p edge of "
                                "the box; fitting the GB2's limit families closes it (ROADMAP item 4)",
    }

    @pytest.mark.parametrize("name", ["presets-seed3-n2000-g5", "lognormal-seed6"])
    def test_one_start_reaches_the_grid_best(self, name):
        for _, ds, _ in gio.iter_grouped(Path(__file__).parent / "golden" / f"{name}.jsonl"):
            runs = estimate.nls_runs(d.FAMILIES, ds)
            for family in d.FAMILIES:
                k = d.n_shape_params(family)
                x0s = estimate._LOG_SHAPE_BOUND * np.array(list(itertools.product(self.GRIDS[k], repeat=k)))
                residuals = estimate._residual_factory(family, ds.u[:-1], ds.s[:-1])
                best = estimate._levenberg_marquardt([residuals] * len(x0s), x0s)[1].min()
                rss = runs[family][1]
                assert (rss > (1.0 + 1e-6) * best) == ((ds.id, family) in self.MISSES), (ds.id, family, rss, best)


class TestBroadcastJacobian:
    """The lockstep Levenberg-Marquardt steps every row in one call of the
    residual kernel per iteration; scipy's MINPACK
    ``least_squares(method="lm")`` from the starts the fit chooses among is
    the oracle for the minimum it reaches."""

    @pytest.mark.parametrize("family", ["gb2", "b2", "sm", "dagum"])
    @pytest.mark.parametrize("source", ["preset-5", "gb2"])
    def test_rss_at_most_minpack(self, source, family):
        from scipy import optimize

        ds = _sampled(source, seed=31)
        residuals = estimate._residual_factory(family, ds.u[:-1], ds.s[:-1])
        _, got, converged = estimate.nls_runs([family], ds)[family]
        want = min(
            float(np.sum(optimize.least_squares(
                lambda x: residuals(x[None])[0], x0, method="lm",
                xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=1000 * len(x0),
            ).fun ** 2))
            for x0 in np.log(_donor_starts(family, ds))
        )
        assert converged
        assert got <= want * (1.0 + 1e-9), (got, want)

    @pytest.mark.parametrize("family", ["gb2", "b2", "sm", "dagum", "weibull"])
    def test_batch_rows_match_single_runs(self, family):
        ds = _sampled("preset-5", seed=31)
        residuals = estimate._residual_factory(family, ds.u[:-1], ds.s[:-1])
        x0s = _starts(family, ds) if family != "weibull" else np.log([[0.5], [1.0], [2.0]])
        batch = estimate._levenberg_marquardt([residuals] * len(x0s), x0s)
        for j, x0 in enumerate(x0s):
            alone = estimate._levenberg_marquardt([residuals], x0[None])
            for got, want in zip(alone, batch):
                assert got[0].tobytes() == want[j].tobytes(), (j, got, want)

    @pytest.mark.parametrize("families", [("b2", "sm", "dagum"), ("lognormal", "fisk", "weibull")])
    def test_mixed_family_batch_rows_match_single_runs(self, families):
        # the cells of one shape count step together, each row evaluated by
        # its own family's residuals, and every row ends as it does alone
        ds = _sampled("preset-5", seed=31)
        fns = [estimate._residual_factory(f, ds.u[:-1], ds.s[:-1]) for f in families]
        x0s = [_starts(f, ds) for f in families]
        if len(x0s[0][0]) == 1:  # one start each: add rows about it
            x0s = [np.vstack([x, x + 0.5, x - 1.0]) for x in x0s]
        cells = np.repeat(np.arange(len(families)), [len(x) for x in x0s])
        batch = estimate._levenberg_marquardt([fns[c] for c in cells], np.concatenate(x0s))
        for j, (c, x0) in enumerate(zip(cells, np.concatenate(x0s))):
            alone = estimate._levenberg_marquardt([fns[c]], x0[None])
            for got, want in zip(alone, batch):
                assert got[0].tobytes() == want[j].tobytes(), (families[c], j, got, want)

    def test_stacked_residual_rows_match_single_rows(self):
        ds = _sampled("preset-5", seed=31)
        residuals = estimate._residual_factory("gb2", ds.u[:-1], ds.s[:-1])
        x0s = np.vstack([_starts("gb2", ds), [[0.0, 0.0, -1.0], [12.0, 0.0, 0.0]]])  # infeasible, clipped
        rows = residuals(x0s)
        for x0, row in zip(x0s, rows):
            assert row.tobytes() == residuals(x0[None])[0].tobytes()
        assert rows[-2, -1] > 0.0 and rows[-1, -4] == 12.0 - math.log(1e4)

    @pytest.mark.parametrize("whitened", [False, True])
    def test_non_finite_kernel_row_gets_the_barrier(self, monkeypatch, whitened):
        # no feasible shape point is known where the kernel is not finite, so
        # NaN is injected for the second of the feasible rows: that row's
        # share entries are zeroed and its barrier entry is 1e4, and the
        # other rows, the infeasible third among them, are as before
        ds = _sampled("preset-5", seed=31)
        n = len(ds.u) - 1
        chol = np.linalg.cholesky(np.eye(n) + 0.5) if whitened else None
        x = np.log([[1.7, 1.9], [2.0, 1.5], [0.5, 1.0]])  # sm(0.5, 1) has no mean
        want = estimate._residual_factory("sm", ds.u[:-1], ds.s[:-1], chol)(x)
        lorenz_columns = d._lorenz_columns

        def nan_second_row(family, cols, u):
            out = lorenz_columns(family, cols, u)
            out[1] = np.nan
            return out

        monkeypatch.setattr(d, "_lorenz_columns", nan_second_row)
        got = estimate._residual_factory("sm", ds.u[:-1], ds.s[:-1], chol)(x)
        assert got[[0, 2]].tobytes() == want[[0, 2]].tobytes()
        assert want[2, -1] > 0.0 and want[1, -1] == 0.0
        assert np.all(got[1, :n] == 0.0) and got[1, -1] == 1e4
        assert np.array_equal(got[1, n:-1], want[1, n:-1])


def _accepted(residuals, x0):
    """Per iteration of a one-row Levenberg-Marquardt run from x0, whether its
    trial point was accepted: whether its sum of squares, the first row of
    each residual call after the first, fell below the best before it."""
    costs = []

    def recorded(x):
        r = residuals(x)
        costs.append(np.add.reduce(r[0] * r[0]))
        return r

    estimate._levenberg_marquardt([recorded], x0[None])
    return [c < min(costs[:j + 1]) for j, c in enumerate(costs[1:])]


class TestFastPaths:
    """The solver skips work in its common cases: the masked copies when
    every running row accepts or none does, and the stack of a one-row
    stage.  Each ends bit for bit where the path it bypasses ends."""

    @staticmethod
    def _batch_and_alone(families, ds):
        fns = [estimate._residual_factory(f, ds.u[:-1], ds.s[:-1]) for f in families]
        x0s = np.concatenate([_starts(f, ds) for f in families])
        batch = estimate._levenberg_marquardt(fns, x0s)
        for j, (fn, x0) in enumerate(zip(fns, x0s)):
            alone = estimate._levenberg_marquardt([fn], x0[None])
            for got, want in zip(alone, batch):
                assert np.array_equal(got[0], want[j]), (families[j], got, want)
        return [_accepted(fn, x0) for fn, x0 in zip(fns, x0s)]

    def test_rows_accepting_and_rejecting_in_one_iteration(self):
        # lognormal and fisk accept their fourth trial and weibull rejects it:
        # the batch takes masked copies where each row alone takes all or none
        accepted = self._batch_and_alone(("lognormal", "fisk", "weibull"), _sampled("preset-5", seed=31))
        assert any(len({a[t] for a in accepted}) == 2 for t in range(min(map(len, accepted))))

    def test_every_row_accepting(self):
        # every trial of both rows is accepted: the batch takes its trial arrays whole
        accepted = self._batch_and_alone(("lognormal", "fisk"), _sampled("preset-5", seed=31))
        assert all(all(a) for a in accepted)

    def test_one_row_gb2_stage_matches_its_row_in_a_batch(self):
        ds = _sampled("preset-5", seed=31)
        residuals = estimate._residual_factory("gb2", ds.u[:-1], ds.s[:-1])
        donors = estimate.nls_runs(estimate._DONORS["gb2"], ds)
        best = min(range(3), key=lambda j: donors[estimate._DONORS["gb2"][j]][1])
        x0s = np.log(_donor_starts("gb2", ds))
        run = estimate.nls_runs(["gb2"], ds)["gb2"]  # one row, from the best donor's optimum
        batch = estimate._levenberg_marquardt([residuals] * len(x0s), x0s)
        assert all(np.array_equal(got, want[best]) for got, want in zip(run, batch))
        assert not all(_accepted(residuals, x0s[best]))  # it rejects trials alone too

    def test_one_row_gmm_stage_matches_its_row_in_a_batch(self):
        from scipy import linalg

        ds = _sampled("gb2", seed=5)
        nls = nls_fit("gb2", ds)
        gmm = gmm_fit(ds, nls)
        assert gmm.note == ""  # the second stage ran
        chol = linalg.cholesky(weighting_matrix(nls.spec, ds), lower=True)
        residuals = estimate._residual_factory("gb2", ds.u[:-1], ds.s[:-1], chol)
        x0 = np.log(d.shapes_of(nls.spec))
        x, cost, converged = estimate._levenberg_marquardt([residuals] * 2, np.vstack([x0, x0 + 0.5]))
        assert np.array_equal(np.exp(x[0]), d.shapes_of(gmm.spec))
        assert cost[0] == gmm.objective and converged[0] == gmm.converged

    def test_presets_make_the_same_calls_and_rows(self, monkeypatch):
        # the counts the fast paths must leave as they were
        record = _Recording()
        monkeypatch.setattr(estimate, "_residual_factory", record)
        for ds in _presets():
            estimate.nls_runs(d.FAMILIES, ds)
        assert (record.calls.total(), record.rows.total()) == (575, 1817)


class TestNlsRuns:
    """``nls_runs`` fits a dataset's families together; each family's
    ``nls_fit`` finished from its run equals the fit made alone."""

    @pytest.mark.parametrize("source", ["gb2", "preset-5"])
    def test_runs_finish_as_fits_alone(self, source):
        ds = _sampled(source, seed=31)
        runs = estimate.nls_runs(d.FAMILIES, ds)
        assert set(runs) == set(d.FAMILIES)
        for family in d.FAMILIES:
            got, want = nls_fit(family, ds, runs), nls_fit(family, ds)
            assert got.spec == want.spec and got.residuals.tobytes() == want.residuals.tobytes()
            assert (got.objective, got.converged, got.starts_tried, got.k) == (
                want.objective, want.converged, want.starts_tried, want.k)

    def test_one_dict_finishes_every_family_as_alone(self):
        # nls_fit reads its own family's run from the dict of every family's,
        # so no family is finished at another's optimum
        assert list(inspect.signature(nls_fit).parameters) == ["family", "d", "runs"]
        path = Path(__file__).parent / "golden" / "presets-seed3-n2000-g5.jsonl"
        for _, ds, _ in itertools.islice(gio.iter_grouped(path), 2):
            runs = estimate.nls_runs(d.FAMILIES, ds)
            for family in d.FAMILIES:
                got, want = nls_fit(family, ds, runs), nls_fit(family, ds)
                assert got.spec == want.spec and got.spec.family == family
                assert got.residuals.tobytes() == want.residuals.tobytes()
                assert (got.objective, got.converged, got.starts_tried) == (
                    want.objective, want.converged, want.starts_tried)

    def test_failing_cell_stays_in_its_family(self, monkeypatch):
        # sm's residuals raise on their third call, inside the batch of the
        # two-shape families: sm keeps the exception, the families that do
        # not nest sm their runs, and gb2, with sm ranked last, starts from
        # the b2 or dagum optimum
        ds = _sampled("preset-5", seed=31)
        clean = estimate.nls_runs(d.FAMILIES, ds)
        factory = estimate._residual_factory

        def failing_factory(family, *args, **kwargs):
            residuals, calls = factory(family, *args, **kwargs), []

            def failing(x):
                calls.append(len(x))
                if family == "sm" and len(calls) >= 3:
                    raise RuntimeError("injected failure")
                return residuals(x)

            return failing

        monkeypatch.setattr(estimate, "_residual_factory", failing_factory)
        runs = estimate.nls_runs(d.FAMILIES, ds)
        assert isinstance(runs["sm"], RuntimeError)
        with pytest.raises(RuntimeError, match="injected failure"):
            nls_fit("sm", ds, runs)
        for family in set(d.FAMILIES) - {"sm", "gb2"}:
            for got, want in zip(runs[family], clean[family]):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), family
        gb2 = nls_fit("gb2", ds, runs)
        assert gb2.starts_tried == 3 and gb2.rss <= clean["b2"][1] * (1.0 + 1e-9)

    @pytest.mark.parametrize("mean", [None, 2.0])
    def test_run_outside_existence_region_raises(self, mean):
        # sm(0.5, 1) has aq < 1 and no mean: solve_scale raises on the
        # dataset's mean, and dist.lorenz without one
        ds = deciles_from(TRUE_SPECS["sm"], mean=mean)
        with pytest.raises(ExistenceError, match="does not exist for sm"):
            nls_fit("sm", ds, {"sm": (np.log([0.5, 1.0]), 0.1, True)})

    def test_family_errors_are_kept(self):
        # two groups are too few for the two-shape families and the GB2,
        # three too few for the GB2
        u = np.array([0.5, 1.0])
        runs = estimate.nls_runs(["gb2", "b2", "fisk"], GroupedDataset(id="j2", u=u, s=u ** 2))
        for family, groups in (("gb2", 4), ("b2", 3)):
            assert isinstance(runs[family], EstimationError)
            assert str(runs[family]) == f"{family} needs at least {groups} groups, dataset has 2"
        assert runs["fisk"][2]
        u = np.arange(1, 4) / 3
        runs = estimate.nls_runs(["gb2", "fisk"], GroupedDataset(id="j3", u=u, s=u ** 2))
        assert str(runs["gb2"]) == "gb2 needs at least 4 groups, dataset has 3"
        assert nls_fit("fisk", GroupedDataset(id="j3", u=u, s=u ** 2), runs).converged

    def test_equal_shares_fit_every_family(self):
        # s = u is the limit of equal incomes, beyond the shape box: every
        # family ends on the box's edge, the nesting families started from the
        # one-shape limits, and the GB2, whose a is free, all but reaches it
        u = np.arange(1, 11) / 10
        ds = GroupedDataset(id="eq", u=u, s=u.copy())
        runs = estimate.nls_runs(d.FAMILIES, ds)
        for family in d.FAMILIES:
            fit = nls_fit(family, ds, runs)
            assert fit.converged, family
            edge = np.abs(np.log(d.shapes_of(fit.spec)))
            assert edge == pytest.approx(np.full(fit.k, estimate._LOG_SHAPE_BOUND), rel=1e-12), family
        assert runs["gb2"][1] <= 1e-11

    def test_starts_are_the_donor_optima(self, monkeypatch):
        # each stage's Levenberg-Marquardt starts at the optima of the stage
        # before it, mapped through the nesting tree, one row per family;
        # gb2 runs from the optimum of its donor of lowest RSS
        ds = _sampled("preset-5", seed=31)
        starts, real = [], estimate._levenberg_marquardt

        def recording(residuals, x0s):
            starts.append(np.exp(x0s))
            return real(residuals, x0s)

        monkeypatch.setattr(estimate, "_levenberg_marquardt", recording)
        runs = estimate.nls_runs(d.FAMILIES, ds)
        opt = {f: np.exp(run[0]) for f, run in runs.items()}
        assert [len(x) for x in starts] == [3, 3, 1]
        (sigma,), (a,) = opt["lognormal"], opt["fisk"]
        p = min(max(2.0 / sigma**2, 1.001), 1e4)
        assert np.allclose(sorted(starts[1].tolist()), sorted([[p, p], [a, 1.0], [a, 1.0]]),
                           rtol=1e-15, atol=0.0)
        pool = {"b2": (1.0, *opt["b2"]), "sm": (opt["sm"][0], 1.0, opt["sm"][1]), "dagum": (*opt["dagum"], 1.0)}
        best = min(pool, key=lambda f: runs[f][1])
        assert runs[best][1] < min(runs[f][1] for f in pool if f != best)
        assert np.allclose(starts[2], [pool[best]], rtol=1e-15, atol=0.0)
        assert nls_fit("gb2", ds, runs).starts_tried == 3

    def test_failed_donor_lends_its_gini_anchored_start(self, monkeypatch):
        # fisk's run raises: sm and dagum start from fisk's Gini-anchored
        # start in its place, and still converge; when every two-shape run
        # raises, gb2 starts from its ``starting_values``, b2's
        # Gini-anchored start as GB2 (1, p, q)
        ds = _sampled("preset-5", seed=31)
        starts, real, failing_shapes = [], estimate._levenberg_marquardt, [1]

        def failing_for_some_shapes(residuals, x0s):
            starts.append(np.exp(x0s))
            if x0s.shape[1] in failing_shapes:
                raise RuntimeError("injected failure")
            return real(residuals, x0s)

        monkeypatch.setattr(estimate, "_levenberg_marquardt", failing_for_some_shapes)
        runs = estimate.nls_runs(["sm", "dagum"], ds)
        (a,) = starting_values("fisk", ds)
        assert np.allclose(starts[1], [[a, 1.0], [a, 1.0]], rtol=1e-15, atol=0.0)
        assert runs["sm"][2] and runs["dagum"][2]
        starts.clear()
        failing_shapes[:] = [2]
        runs = estimate.nls_runs(["gb2"], ds)
        p, q = starting_values("b2", ds)
        assert np.allclose(starts[-1], [[1.0, p, q]], rtol=1e-15, atol=0.0)
        assert runs["gb2"][2]

    def test_runs_of_the_asked_families_only(self):
        # the donors are fitted but not returned
        ds = _sampled("preset-5", seed=31)
        assert list(estimate.nls_runs(["gb2", "sm"], ds)) == ["gb2", "sm"]


class TestNesting:
    """Each nesting family starts at its donors' optima, and a
    Levenberg-Marquardt accepts only steps that lower the RSS: gb2's RSS is
    at most that of b2, sm and dagum, and the RSS of sm and of dagum at most
    fisk's, up to rounding."""

    @staticmethod
    def _golden():
        from pathlib import Path

        from gb2fit.io import iter_grouped

        golden = Path(__file__).resolve().parent / "golden"
        for path in sorted(golden.glob("*.jsonl")):
            if not path.name.endswith(".fit.jsonl"):
                yield from (ds for _, ds, _ in iter_grouped(path))

    def test_nested_rss_orders(self):
        n = 0
        for ds in (*self._golden(), *_presets()):
            runs = estimate.nls_runs(d.FAMILIES, ds)
            rss = {f: run[1] for f, run in runs.items() if not isinstance(run, Exception)}
            if "gb2" in rss:
                assert rss["gb2"] <= (1.0 + 1e-9) * min(rss[f] for f in ("b2", "sm", "dagum")), ds.id
            for family in ("sm", "dagum"):
                if family in rss:
                    assert rss[family] <= (1.0 + 1e-9) * rss["fisk"], (ds.id, family)
            n += "gb2" in rss
        assert n >= 25


def _presets():
    """The six mixture presets as sampled for the ``presets-both`` benchmark."""
    from gb2fit.synth import MIXTURE_PRESETS, GroupingPolicy, microdata_to_grouped, sample_mixture

    return tuple(
        microdata_to_grouped(sample_mixture(mx, 10_000, seed=20180828 + i),
                             GroupingPolicy(n_groups=10), id=f"preset-{i + 1}")
        for i, mx in enumerate(MIXTURE_PRESETS))


class _Recording:
    """``_residual_factory`` that counts, per family, the calls of the
    residual functions it makes and the rows they are called at, and
    records the largest |log shape| they are called at."""

    def __init__(self):
        self.factory, self.max_abs_x = estimate._residual_factory, 0.0
        self.calls, self.rows = collections.Counter(), collections.Counter()

    def __call__(self, family, *args, **kwargs):
        residuals = self.factory(family, *args, **kwargs)

        def recorded(x):
            self.calls[family] += 1
            self.rows[family] += len(x)
            self.max_abs_x = max(self.max_abs_x, float(np.max(np.abs(x))))
            return residuals(x)

        return recorded


class TestShapeBox:
    """|log shape| <= _LOG_SHAPE_BOUND is a hard bound of the
    Levenberg-Marquardt: steps are projected onto the box, differences at
    its edge point inward, and an edge coordinate whose descent direction
    leaves the box is held."""

    def test_no_evaluated_point_leaves_the_box(self, monkeypatch):
        record = _Recording()
        monkeypatch.setattr(estimate, "_residual_factory", record)
        for ds in _presets():
            nls_fit("gb2", ds)
        u = np.arange(1, 11) / 10
        equal = GroupedDataset(id="eq", u=u, s=u.copy())
        for family in ("fisk", "weibull", "lognormal"):
            nls_fit(family, equal)
        assert record.calls.total() > 0
        assert record.max_abs_x <= estimate._LOG_SHAPE_BOUND

    def test_row_started_on_the_edge_leaves_it(self):
        ds = _sampled("gb2", seed=31)
        interior = nls_fit("gb2", ds)
        edge = _fit_from("gb2", ds, np.array([3.0, 1e4, 1.5]))
        assert edge.converged
        assert np.all(np.abs(np.log(d.shapes_of(edge.spec))) < estimate._LOG_SHAPE_BOUND)
        assert edge.rss <= interior.rss * (1.0 + 1e-9), (edge.rss, interior.rss)

    # linear residuals A x - b with the optimum x* beyond the box: the first
    # step, from x = 0, would cross it in its first shape; in the last case
    # the second shape, solved again, crosses too
    EDGE_CASES = {
        "lower": ([[1, 0.6], [0.6, 1], [0.2, -0.4]], [-20.0, 2.0], [-1, 0]),
        "upper": ([[1, 0.9, 0], [0.9, 1, 0.3], [0, 0.3, 1], [0.2, -0.1, 0.4]], [20.0, -8.0, 1.0], [1, 0, 0]),
        "twice": ([[1, 0.9, 0], [0.9, 1, 0.3], [0, 0.3, 1], [0.2, -0.1, 0.4]], [20.0, 8.0, 1.0], [1, 1, 0]),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_crossing_step_is_solved_again_on_the_edge(self, case):
        a_mat, xstar, sides = self.EDGE_CASES[case]
        a_mat = np.array(a_mat, dtype=float)
        b, x0, bound = a_mat @ xstar, np.zeros(len(xstar)), estimate._LOG_SHAPE_BOUND
        calls = []

        def residuals(x):
            calls.append(x.copy())
            return x @ a_mat.T - b

        # the first iteration's damped normal equations, as the solver forms them
        f, jt = estimate._values_and_jacobians([lambda x: x @ a_mat.T - b], x0[None], [0])
        jtj, g = (jt @ jt.transpose(0, 2, 1))[0], (jt[0] @ f[0])
        a = jtj + np.diag(1e-3 * np.diag(jtj))
        full = np.linalg.solve(a, -g)
        assert np.sum(np.abs(full) > bound) == 1
        estimate._levenberg_marquardt([residuals], x0[None])
        trial = calls[1][0]  # the second call evaluates the first trial point and its stencil
        edge = np.abs(trial) == bound
        assert np.array_equal(np.sign(trial) * edge, sides)  # exactly on the edge
        free, step = ~edge, trial - x0
        want = np.linalg.solve(a[np.ix_(free, free)], -g[free] - a[np.ix_(free, edge)] @ step[edge])
        assert np.allclose(step[free], want, rtol=1e-12, atol=0.0), (step, want)
        assert not np.allclose(step[free], full[free], rtol=1e-3)

    def test_preset_gb2_residual_calls(self, monkeypatch):
        # gb2's own calls: 560, screening included, when the steps could
        # overshoot the bound; 262 from the screened Gini-anchored grids;
        # 260 from the best two of the three donor optima, with steps
        # clipped onto the box; 204 from the best donor's optimum, with
        # crossing steps solved again on the edge
        record = _Recording()
        monkeypatch.setattr(estimate, "_residual_factory", record)
        for ds in _presets():
            assert nls_fit("gb2", ds).converged
        assert record.calls["gb2"] <= 215, record.calls

    def test_preset_residual_calls_and_rows(self, monkeypatch):
        # every family on the six presets: 735 calls at 4,585 kernel rows
        # from the screened Gini-anchored grids, 631 at 2,963 from the
        # nested optima with two gb2 rows, 575 at 1,817 with one
        record = _Recording()
        monkeypatch.setattr(estimate, "_residual_factory", record)
        for ds in _presets():
            estimate.nls_runs(d.FAMILIES, ds)
        assert record.calls.total() <= 590, record.calls
        assert record.rows.total() <= 1900, record.rows
