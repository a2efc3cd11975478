"""NLS / GMM estimation tests: starting values, zero-noise recovery,
scale recovery and the weighting matrix."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gb2fit import distributions as d
from gb2fit.distributions import FamilySpec
from gb2fit.estimate import (
    gmm_fit,
    gmm_quadratic,
    nls_fit,
    solve_scale,
    starting_values,
    weighting_matrix,
)
from gb2fit.exceptions import EstimationError, ExistenceError
from gb2fit.grouped import GroupedDataset

TRUE_SPECS = {
    "gb2": FamilySpec.gb2(2.0, 1.0, 0.8, 1.6),
    "b2": FamilySpec.b2(1.0, 1.3, 2.2),
    "sm": FamilySpec.sm(1.7, 1.0, 1.9),
    "dagum": FamilySpec.dagum(2.4, 1.0, 0.9),
    "lognormal": FamilySpec.lognormal(0.0, 0.8),
    "fisk": FamilySpec.fisk(2.5, 1.0),
    "weibull": FamilySpec.weibull(1.4, 1.0),
}


def deciles_from(spec, mean=None, id="gen"):
    u = np.arange(1, 11) / 10
    return GroupedDataset(id=id, u=u, s=d.lorenz(spec, u), mean=mean)


class TestStartingValues:
    def test_fisk_inversion(self):
        ds = deciles_from(FamilySpec.fisk(2.0, 1.0))
        ds = GroupedDataset(id="x", u=ds.u, s=ds.s, survey_gini=0.5)
        (start,) = starting_values("fisk", ds)
        assert start[0] == pytest.approx(2.0, rel=1e-10)

    def test_weibull_inversion(self):
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.2, 1.0]), survey_gini=0.5
        )
        (start,) = starting_values("weibull", ds)
        assert start[0] == pytest.approx(1.0, rel=1e-10)

    def test_lognormal_inversion(self):
        # G = 2 Phi(sigma/sqrt(2)) - 1 inverted at the anchor
        g = 0.3
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]), survey_gini=g
        )
        (start,) = starting_values("lognormal", ds)
        got = d.gini_closed(FamilySpec.lognormal(0.0, start[0])).value
        assert got == pytest.approx(g, abs=1e-10)

    def test_sm_grid_root_vs_scan(self):
        g = 0.3
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.35, 1.0]), survey_gini=g
        )
        starts = starting_values("sm", ds)
        pair = next(s for s in starts if s[0] == 2.0)
        # dense-grid scan oracle for q solving the closed-form Gini equation
        qs = np.linspace(0.51, 20.0, 40_000)
        ginis = np.array(
            [d.gini_closed(FamilySpec.sm(2.0, 1.0, q)).value for q in qs]
        )
        q_scan = qs[np.argmin(np.abs(ginis - g))]
        assert pair[1] == pytest.approx(q_scan, abs=1e-3)
        # and the root actually solves the equation
        assert d.gini_closed(FamilySpec.sm(2.0, 1.0, pair[1])).value == pytest.approx(
            g, abs=1e-8
        )

    def test_every_start_hits_anchor(self):
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]), survey_gini=0.42
        )
        for family in ("b2", "sm", "dagum"):
            for st in starting_values(family, ds):
                got = d.gini_closed(d.spec_from_shapes(family, st)).value
                assert got == pytest.approx(0.42, abs=1e-8), (family, st)

    def test_gb2_pools_nested_grids(self):
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]), survey_gini=0.42
        )
        starts = starting_values("gb2", ds)
        n_b2 = len(starting_values("b2", ds))
        n_sm = len(starting_values("sm", ds))
        n_dagum = len(starting_values("dagum", ds))
        assert len(starts) == n_b2 + n_sm + n_dagum
        assert len(starts) <= 60
        assert all(len(s) == 3 for s in starts)

    def test_anchor_defaults_to_lower_bound(self):
        # without survey_gini the anchor is the lower bound
        ds = deciles_from(FamilySpec.fisk(2.0, 1.0))
        (start,) = starting_values("fisk", ds)
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
        fit = nls_fit("lognormal", deciles_from(FamilySpec.lognormal(0.0, 0.8)))
        assert d.shapes_of(fit.spec)[0] == pytest.approx(0.8, abs=1e-4)
        assert fit.rss <= 1e-12

    def test_gb2_recovers_nested_sm_gini(self):
        sm = FamilySpec.sm(2.0, 1.0, 1.5)
        fit = nls_fit("gb2", deciles_from(sm))
        g_fit = d.gini_closed(fit.spec).value
        assert g_fit == pytest.approx(d.gini_closed(sm).value, abs=1e-4)

    def test_residuals_exclude_last_share(self):
        fit = nls_fit("fisk", deciles_from(TRUE_SPECS["fisk"]))
        assert len(fit.residuals) == 9
        assert d.lorenz(fit.spec, 1.0) == 1.0

    def test_multistart_dominance(self):
        ds = deciles_from(FamilySpec.sm(1.7, 1.0, 1.9))
        full = nls_fit("sm", ds)
        for st in starting_values("sm", ds):
            single = nls_fit("sm", ds, starts=[st])
            assert full.rss <= single.rss + 1e-15

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
        assert solve_scale(FamilySpec.weibull(1.0, 1.0), 5.0) == pytest.approx(5.0, rel=1e-12)

    def test_lognormal(self):
        got = solve_scale(FamilySpec.lognormal(0.0, 1.0), math.e)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_gb2_quadrature(self):
        spec = FamilySpec.gb2(2.0, 1.0, 1.5, 2.5)
        eta = solve_scale(spec, 10.0)
        mean, _ = quad(
            lambda u: d.quantile(d.with_scale(spec, eta), u), 0.0, 1.0, limit=400
        )
        assert mean == pytest.approx(10.0, rel=1e-8)

    def test_existence_error(self):
        with pytest.raises(ExistenceError):
            solve_scale(FamilySpec.fisk(0.9, 1.0), 1.0)

    def test_negative_mean(self):
        with pytest.raises(EstimationError):
            solve_scale(FamilySpec.weibull(1.0, 1.0), -1.0)


class TestWeightingMatrix:
    def build(self, spec=None, J=10):
        spec = spec or FamilySpec.lognormal(0.0, 1.0)
        u = np.arange(1, J + 1) / J
        ds = GroupedDataset(id="w", u=u, s=d.lorenz(spec, u))
        return spec, ds, weighting_matrix(spec, ds)

    def test_shapes(self):
        _, ds, wm = self.build()
        J = ds.n_groups
        assert wm.W.shape == (J, J)
        assert wm.Psi.shape == (J - 1, J)
        assert wm.Omega.shape == (J - 1, J - 1)
        assert len(wm.h) == J - 1

    def test_omega_symmetric_psd(self):
        for spec in (
            FamilySpec.lognormal(0.0, 1.0),
            FamilySpec.weibull(1.5, 2.0),
            FamilySpec.b2(1.0, 2.0, 8.0),
        ):
            _, _, wm = self.build(spec)
            assert np.array_equal(wm.Omega, wm.Omega.T)
            assert np.min(np.linalg.eigvalsh(wm.Omega)) >= -1e-10

    def test_w_symmetric(self):
        _, _, wm = self.build()
        assert np.array_equal(wm.W, wm.W.T)

    def test_wjj_is_variance(self):
        spec, _, wm = self.build()
        var = d.moment(spec, 2.0) - d.moment(spec, 1.0) ** 2
        assert wm.W[-1, -1] == pytest.approx(var, rel=1e-14)

    def test_wjj_raw_formula_light_tail(self):
        # raw formula with h_J = quantile(1 - 1e-10), u_J = s_J = 1;
        # needs a light tail so the truncated part of mu2 is negligible
        for spec in (
            FamilySpec.lognormal(0.0, 0.5),
            FamilySpec.weibull(1.5, 2.0),
            FamilySpec.b2(1.0, 2.0, 12.0),
        ):
            _, _, wm = self.build(spec)
            hJ = d.quantile(spec, 1.0 - 1e-10)
            mu = wm.mu
            mu2pJ = wm.mu2 * d.incomplete_moment_cdf(spec, 2.0, hJ)
            raw = mu2pJ + (1.0 * hJ - mu * 1.0) * (hJ - 1.0 * hJ + mu * 1.0) - hJ * mu * 1.0
            assert abs(raw - wm.W[-1, -1]) / abs(wm.W[-1, -1]) < 1e-6, spec.family

    def test_one_share_omega_nonneg(self):
        spec = FamilySpec.weibull(1.5, 2.0)
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.25, 1.0]))
        wm = weighting_matrix(spec, ds)
        assert wm.Omega.shape == (1, 1) and wm.Omega[0, 0] >= 0.0
        v = np.array([1.0 / wm.mu, -0.25 / wm.mu])
        assert wm.Omega[0, 0] == pytest.approx(float(v @ wm.W @ v), rel=1e-12)

    def test_second_moment_required(self):
        with pytest.raises(ExistenceError):
            _, ds, _ = self.build()
            weighting_matrix(FamilySpec.sm(2.0, 1.0, 0.9), ds)


class TestGmm:
    def test_identity_omega_equals_rss(self):
        m = np.array([0.1, -0.2, 0.05])
        assert gmm_quadratic(m) == pytest.approx(float(m @ m), rel=1e-15)

    def test_zero_noise_fixed_point(self):
        spec = FamilySpec.lognormal(0.0, 0.8)
        mean = math.exp(0.32)
        ds = deciles_from(spec, mean=mean)
        nls = nls_fit("lognormal", ds)
        gmm = gmm_fit("lognormal", ds, nls=nls)
        assert d.shapes_of(gmm.spec)[0] == pytest.approx(0.8, abs=1e-3)
        assert gmm.method == "gmm"
        # scale was recovered: mu = ln(mean) - sigma^2/2 = 0
        assert gmm.spec.params[0] == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("family", sorted(TRUE_SPECS))
    def test_zero_noise_moves_little(self, family):
        spec = TRUE_SPECS[family]
        mean = d.moment(spec, 1.0)
        ds = deciles_from(spec, mean=mean)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nls = nls_fit(family, ds)
            gmm = gmm_fit(family, ds, nls=nls)
        move = np.max(np.abs(d.shapes_of(gmm.spec) - d.shapes_of(nls.spec)))
        assert move < 1e-3, family

    def test_requires_mean(self):
        ds = deciles_from(TRUE_SPECS["weibull"])
        with pytest.raises(EstimationError):
            gmm_fit("weibull", ds)

    def test_second_stage_never_worse(self):
        # noisy dataset: second stage objective <= objective at the NLS start
        spec = FamilySpec.b2(1.0, 2.0, 4.0)
        from gb2fit.synth import GroupingPolicy, microdata_to_grouped, sample_family

        m = sample_family(spec, 100_000, seed=17)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="b2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nls = nls_fit("b2", ds)
            gmm = gmm_fit("b2", ds, nls=nls)
        eta = solve_scale(nls.spec, ds.mean)
        scaled = d.with_scale(nls.spec, eta)
        wm = weighting_matrix(scaled, ds)
        f_start = gmm_quadratic(nls.residuals, wm)
        assert gmm.objective <= f_start + 1e-12

    def test_sampled_b2_gini_close(self):
        spec = FamilySpec.b2(1.0, 2.0, 4.0)
        from gb2fit.synth import GroupingPolicy, microdata_to_grouped, sample_family

        m = sample_family(spec, 100_000, seed=23)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="b2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gmm = gmm_fit("b2", ds)
        g = d.gini_closed(gmm.spec).value
        assert abs(g - d.gini_closed(spec).value) < 0.01

    def test_fallback_note_on_missing_second_moment(self):
        # true SM with 1 < aq < 2: mean exists but the second moment does not
        spec = FamilySpec.sm(1.5, 1.0, 1.0)
        ds = deciles_from(spec, mean=d.moment(spec, 1.0))
        with pytest.warns(RuntimeWarning):
            gmm = gmm_fit("sm", ds)
        assert "fell back" in gmm.note


def _sampled(source, seed):
    from gb2fit.synth import (
        MIXTURE_PRESETS,
        GroupingPolicy,
        microdata_to_grouped,
        sample_family,
        sample_mixture,
    )

    if source == "gb2":
        m = sample_family(FamilySpec.gb2(3.0, 1.0, 1.2, 1.5), 20_000, seed=seed)
    else:
        m = sample_mixture(MIXTURE_PRESETS[4], 10_000, seed=seed)
    return microdata_to_grouped(m, GroupingPolicy(n_groups=10), id=source)


class TestStartScreening:
    """Levenberg-Marquardt from the lowest-RSS starts only reaches the
    minimum that a run from every start reaches."""

    @pytest.mark.parametrize("source", ["gb2", "preset-5"])
    @pytest.mark.parametrize("family", ["gb2", "b2", "sm", "dagum"])
    def test_screened_rss_matches_every_start(self, source, family):
        ds = _sampled(source, seed=31)
        screened = nls_fit(family, ds)
        starts = starting_values(family, ds)
        assert screened.starts_tried == len(starts)
        best = math.inf
        for st in starts:  # one start per run: nothing is screened out
            try:
                best = min(best, nls_fit(family, ds, starts=[st]).rss)
            except EstimationError:
                continue
        assert abs(screened.rss - best) <= 1e-9 * best, (screened.rss, best)

    def test_gmm_whitened_objective(self):
        ds = _sampled("gb2", seed=5)
        nls = nls_fit("gb2", ds)
        gmm = gmm_fit("gb2", ds, nls=nls)
        assert gmm.note == "" and gmm.converged  # the second stage ran
        wm = weighting_matrix(d.with_scale(nls.spec, solve_scale(nls.spec, ds.mean)), ds)
        assert np.linalg.cond(wm.Omega) < 1e12  # no ridge: the plain solve applies
        m = nls.residuals
        f_start = gmm_quadratic(m, wm)
        assert f_start == pytest.approx(float(m @ np.linalg.solve(wm.Omega, m)), rel=1e-12)
        assert gmm.objective <= f_start
