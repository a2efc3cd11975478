"""NLS / GMM estimation tests: starting values, zero-noise recovery,
scale recovery and the weighting matrix."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gb2fit import distributions as d, estimate
from gb2fit.distributions import FamilySpec, spec_from_shapes
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
    "gb2": FamilySpec("gb2", (2.0, 1.0, 0.8, 1.6)),
    "b2": FamilySpec("b2", (1.0, 1.3, 2.2)),
    "sm": FamilySpec("sm", (1.7, 1.0, 1.9)),
    "dagum": FamilySpec("dagum", (2.4, 1.0, 0.9)),
    "lognormal": FamilySpec("lognormal", (0.0, 0.8)),
    "fisk": FamilySpec("fisk", (2.5, 1.0)),
    "weibull": FamilySpec("weibull", (1.4, 1.0)),
}


def deciles_from(spec, mean=None, id="gen"):
    u = np.arange(1, 11) / 10
    return GroupedDataset(id=id, u=u, s=d.lorenz(spec, u), mean=mean)


class TestStartingValues:
    def test_fisk_inversion(self):
        ds = deciles_from(FamilySpec("fisk", (2.0, 1.0)))
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
        got = d.gini_closed(FamilySpec("lognormal", (0.0, start[0]))).value
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
            [d.gini_closed(FamilySpec("sm", (2.0, 1.0, q))).value for q in qs]
        )
        q_scan = qs[np.argmin(np.abs(ginis - g))]
        assert pair[1] == pytest.approx(q_scan, abs=1e-3)
        # and the root actually solves the equation
        assert d.gini_closed(FamilySpec("sm", (2.0, 1.0, pair[1]))).value == pytest.approx(
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

    def test_cached_grids_equal_fresh_solves(self, monkeypatch):
        datasets = [
            GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([s, 1.0]), survey_gini=g)
            for s, g in ((0.3, 0.42), (0.35, 0.3), (0.2, 0.6))
        ]
        families = ("gb2", "b2", "sm", "dagum")
        estimate._nested_grid.cache_clear()
        cached = [[starting_values(f, ds) for f in families] for ds in datasets * 2]
        assert estimate._nested_grid.cache_info().hits > 0
        monkeypatch.setattr(estimate, "_nested_grid", estimate._nested_grid.__wrapped__)
        fresh = [[starting_values(f, ds) for f in families] for ds in datasets * 2]
        for got, want in zip(sum(cached, []), sum(fresh, [])):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_cached_grid_returns_fresh_arrays(self):
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]),
                            survey_gini=0.42)
        first = starting_values("sm", ds)
        first[0][:] = -1.0
        assert starting_values("sm", ds)[0][0] > 0.0

    def test_grids_equal_scipy_brentq_bit_for_bit(self, monkeypatch):
        from scipy import optimize

        anchors = [*np.linspace(0.05, 0.9, 60), 1e-4, 0.5, 0.9999]
        grid = estimate._nested_grid.__wrapped__
        got = {(f, g): grid(f, g) for f in ("b2", "sm", "dagum") for g in anchors}
        monkeypatch.setattr(estimate, "_brentq", lambda f, a, b, fa, fb: optimize.brentq(
            f, a, b, xtol=1e-10, rtol=1e-12))
        n_roots = 0
        for (family, g), starts in got.items():
            want = grid(family, g)
            assert np.array(starts).tobytes() == np.array(want).tobytes(), (family, g)
            n_roots += len(starts)
        assert n_roots > 3000

    def test_brentq_nan_value_is_value_error(self):
        def f(x):
            return -1.0 if x < 0.25 else (math.nan if x < 0.75 else 1.0)

        with pytest.raises(ValueError, match="NaN"):
            estimate._brentq(f, 0.0, 1.0, -1.0, 1.0)

    def test_brentq_iteration_cap_is_runtime_error(self):
        from scipy import optimize

        def step(x):  # defeats interpolation: every step bisects
            return -1.0 if x < 0.0 else 1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            estimate._brentq(step, -1e300, 1e300, -1.0, 1.0)
        with pytest.raises(RuntimeError, match="100 iterations"):
            optimize.brentq(step, -1e300, 1e300, xtol=1e-10, rtol=1e-12)

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

    def test_gb2_pool_is_nested_grids_on_gb2_boundaries(self):
        boundaries = {  # the b2, sm and dagum shapes as GB2 (a, p, q)
            "b2": lambda p, q: (1.0, p, q),
            "sm": lambda a, q: (a, 1.0, q),
            "dagum": lambda a, p: (a, p, 1.0),
        }
        for g in (0.1, 0.3, 0.42, 0.6, 0.9):
            ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]),
                                survey_gini=g)
            want = [np.array(to_gb2(*st)) for family, to_gb2 in boundaries.items()
                    for st in estimate._nested_grid(family, g)]  # b2's is empty at 0.1
            got = starting_values("gb2", ds)
            assert len(got) == len(want) > 0
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), g

    def test_gb2_without_starts_names_gb2(self):
        u = np.arange(1, 6) / 5
        ds = GroupedDataset(id="eq", u=u, s=u.copy())
        with pytest.raises(EstimationError, match="for gb2 at"):
            nls_fit("gb2", ds)

    def test_anchor_defaults_to_lower_bound(self):
        # without survey_gini the anchor is the lower bound
        ds = deciles_from(FamilySpec("fisk", (2.0, 1.0)))
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

    def test_multistart_dominance(self):
        ds = deciles_from(FamilySpec("sm", (1.7, 1.0, 1.9)))
        full = nls_fit("sm", ds)
        for st in starting_values("sm", ds):
            single = nls_fit("sm", ds, starts=[st])
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


class TestWeightingMatrix:
    def build(self, spec=None, J=10):
        spec = spec or FamilySpec("lognormal", (0.0, 1.0))
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
            FamilySpec("lognormal", (0.0, 1.0)),
            FamilySpec("weibull", (1.5, 2.0)),
            FamilySpec("b2", (1.0, 2.0, 8.0)),
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
            FamilySpec("lognormal", (0.0, 0.5)),
            FamilySpec("weibull", (1.5, 2.0)),
            FamilySpec("b2", (1.0, 2.0, 12.0)),
        ):
            _, _, wm = self.build(spec)
            hJ = d.quantile(spec, 1.0 - 1e-10)
            mu = wm.mu
            mu2pJ = wm.mu2 * d.incomplete_moment_cdf(spec, 2.0, hJ)
            raw = mu2pJ + (1.0 * hJ - mu * 1.0) * (hJ - 1.0 * hJ + mu * 1.0) - hJ * mu * 1.0
            assert abs(raw - wm.W[-1, -1]) / abs(wm.W[-1, -1]) < 1e-6, spec.family

    def test_one_share_omega_nonneg(self):
        spec = FamilySpec("weibull", (1.5, 2.0))
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.25, 1.0]))
        wm = weighting_matrix(spec, ds)
        assert wm.Omega.shape == (1, 1) and wm.Omega[0, 0] >= 0.0
        v = np.array([1.0 / wm.mu, -0.25 / wm.mu])
        assert wm.Omega[0, 0] == pytest.approx(float(v @ wm.W @ v), rel=1e-12)

    def test_second_moment_required(self):
        with pytest.raises(ExistenceError):
            _, ds, _ = self.build()
            weighting_matrix(FamilySpec("sm", (2.0, 1.0, 0.9)), ds)

    @pytest.mark.parametrize("family", sorted(TRUE_SPECS))
    def test_w_matches_elementwise_loop(self, family):
        ds = _sampled("gb2", seed=5)
        spec = nls_fit(family, ds).spec
        wm = weighting_matrix(spec, ds)
        want = _w_double_loop(spec, ds)
        assert np.max(np.abs(wm.W - want)) <= 1e-14 * np.max(np.abs(want))


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
    def test_identity_omega_equals_rss(self):
        m = np.array([0.1, -0.2, 0.05])
        assert gmm_quadratic(m) == pytest.approx(float(m @ m), rel=1e-15)

    def test_zero_noise_fixed_point(self):
        spec = FamilySpec("lognormal", (0.0, 0.8))
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

    def test_without_mean_unit_scale(self):
        # Omega is scale-free, so GMM needs no mean; the scale is then 1
        ds = deciles_from(TRUE_SPECS["weibull"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gmm = gmm_fit("weibull", ds)
        assert gmm.method == "gmm" and gmm.spec.params[1] == 1.0
        assert gmm.spec.params[0] == pytest.approx(1.4, rel=1e-4)

    def test_second_stage_never_worse(self):
        # noisy dataset: second stage objective <= objective at the NLS start
        spec = FamilySpec("b2", (1.0, 2.0, 4.0))
        from gb2fit.synth import GroupingPolicy, microdata_to_grouped, sample_family

        m = sample_family(spec, 100_000, seed=17)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="b2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nls = nls_fit("b2", ds)
            gmm = gmm_fit("b2", ds, nls=nls)
        eta = solve_scale(nls.spec, ds.mean)
        scaled = spec_from_shapes("b2", d.shapes_of(nls.spec), eta)
        wm = weighting_matrix(scaled, ds)
        f_start = gmm_quadratic(nls.residuals, wm)
        assert gmm.objective <= f_start + 1e-12

    def test_sampled_b2_gini_close(self):
        spec = FamilySpec("b2", (1.0, 2.0, 4.0))
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
        spec = FamilySpec("sm", (1.5, 1.0, 1.0))
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
        m = sample_family(FamilySpec("gb2", (3.0, 1.0, 1.2, 1.5)), 20_000, seed=seed)
    else:
        m = sample_mixture(MIXTURE_PRESETS[4], 10_000, seed=seed)
    return microdata_to_grouped(m, GroupingPolicy(n_groups=10), id=source)


class TestFittedScale:
    @pytest.mark.parametrize("source", ["gb2", "preset-5"])
    def test_every_fit_matches_the_mean(self, source):
        # the shares fix the shapes; the scale of every NLS and GMM fit,
        # second stage (gb2 on the gb2 source) or fallback, reproduces the
        # dataset's mean
        ds = _sampled(source, seed=5)
        for family in d.FAMILIES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                nls = nls_fit(family, ds)
                gmm = gmm_fit(family, ds, nls=nls)
            for fit in (nls, gmm):
                assert d.moment(fit.spec, 1.0) == pytest.approx(ds.mean, rel=1e-12), (family, fit.method)


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
        wm = weighting_matrix(
            spec_from_shapes("gb2", d.shapes_of(nls.spec), solve_scale(nls.spec, ds.mean)), ds)
        assert np.linalg.cond(wm.Omega) < 1e12  # no ridge: the plain solve applies
        m = nls.residuals
        f_start = gmm_quadratic(m, wm)
        assert f_start == pytest.approx(float(m @ np.linalg.solve(wm.Omega, m)), rel=1e-12)
        assert gmm.objective <= f_start

    def test_whitening_in_one_solve_matches_rows(self):
        from scipy import linalg

        from gb2fit import estimate

        ds = _sampled("gb2", seed=5)
        nls = nls_fit("gb2", ds)
        wm = weighting_matrix(
            spec_from_shapes("gb2", d.shapes_of(nls.spec), solve_scale(nls.spec, ds.mean)), ds)
        chol = linalg.cholesky(wm.Omega, lower=True)
        u, s = ds.u[:-1], ds.s[:-1]
        x0s = np.log(np.asarray(starting_values("gb2", ds)))
        x0s = np.vstack([x0s, [[0.0, 0.0, -1.0], [12.0, 0.0, 0.0]]])  # infeasible, clipped
        got = estimate._residual_factory("gb2", u, s, chol)(x0s)
        want = estimate._residual_factory("gb2", u, s)(x0s)
        n = len(u)
        want[:, :n] = [linalg.solve_triangular(chol, r, lower=True) for r in want[:, :n]]
        assert np.array_equal(got[:, n:], want[:, n:])  # bound and barrier entries
        assert np.max(np.abs(got[:, :n] - want[:, :n])) <= 1e-14 * np.max(np.abs(want[:, :n]))

    def test_failed_second_stage_falls_back_with_note(self, monkeypatch):
        from gb2fit import estimate

        ds = _sampled("gb2", seed=5)
        nls = nls_fit("gb2", ds)

        def failing_run(residuals, x0s):  # no row ends at a finite objective
            return x0s, np.full(len(x0s), np.nan), np.zeros(len(x0s), dtype=bool)

        monkeypatch.setattr(estimate, "_levenberg_marquardt", failing_run)
        with pytest.warns(RuntimeWarning, match="fell back"):
            gmm = gmm_fit("gb2", ds, nls=nls)
        assert gmm.method == "gmm"
        assert gmm.note == "second stage fell back to NLS: every second-stage run failed"
        assert np.array_equal(d.shapes_of(gmm.spec), d.shapes_of(nls.spec))
        assert (gmm.objective, gmm.converged) == (nls.objective, nls.converged)

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


def _screened_starts(residuals, family, ds):
    """The log-shape starts that the multistart optimizes, best first."""
    x0s = np.log(np.asarray(starting_values(family, ds)))
    rss0 = np.sum(residuals(x0s) ** 2, axis=1)
    return x0s[np.argsort(rss0, kind="stable")[:estimate._N_OPTIMIZED]]


class TestBroadcastJacobian:
    """The lockstep Levenberg-Marquardt steps every screened start in one
    call of the residual kernel per iteration; scipy's MINPACK
    ``least_squares(method="lm")`` is the oracle for the minimum it reaches."""

    @pytest.mark.parametrize("family", ["gb2", "b2", "sm", "dagum"])
    @pytest.mark.parametrize("source", ["preset-5", "gb2"])
    def test_rss_at_most_minpack(self, source, family):
        from scipy import optimize

        ds = _sampled(source, seed=31)
        residuals = estimate._residual_factory(family, ds.u[:-1], ds.s[:-1])
        _, got, converged = estimate._multistart(residuals, starting_values(family, ds))
        want = min(
            float(np.sum(optimize.least_squares(
                lambda x: residuals(x[None])[0], x0, method="lm",
                xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=1000 * len(x0),
            ).fun ** 2))
            for x0 in _screened_starts(residuals, family, ds)
        )
        assert converged
        assert got <= want * (1.0 + 1e-9), (got, want)

    @pytest.mark.parametrize("family", ["gb2", "b2", "sm", "dagum", "weibull"])
    def test_batch_rows_match_single_runs(self, family):
        ds = _sampled("preset-5", seed=31)
        residuals = estimate._residual_factory(family, ds.u[:-1], ds.s[:-1])
        x0s = (_screened_starts(residuals, family, ds) if family != "weibull"
               else np.log([[0.5], [1.0], [2.0]]))
        batch = estimate._levenberg_marquardt(residuals, x0s)
        for j, x0 in enumerate(x0s):
            alone = estimate._levenberg_marquardt(residuals, x0[None])
            for got, want in zip(alone, batch):
                assert got[0].tobytes() == want[j].tobytes(), (j, got, want)

    def test_screening_rows_match_single_rows(self):
        from gb2fit import estimate

        ds = _sampled("preset-5", seed=31)
        residuals = estimate._residual_factory("gb2", ds.u[:-1], ds.s[:-1])
        x0s = np.log(np.asarray(starting_values("gb2", ds)))
        x0s = np.vstack([x0s, [[0.0, 0.0, -1.0], [12.0, 0.0, 0.0]]])  # infeasible, clipped
        rows = residuals(x0s)
        for x0, row in zip(x0s, rows):
            assert row.tobytes() == residuals(x0[None])[0].tobytes()
        assert rows[-2, -1] > 0.0 and rows[-1, -4] == 12.0 - math.log(1e4)


def _presets():
    """The six mixture presets as sampled for the ``presets-both`` benchmark."""
    from gb2fit.synth import MIXTURE_PRESETS, GroupingPolicy, microdata_to_grouped, sample_mixture

    return tuple(
        microdata_to_grouped(sample_mixture(mx, 10_000, seed=20180828 + i),
                             GroupingPolicy(n_groups=10), id=f"preset-{i + 1}")
        for i, mx in enumerate(MIXTURE_PRESETS))


class _Recording:
    """``_residual_factory`` that counts the calls of the residual functions
    it makes and records the largest |log shape| they are called at."""

    def __init__(self):
        self.factory, self.calls, self.max_abs_x = estimate._residual_factory, 0, 0.0

    def __call__(self, *args, **kwargs):
        residuals = self.factory(*args, **kwargs)

        def recorded(x):
            self.calls += 1
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
        assert record.calls > 0
        assert record.max_abs_x <= estimate._LOG_SHAPE_BOUND

    def test_row_started_on_the_edge_leaves_it(self):
        ds = _sampled("gb2", seed=31)
        interior = nls_fit("gb2", ds)
        edge = nls_fit("gb2", ds, starts=[np.array([3.0, 1e4, 1.5])])
        assert edge.converged
        assert np.all(np.abs(np.log(d.shapes_of(edge.spec))) < estimate._LOG_SHAPE_BOUND)
        assert edge.rss <= interior.rss * (1.0 + 1e-9), (edge.rss, interior.rss)

    def test_preset_gb2_residual_calls(self, monkeypatch):
        # 560, screening included, when the steps could overshoot the bound
        record = _Recording()
        monkeypatch.setattr(estimate, "_residual_factory", record)
        for ds in _presets():
            assert nls_fit("gb2", ds).converged
        assert record.calls <= 400, record.calls
