"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
from scipy import special
from scipy.integrate import quad

from gb2fit import distributions as d, estimate
from gb2fit.distributions import FamilySpec
from gb2fit.estimate import gmm_fit, nls_fit, weighting_matrix
from gb2fit.grouped import GroupedDataset, lower_bound_gini
from gb2fit.measures import (
    McConfig,
    atkinson_mc,
    weighted_atkinson,
    weighted_gini,
)
from gb2fit.specfun import inv_inc_beta_ratio
from gb2fit.synth import GroupingPolicy, MIXTURE_PRESETS, microdata_to_grouped, sample_family, sample_mixture

from mc_oracle import mc_gini


def report(number, label, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number} ({label}): {detail} [{elapsed:.1f}s]"
    print(line, flush=True)
    assert ok, line


def family_grid():
    """Existence-respecting parameter grid, >= 20 points per family."""
    grid = {f: [] for f in d.FAMILIES}
    for a in (1.5, 2.0, 3.0, 5.0):
        for p in (0.6, 1.2):
            for q_extra in (0.8, 1.5, 2.5):
                grid["gb2"].append(FamilySpec("gb2", (a, 1.0, p, 1.0 / a + q_extra)))
    for p in (0.5, 1.0, 2.0, 4.0):
        for q in (1.5, 2.5, 4.0, 8.0, 16.0):
            grid["b2"].append(FamilySpec("b2", (1.0, p, q)))
    for a in (1.2, 2.0, 3.0, 5.0):
        for q_extra in (0.5, 1.0, 2.0, 4.0, 8.0):
            grid["sm"].append(FamilySpec("sm", (a, 1.0, 1.0 / a + q_extra)))
    for a in (1.5, 2.0, 3.0, 5.0):
        for p in (0.3, 0.7, 1.0, 2.0, 4.0):
            grid["dagum"].append(FamilySpec("dagum", (a, 1.0, p)))
    for mu in (-0.5, 0.0, 1.0, 2.0):
        for s in (0.3, 0.6, 1.0, 1.5, 2.0):
            grid["lognormal"].append(FamilySpec("lognormal", (mu, s)))
    for a in np.linspace(1.2, 12.0, 20):
        grid["fisk"].append(FamilySpec("fisk", (float(a), 1.0)))
    for a in np.linspace(0.6, 6.0, 20):
        grid["weibull"].append(FamilySpec("weibull", (float(a), 1.0)))
    return grid


class TestAcceptance:
    def test_1_closed_form_gini_vs_quadrature(self):
        t0 = time.time()
        worst = 0.0
        n_checked = 0
        for family, specs in family_grid().items():
            assert len(specs) >= 20, family
            for spec in specs:
                g = d.gini_closed(spec).value
                integral, _ = quad(lambda u: d.lorenz(spec, u), 0.0, 1.0, limit=200)
                worst = max(worst, abs(g - (1.0 - 2.0 * integral)))
                n_checked += 1
        elapsed = time.time() - t0
        report(
            1, "closed-form Gini vs quadrature",
            worst <= 1e-6 and elapsed < 30.0, elapsed,
            f"{n_checked} specs, max |diff| = {worst:.2e}",
        )

    def test_2_gb2_series_vs_monte_carlo_and_reductions(self):
        t0 = time.time()
        specs = [
            # small margins need a*q comfortably above 2, otherwise the
            # Monte Carlo reference itself is too noisy at n = 1e6
            FamilySpec("gb2", (5.0, 1.0, 0.6, 0.55)),  # margin 0.35
            FamilySpec("gb2", (2.5, 1.0, 0.7, 0.9)),   # margin 0.5
            FamilySpec("gb2", (2.0, 1.0, 1.0, 1.5)),
            FamilySpec("gb2", (2.0, 1.0, 0.8, 1.6)),
            FamilySpec("gb2", (2.5, 1.0, 1.5, 2.0)),
            FamilySpec("gb2", (1.5, 1.0, 1.2, 2.0)),
            FamilySpec("gb2", (3.0, 1.0, 0.5, 1.0)),
            FamilySpec("gb2", (1.2, 1.0, 2.0, 3.0)),
            FamilySpec("gb2", (4.0, 1.0, 0.6, 1.2)),
            FamilySpec("gb2", (2.0, 1.0, 2.5, 1.3)),
        ]
        worst_mc = 0.0
        for i, spec in enumerate(specs):
            a, _, p, q = spec.params
            assert q - 1.0 / a >= 0.3 - 1e-12
            g = d.gini_closed(spec)
            assert g.method == "quadrature"
            mc, _ = mc_gini(spec, n=1_000_000, seed=100 + i)
            worst_mc = max(worst_mc, abs(g.value - mc))
        # reductions: the series formula against the nested closed forms
        reductions = [
            (FamilySpec("gb2", (2.0, 1.0, 1.0, 1.0)), FamilySpec("fisk", (2.0, 1.0))),
            (FamilySpec("gb2", (1.0, 1.0, 2.0, 4.0)), FamilySpec("b2", (1.0, 2.0, 4.0))),
            (FamilySpec("gb2", (2.0, 1.0, 1.0, 1.6)), FamilySpec("sm", (2.0, 1.0, 1.6))),
            (FamilySpec("gb2", (2.5, 1.0, 1.4, 1.0)), FamilySpec("dagum", (2.5, 1.0, 1.4))),
        ]
        worst_red = 0.0
        for gb2_spec, nested in reductions:
            worst_red = max(
                worst_red,
                abs(d.gini_closed(gb2_spec).value - d.gini_closed(nested).value),
            )
        elapsed = time.time() - t0
        report(
            2, "GB2 series Gini vs Monte Carlo + reductions",
            worst_mc <= 0.003 and worst_red <= 1e-8 and elapsed < 120.0, elapsed,
            f"max |series-MC| = {worst_mc:.2e}, max reduction diff = {worst_red:.2e}",
        )

    def test_3_zero_noise_recovery(self):
        t0 = time.time()
        true_specs = {
            "gb2": FamilySpec("gb2", (2.0, 1.0, 0.8, 1.6)),
            "b2": FamilySpec("b2", (1.0, 1.3, 2.2)),
            "sm": FamilySpec("sm", (1.7, 1.0, 1.9)),
            "dagum": FamilySpec("dagum", (2.4, 1.0, 0.9)),
            "lognormal": FamilySpec("lognormal", (0.0, 0.8)),
            "fisk": FamilySpec("fisk", (2.5, 1.0)),
            "weibull": FamilySpec("weibull", (1.4, 1.0)),
        }
        u = np.arange(1, 11) / 10
        worst_shape, worst_gini, worst_move = 0.0, 0.0, 0.0
        for family, spec in true_specs.items():
            ds = GroupedDataset(
                id=family, u=u, s=d.lorenz(spec, u), mean=d.moment(spec, 1.0)
            )
            fit = nls_fit(family, ds)
            rel = np.max(
                np.abs(d.shapes_of(fit.spec) - d.shapes_of(spec)) / d.shapes_of(spec)
            )
            worst_shape = max(worst_shape, rel)
            worst_gini = max(
                worst_gini,
                abs(d.gini_closed(fit.spec).value - d.gini_closed(spec).value),
            )
            gmm = gmm_fit(ds, fit)
            worst_move = max(
                worst_move,
                np.max(np.abs(d.shapes_of(gmm.spec) - d.shapes_of(fit.spec))),
            )
        elapsed = time.time() - t0
        report(
            3, "zero-noise recovery",
            worst_shape < 1e-3 and worst_gini < 1e-4 and worst_move < 1e-3
            and elapsed < 60.0,
            elapsed,
            f"max shape rel err {worst_shape:.1e}, Gini err {worst_gini:.1e}, "
            f"GMM move {worst_move:.1e}",
        )

    def test_4_sampling_recovery(self):
        t0 = time.time()
        spec = FamilySpec("gb2", (2.5, 1.0, 1.5, 2.0))
        m = sample_family(spec, 200_000, seed=42)
        ds = microdata_to_grouped(m, GroupingPolicy(n_groups=10), id="gb2")
        fit = nls_fit("gb2", ds)
        g_fit = d.gini_closed(fit.spec).value
        err = abs(g_fit - ds.survey_gini)
        elapsed = time.time() - t0
        report(
            4, "sampling recovery GB2(2.5,1,1.5,2)",
            err < 0.005 and elapsed < 60.0, elapsed,
            f"|fitted - sample Gini| = {err:.2e}",
        )

    def test_5_lower_bound_dominance_and_refinement(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        violations = 0
        errs = {5: [], 10: []}
        for i in range(50):
            mu = rng.uniform(-0.5, 0.5)
            sigma = rng.uniform(0.4, 1.1)
            m = sample_family(FamilySpec("lognormal", (mu, sigma)), 5_000, seed=2_000 + i)
            for J in (5, 10):
                ds = microdata_to_grouped(m, GroupingPolicy(n_groups=J), id=f"c{i}")
                lb = lower_bound_gini(ds)
                if lb > ds.survey_gini + 1e-12:
                    violations += 1
                errs[J].append(abs(lb - ds.survey_gini))
        ratio = np.mean(errs[5]) / np.mean(errs[10])
        elapsed = time.time() - t0
        report(
            5, "lower-bound dominance and refinement",
            violations == 0 and ratio >= 1.5 and elapsed < 120.0, elapsed,
            f"0 of 50 violations expected, got {violations}; "
            f"5-share/10-share error ratio = {ratio:.2f}",
        )

    def test_6_bimodal_presets(self):
        t0 = time.time()
        errors = {}
        for J in (10, 5):
            gb2_errs, lb_errs = [], []
            for i, mx in enumerate(MIXTURE_PRESETS):
                m = sample_mixture(mx, 10_000, seed=100 + i)
                ds = microdata_to_grouped(m, GroupingPolicy(n_groups=J), id=f"p{i}")
                lb = lower_bound_gini(ds)
                fit = nls_fit("gb2", ds)
                g_fit = d.gini_closed(fit.spec).value
                gb2_errs.append(abs(g_fit - ds.survey_gini))
                lb_errs.append(abs(lb - ds.survey_gini))
            errors[J] = (float(np.mean(gb2_errs)), float(np.mean(lb_errs)))
        g10, l10 = errors[10]
        g5, l5 = errors[5]
        in_band = 0.002 <= g10 <= 0.05 and 0.002 <= l10 <= 0.05
        within_3x = max(g10, l10) <= 3.0 * min(g10, l10)
        five_share_order = l5 > g5
        elapsed = time.time() - t0
        report(
            6, "bimodal mixture presets",
            in_band and within_3x and five_share_order and elapsed < 180.0, elapsed,
            f"10-share mean errors gb2 {g10:.4f} / lb {l10:.4f}; "
            f"5-share gb2 {g5:.4f} < lb {l5:.4f}",
        )

    def test_7_atkinson_validation(self):
        t0 = time.time()
        worst = 0.0
        cfg = McConfig(n=1_000_000, seed=31)
        for sigma in (0.5, 1.0):
            for eps in (0.5, 1.0, 1.5):
                got = atkinson_mc(FamilySpec("lognormal", (0.0, sigma)), eps, cfg)
                want = 1.0 - math.exp(-eps * sigma**2 / 2.0)
                worst = max(worst, abs(got - want))
        elapsed = time.time() - t0
        report(
            7, "Atkinson vs lognormal analytic oracle",
            worst < 0.003 and elapsed < 60.0, elapsed,
            f"max |MC - analytic| = {worst:.2e}",
        )

    def test_8_gmm_structural_checks(self):
        t0 = time.time()
        u = np.arange(1, 11) / 10
        specs = [
            FamilySpec("lognormal", (0.0, 0.5)),
            FamilySpec("lognormal", (0.0, 1.0)),
            FamilySpec("weibull", (1.5, 2.0)),
            FamilySpec("b2", (1.0, 2.0, 12.0)),
            FamilySpec("sm", (3.0, 1.0, 4.0)),
        ]
        # the raw-formula check needs a light tail so that the part of the
        # second moment beyond quantile(1 - 1e-10) is itself below 1e-6
        light_tailed = {"lognormal(0.0, 0.5)", "weibull", "b2"}
        ok_psd, worst_raw = True, 0.0
        for spec in specs:
            ds = GroupedDataset(id="x", u=u, s=d.lorenz(spec, u))
            omega = weighting_matrix(spec, ds)
            ok_psd &= np.array_equal(omega, omega.T)
            ok_psd &= np.min(np.linalg.eigvalsh(omega)) >= -1e-10
            key = spec.family if spec.family != "lognormal" else f"lognormal{spec.params}"
            if key not in light_tailed:
                continue
            # boundary cancellation against the raw formula at a huge quantile
            hJ = d.quantile(spec, 1.0 - 1e-10)
            mu = d.moment(spec, 1.0)
            raw = (
                d.moment(spec, 2.0) * d.incomplete_moment_cdf(spec, 2.0, hJ)
                + (hJ - mu) * mu
                - hJ * mu
            )
            wjj = estimate._share_covariance(spec, ds)[0][-1, -1]
            worst_raw = max(worst_raw, abs(raw - wjj) / abs(wjj))
        # identity-weighted GMM residual rows are exactly the NLS rows, at the
        # NLS optimum and away from it
        spec = FamilySpec("lognormal", (0.0, 0.8))
        ds = GroupedDataset(id="x", u=u, s=d.lorenz(spec, u), mean=1.0)
        fit = nls_fit("lognormal", ds)
        x = np.log([d.shapes_of(fit.spec), [0.3], [2.0]])
        rows = [estimate._residual_factory("lognormal", u[:-1], ds.s[:-1], chol)(x)
                for chol in (None, np.eye(len(u) - 1))]
        exact = rows[0].tobytes() == rows[1].tobytes()
        elapsed = time.time() - t0
        report(
            8, "GMM structural checks",
            ok_psd and worst_raw < 1e-6 and exact and elapsed < 30.0, elapsed,
            f"Omega PSD: {ok_psd}; W_JJ raw-form rel diff {worst_raw:.2e}; "
            f"identity-whitened rows exact: {exact}",
        )

    def test_9_invariance_suite(self):
        t0 = time.time()
        failures = []
        us = np.linspace(0.0, 1.0, 1000)
        # each pair is the same distribution at two scales
        specs = {
            "gb2": (FamilySpec("gb2", (2.0, 1.5, 1.5, 2.5)), FamilySpec("gb2", (2.0, 4.5, 1.5, 2.5))),
            "b2": (FamilySpec("b2", (1.0, 2.0, 4.0)), FamilySpec("b2", (3.0, 2.0, 4.0))),
            "sm": (FamilySpec("sm", (2.0, 1.0, 1.5)), FamilySpec("sm", (2.0, 3.0, 1.5))),
            "dagum": (FamilySpec("dagum", (3.0, 2.0, 0.9)), FamilySpec("dagum", (3.0, 6.0, 0.9))),
            "lognormal": (
                FamilySpec("lognormal", (0.0, 1.0)),
                FamilySpec("lognormal", (math.log(3.0), 1.0)),
            ),
            "fisk": (FamilySpec("fisk", (3.0, 1.0)), FamilySpec("fisk", (3.0, 3.0))),
            "weibull": (FamilySpec("weibull", (1.5, 2.0)), FamilySpec("weibull", (1.5, 6.0))),
        }
        for name, (spec, other) in specs.items():
            L = d.lorenz(spec, us)
            if not (abs(L[0]) < 1e-12 and abs(L[-1] - 1.0) < 1e-12):
                failures.append(f"{name}: Lorenz boundary")
            if not np.all(L <= us + 1e-12):
                failures.append(f"{name}: Lorenz above diagonal")
            if np.min(np.diff(L, 2)) < -1e-10:
                failures.append(f"{name}: Lorenz convexity")
            if not np.array_equal(d.lorenz(spec, us), d.lorenz(other, us)):
                failures.append(f"{name}: Lorenz scale invariance")
            if d.gini_closed(spec).value != d.gini_closed(other).value:
                failures.append(f"{name}: Gini scale invariance")
        # Atkinson scale invariance on a weighted sample (exact)
        rng = np.random.default_rng(3)
        x = rng.lognormal(0.0, 1.0, 500)
        w = rng.random(500) + 0.1
        for eps in (0.5, 1.0, 1.5):
            a1 = weighted_atkinson(x, eps, w)
            a2 = weighted_atkinson(1e4 * x, eps, w)
            if abs(a1 - a2) > 1e-12:
                failures.append(f"Atkinson eps={eps} scale invariance")
        if abs(weighted_gini(x, w) - weighted_gini(1e4 * x, w)) > 1e-12:
            failures.append("sample Gini scale invariance")
        # specfun inverse round trips
        ys = np.linspace(0.01, 0.99, 25)
        for p in (0.5, 1.0, 2.0, 5.0):
            for q in (0.5, 1.0, 2.0, 5.0):
                back = special.betainc(p, q, inv_inc_beta_ratio(ys, p, q))
                if np.max(np.abs(back - ys)) > 1e-9:
                    failures.append(f"inc beta round trip p={p} q={q}")
        elapsed = time.time() - t0
        report(
            9, "invariance suite",
            not failures and elapsed < 60.0, elapsed,
            "no failures" if not failures else "; ".join(failures),
        )
