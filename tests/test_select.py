"""Goodness-of-fit scores, dominance matrices and error binning."""

import math

import numpy as np
import pytest

from gb2fit import distributions as d
from gb2fit.distributions import FamilySpec
from gb2fit.estimate import nls_fit, FitResult
from gb2fit.exceptions import DomainError
from gb2fit.grouped import GroupedDataset
from gb2fit.select import (
    ABS_ERROR_EDGES,
    REL_ERROR_EDGES,
    GofScores,
    dominance_matrix,
    error_report,
    gof_scores,
)


def fake_fit(rss, k, n=9):
    resid = np.zeros(n)
    resid[0] = math.sqrt(rss)
    return FitResult(
        spec=FamilySpec.fisk(2.0, 1.0),
        method="nls",
        objective=rss,
        residuals=resid,
        starts_tried=1,
        converged=True,
        k=k,
    )


class TestGofScores:
    def test_formulas(self):
        s = gof_scores(fake_fit(1e-4, 3, n=9))
        assert s.aic == pytest.approx(9 * math.log(1e-4 / 9) + 6)
        assert s.bic == pytest.approx(9 * math.log(1e-4 / 9) + 3 * math.log(9))

    def test_penalty_monotonicity(self):
        s4 = gof_scores(fake_fit(1e-4, 4))
        s3 = gof_scores(fake_fit(1e-4, 3))
        assert s3.aic < s4.aic and s3.bic < s4.bic

    def test_zero_rss_floored(self):
        s = gof_scores(fake_fit(0.0, 2))
        assert s.rss_floored and math.isfinite(s.aic)

    def test_unconverged_rejected(self):
        fit = FitResult(
            spec=FamilySpec.fisk(2.0, 1.0),
            method="nls",
            objective=1.0,
            residuals=np.ones(3),
            starts_tried=1,
            converged=False,
            k=1,
        )
        with pytest.raises(DomainError):
            gof_scores(fit)

    def test_criterion_accessor(self):
        s = gof_scores(fake_fit(1e-3, 2))
        assert s.criterion("aic") == s.aic
        with pytest.raises(DomainError):
            s.criterion("wssr")


class TestDominanceMatrix:
    def test_single_dataset(self):
        scores = [{"A": GofScores(1e-4, -10.0, -9.0, 2, 9), "B": GofScores(1e-3, -5.0, -4.0, 2, 9)}]
        m = dominance_matrix(scores, ["A", "B"], "aic")
        assert m[0, 1] == 1.0 and m[1, 0] == 0.0
        assert m[0, 0] == 1.0 and m[1, 1] == 1.0

    def test_ties_count_for_neither(self):
        s = GofScores(1e-4, -10.0, -9.0, 2, 9)
        m = dominance_matrix([{"A": s, "B": s}], ["A", "B"], "aic")
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0

    def test_brute_force_recount(self):
        rng = np.random.default_rng(1)
        models = ["A", "B", "C"]
        scores = []
        for _ in range(25):
            scores.append(
                {m: GofScores(1e-3, rng.integers(0, 4) * 1.0, 0.0, 2, 9) for m in models}
            )
        mat = dominance_matrix(scores, models, "aic")
        for r, mr in enumerate(models):
            for c, mc in enumerate(models):
                if r == c:
                    continue
                wins = sum(1 for s in scores if s[mr].aic < s[mc].aic)
                assert mat[r, c] == pytest.approx(wins / 25)

    def test_tie_free_complementarity(self):
        rng = np.random.default_rng(2)
        models = ["A", "B"]
        scores = [
            {m: GofScores(1e-3, float(rng.random()), 0.0, 2, 9) for m in models}
            for _ in range(30)
        ]
        mat = dominance_matrix(scores, models, "aic")
        assert mat[0, 1] + mat[1, 0] == pytest.approx(1.0)

    def test_empty_input(self):
        mat = dominance_matrix([], ["A", "B"], "aic")
        assert np.all(np.isnan(mat))

    def test_nested_beats_overfit_on_nested_truth(self):
        # shares generated from a GB2 far from p=q=1: gb2 should win AIC
        spec = FamilySpec.gb2(2.0, 1.0, 0.5, 3.0)
        u = np.arange(1, 11) / 10
        ds = GroupedDataset(id="x", u=u, s=d.lorenz(spec, u))
        s_gb2 = gof_scores(nls_fit("gb2", ds))
        s_fisk = gof_scores(nls_fit("fisk", ds))
        mat = dominance_matrix([{"gb2": s_gb2, "fisk": s_fisk}], ["gb2", "fisk"], "aic")
        assert mat[0, 1] == 1.0


class TestErrorReport:
    def test_exact_estimate_first_bin(self):
        rep = error_report({"m": [0.5]}, [0.5])
        assert rep["m"]["abs_bins"][0] == 1
        assert rep["m"]["rel_bins"][0] == 1

    def test_pathological_lower_bound(self):
        # estimated 0.188 vs benchmark 0.55: absolute error 0.362 -> last bin
        rep = error_report({"lb": [0.188]}, [0.55])
        assert rep["lb"]["abs_bins"][-1] == 1

    def test_bins_partition(self):
        rng = np.random.default_rng(3)
        bench = rng.uniform(0.2, 0.6, 40)
        est = bench + rng.normal(0.0, 0.05, 40)
        rep = error_report({"m": est}, bench)
        assert sum(rep["m"]["abs_bins"]) == 40
        assert sum(rep["m"]["rel_bins"]) == 40

    def test_edges_match_published_bins(self):
        assert ABS_ERROR_EDGES[:5] == (0.0, 0.01, 0.02, 0.05, 0.1)
        assert REL_ERROR_EDGES[:5] == (0.0, 0.01, 0.02, 0.05, 0.1)

    def test_misaligned_rejected(self):
        with pytest.raises(DomainError):
            error_report({"m": [0.5, 0.6]}, [0.5])

    def test_mean_abs_error(self):
        rep = error_report({"m": [0.5, 0.4]}, [0.4, 0.5])
        assert rep["m"]["mean_abs_error"] == pytest.approx(0.1)
