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
    _bin_counts,
    dominance_matrix,
    error_report,
    gof_scores,
)


def fake_fit(rss, k, n=9):
    resid = np.zeros(n)
    resid[0] = math.sqrt(rss)
    return FitResult(
        spec=FamilySpec("fisk", (2.0, 1.0)),
        method="nls",
        objective=rss,
        residuals=resid,
        starts_tried=1,
        converged=True,
        k=k,
    )


class TestGofScores:
    def test_formulas(self):
        aic, bic = gof_scores(fake_fit(1e-4, 3, n=9))
        assert aic == pytest.approx(9 * math.log(1e-4 / 9) + 6)
        assert bic == pytest.approx(9 * math.log(1e-4 / 9) + 3 * math.log(9))

    def test_penalty_monotonicity(self):
        aic4, bic4 = gof_scores(fake_fit(1e-4, 4))
        aic3, bic3 = gof_scores(fake_fit(1e-4, 3))
        assert aic3 < aic4 and bic3 < bic4

    def test_zero_rss_floored(self):
        aic, bic = gof_scores(fake_fit(0.0, 2))
        assert math.isfinite(aic) and math.isfinite(bic)

    def test_unconverged_rejected(self):
        fit = FitResult(
            spec=FamilySpec("fisk", (2.0, 1.0)),
            method="nls",
            objective=1.0,
            residuals=np.ones(3),
            starts_tried=1,
            converged=False,
            k=1,
        )
        with pytest.raises(DomainError):
            gof_scores(fit)


class TestDominanceMatrix:
    def test_single_dataset(self):
        m = dominance_matrix([[-10.0, -5.0]])
        assert m[0, 1] == 1.0 and m[1, 0] == 0.0
        assert m[0, 0] == 1.0 and m[1, 1] == 1.0

    def test_ties_count_for_neither(self):
        m = dominance_matrix([[-10.0, -10.0]])
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0

    def test_brute_force_recount(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(0, 4, size=(25, 3)) * 1.0
        mat = dominance_matrix(scores)
        for r in range(3):
            for c in range(3):
                if r == c:
                    continue
                wins = sum(1 for s in scores if s[r] < s[c])
                assert mat[r, c] == pytest.approx(wins / 25)

    def test_brute_force_recount_with_missing_cells(self):
        rng = np.random.default_rng(4)
        scores = rng.integers(0, 4, size=(25, 4)) * 1.0
        scores[rng.random((25, 4)) < 0.2] = np.nan
        scores[~np.isnan(scores[:, 2]), 3] = np.nan  # models 2 and 3 never meet
        assert 0.15 < np.isnan(scores).mean() < 0.45
        mat = dominance_matrix(scores)
        for r in range(4):
            for c in range(4):
                if r == c:
                    assert mat[r, c] == 1.0
                    continue
                both = [s for s in scores if not np.isnan(s[r]) and not np.isnan(s[c])]
                if not both:
                    assert np.isnan(mat[r, c])
                    continue
                wins = sum(1 for s in both if s[r] < s[c])
                assert mat[r, c] == pytest.approx(wins / len(both))
        assert np.isnan(mat[2, 3]) and np.isnan(mat[3, 2])

    def test_tie_free_complementarity(self):
        rng = np.random.default_rng(2)
        mat = dominance_matrix(rng.random((30, 2)))
        assert mat[0, 1] + mat[1, 0] == pytest.approx(1.0)

    def test_empty_input(self):
        mat = dominance_matrix(np.empty((0, 2)))
        assert mat.shape == (2, 2) and np.all(np.isnan(mat))

    def test_nested_beats_overfit_on_nested_truth(self):
        # shares generated from a GB2 far from p=q=1: gb2 should win AIC
        spec = FamilySpec("gb2", (2.0, 1.0, 0.5, 3.0))
        u = np.arange(1, 11) / 10
        ds = GroupedDataset(id="x", u=u, s=d.lorenz(spec, u))
        aic_gb2, _ = gof_scores(nls_fit("gb2", ds))
        aic_fisk, _ = gof_scores(nls_fit("fisk", ds))
        mat = dominance_matrix([[aic_gb2, aic_fisk]])
        assert mat[0, 1] == 1.0


def reference_bin_index(value, edges):
    """The bin of one error by a scan of the edges: the first half-open
    [edges[i], edges[i + 1]) holding it, else the last bin."""
    for i in range(len(edges) - 1):
        if edges[i] <= value < edges[i + 1]:
            return i
    return len(edges) - 2


class TestErrorReport:
    def test_exact_estimate_first_bin(self):
        rep = error_report([0.5], [0.5])
        assert rep["abs_bins"][0] == 1
        assert rep["rel_bins"][0] == 1

    def test_pathological_lower_bound(self):
        # estimated 0.188 vs benchmark 0.55: absolute error 0.362 -> last bin
        rep = error_report([0.188], [0.55])
        assert rep["abs_bins"][-1] == 1

    def test_bins_partition(self):
        rng = np.random.default_rng(3)
        bench = rng.uniform(0.2, 0.6, 40)
        est = bench + rng.normal(0.0, 0.05, 40)
        rep = error_report(est, bench)
        assert sum(rep["abs_bins"]) == 40
        assert sum(rep["rel_bins"]) == 40

    def test_edges_match_published_bins(self):
        assert ABS_ERROR_EDGES[:5] == (0.0, 0.01, 0.02, 0.05, 0.1)
        assert REL_ERROR_EDGES[:5] == (0.0, 0.01, 0.02, 0.05, 0.1)

    def test_misaligned_rejected(self):
        with pytest.raises(DomainError):
            error_report([0.5, 0.6], [0.5])

    def test_mean_abs_error(self):
        rep = error_report([0.5, 0.4], [0.4, 0.5])
        assert rep["mean_abs_error"] == pytest.approx(0.1)

    @pytest.mark.parametrize("edges", [ABS_ERROR_EDGES, REL_ERROR_EDGES], ids=["abs", "rel"])
    def test_edge_values_match_scan(self, edges):
        inner = edges[1:-1]
        values = [0.0, *inner, *np.nextafter(inner, 0.0), math.inf, math.nan]
        for v in values:
            expected = [0] * (len(edges) - 1)
            expected[reference_bin_index(v, edges)] = 1
            assert _bin_counts([v], edges) == expected, v
        all_at_once = [0] * (len(edges) - 1)
        for v in values:
            all_at_once[reference_bin_index(v, edges)] += 1
        assert _bin_counts(values, edges) == all_at_once
