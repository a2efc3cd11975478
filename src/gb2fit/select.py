"""Goodness-of-fit scoring and model competition across datasets."""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

__all__ = [
    "GofScores",
    "gof_scores",
    "dominance_matrix",
    "error_report",
    "ABS_ERROR_EDGES",
    "REL_ERROR_EDGES",
]

_RSS_FLOOR = 1e-300

ABS_ERROR_EDGES = (0.0, 0.01, 0.02, 0.05, 0.1, math.inf)
REL_ERROR_EDGES = (0.0, 0.01, 0.02, 0.05, 0.1, math.inf)


@dataclass(frozen=True)
class GofScores:
    """Least-squares information criteria for one fitted model."""

    rss: float
    aic: float
    bic: float
    k: int
    n: int
    rss_floored: bool = False

    def criterion(self, name):
        if name not in ("rss", "aic", "bic"):
            raise DomainError(f"criterion {name!r} not available")
        return getattr(self, name)


def gof_scores(fit):
    """AIC/BIC on the least-squares objective, n = J - 1 share residuals.

    These are comparable only within this toolkit (the shares model has
    no likelihood).
    """
    if not fit.converged:
        raise DomainError("goodness-of-fit scores require a converged fit")
    n = len(fit.residuals)
    k = fit.k
    rss = fit.rss
    floored = rss < _RSS_FLOOR
    rss = max(rss, _RSS_FLOOR)
    aic = n * math.log(rss / n) + 2.0 * k
    bic = n * math.log(rss / n) + k * math.log(n)
    return GofScores(rss=rss, aic=aic, bic=bic, k=k, n=n, rss_floored=floored)


def dominance_matrix(scores_by_dataset, models, criterion="aic"):
    """Pairwise win shares: entry (r, c) is the fraction of datasets where
    model r strictly beats model c on the criterion.  Ties count for
    neither side; the diagonal is 1 by convention.
    """
    scores_by_dataset = list(scores_by_dataset)
    if not scores_by_dataset:
        return np.full((len(models), len(models)), np.nan)
    wins = np.zeros((len(models), len(models)))
    counts = np.zeros((len(models), len(models)))
    for per_model in scores_by_dataset:
        for r, mr in enumerate(models):
            for c, mc in enumerate(models):
                if r == c or mr not in per_model or mc not in per_model:
                    continue
                counts[r, c] += 1
                if per_model[mr].criterion(criterion) < per_model[mc].criterion(criterion):
                    wins[r, c] += 1
    with np.errstate(invalid="ignore"):
        out = np.where(counts > 0, wins / np.maximum(counts, 1), np.nan)
    np.fill_diagonal(out, 1.0)
    return out


def _bin_index(value, edges):
    for i in range(len(edges) - 1):
        if edges[i] <= value < edges[i + 1]:
            return i
    return len(edges) - 2


def error_report(estimates, benchmarks):
    """Binned absolute and relative Gini errors per estimation method.

    ``estimates`` maps method name to a list of estimated Ginis aligned
    with ``benchmarks`` (the survey Ginis).
    """
    benchmarks = np.asarray(benchmarks, dtype=float)
    report = {}
    for method, values in estimates.items():
        values = np.asarray(values, dtype=float)
        if values.shape != benchmarks.shape:
            raise DomainError(f"estimates for {method!r} not aligned with benchmarks")
        abs_err = np.abs(values - benchmarks)
        rel_err = abs_err / benchmarks
        abs_bins = [0] * (len(ABS_ERROR_EDGES) - 1)
        rel_bins = [0] * (len(REL_ERROR_EDGES) - 1)
        for ae, re in zip(abs_err, rel_err):
            abs_bins[_bin_index(ae, ABS_ERROR_EDGES)] += 1
            rel_bins[_bin_index(re, REL_ERROR_EDGES)] += 1
        report[method] = {
            "mean_abs_error": float(abs_err.mean()),
            "abs_bins": abs_bins,
            "rel_bins": rel_bins,
            "n": len(values),
        }
    return report
