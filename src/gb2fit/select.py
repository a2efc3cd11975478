"""Goodness-of-fit scoring and model competition across datasets."""

import math

import numpy as np

from .exceptions import DomainError

__all__ = [
    "gof_scores",
    "dominance_matrix",
    "error_report",
    "ABS_ERROR_EDGES",
    "REL_ERROR_EDGES",
]

_RSS_FLOOR = 1e-300

ABS_ERROR_EDGES = (0.0, 0.01, 0.02, 0.05, 0.1, math.inf)
REL_ERROR_EDGES = (0.0, 0.01, 0.02, 0.05, 0.1, math.inf)


def gof_scores(fit):
    """(AIC, BIC) on the least-squares objective, n = J - 1 share residuals.

    These are comparable only within this toolkit (the shares model has
    no likelihood).  An RSS of 0 is floored at 1e-300, so both stay finite.
    """
    if not fit.converged:
        raise DomainError("goodness-of-fit scores require a converged fit")
    n = len(fit.residuals)
    fit_term = n * math.log(max(fit.rss, _RSS_FLOOR) / n)
    return fit_term + 2.0 * fit.k, fit_term + fit.k * math.log(n)


def dominance_matrix(values):
    """Pairwise win shares from a (datasets x models) array of AIC or BIC,
    NaN where a model has no score on a dataset: entry (r, c) is the
    fraction of the datasets scoring both models where model r is strictly
    lower than model c.  Ties count for neither side; a pair that no
    dataset scores together is NaN, and the diagonal is 1 by convention.
    """
    values = np.asarray(values, dtype=float)
    if not len(values):
        return np.full((values.shape[-1],) * 2, np.nan)
    scored = ~np.isnan(values)
    counts = (scored[:, :, None] & scored[:, None, :]).sum(axis=0)
    wins = (values[:, :, None] < values[:, None, :]).sum(axis=0)  # False where either is NaN
    with np.errstate(invalid="ignore"):
        out = np.where(counts > 0, wins / np.maximum(counts, 1), np.nan)
    np.fill_diagonal(out, 1.0)
    return out


def _bin_counts(errors, edges):
    """Counts per bin [edges[i], edges[i + 1]); the last bin also takes inf
    and NaN."""
    return np.bincount(np.searchsorted(edges[1:-1], errors, side="right"),
                       minlength=len(edges) - 1).tolist()


def error_report(values, benchmarks):
    """Binned absolute and relative Gini errors of ``values`` against ``benchmarks``
    (the survey Ginis); against a benchmark of 0 the relative error is 0 or inf."""
    values = np.asarray(values, dtype=float)
    benchmarks = np.asarray(benchmarks, dtype=float)
    if values.shape != benchmarks.shape:
        raise DomainError("estimates not aligned with benchmarks")
    abs_err = np.abs(values - benchmarks)
    rel_err = np.divide(abs_err, benchmarks, out=np.where(abs_err > 0, np.inf, 0.0),
                        where=benchmarks != 0)
    return {
        "mean_abs_error": float(abs_err.mean()),
        "abs_bins": _bin_counts(abs_err, ABS_ERROR_EDGES),
        "rel_bins": _bin_counts(rel_err, REL_ERROR_EDGES),
        "n": len(values),
    }
