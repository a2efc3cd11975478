"""Inequality measures: closed-form and Monte Carlo Atkinson indices for
fitted distributions (drawn by ``distributions.sample``), and weighted
sample measures for microdata.  A fitted distribution's Gini is
``distributions.gini_closed``."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import distributions as dist
from .exceptions import DomainError, ExistenceError, ValidationError
from .grouped import _polygon_gini

__all__ = [
    "McConfig",
    "Microdata",
    "atkinson_mc",
    "atkinson_closed",
    "atkinson_exists",
    "sample_measures",
    "weighted_gini",
    "weighted_atkinson",
]


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo sample size and seed."""

    n: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1_000:
            raise DomainError("Monte Carlo sample size must be >= 1000")


@dataclass(frozen=True)
class Microdata:
    """Positive incomes with positive person weights."""

    values: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = self.weights
        weights = np.ones_like(values) if weights is None else np.asarray(weights, dtype=float)
        if values.ndim != 1 or weights.shape != values.shape:
            raise ValidationError("values and weights must be 1-d and aligned")
        if len(values) == 0:
            raise ValidationError("microdata is empty")
        if np.any(values <= 0.0):
            raise ValidationError("all incomes must be positive")
        if np.any(weights <= 0.0):
            raise ValidationError("all weights must be positive")
        with np.errstate(over="ignore"):
            total = np.sum(weights * values)
        if not np.isfinite(total):
            raise ValidationError("incomes and weights must be finite, with a finite weighted total")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)


def weighted_gini(values, weights=None):
    """Gini of a weighted sample (trapezoid form on cumulative weights).

    Equals the mean-absolute-difference definition for the discrete
    distribution that puts mass w_i on x_i.
    """
    values = np.asarray(values, dtype=float)
    weights = np.ones_like(values) if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    x = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    cx = np.cumsum(w * x)
    return _polygon_gini(cw / cw[-1], cx / cx[-1])


def weighted_atkinson(values, epsilon, weights=None):
    """Atkinson index A_eps of a weighted sample."""
    if epsilon < 0.0:
        raise DomainError("Atkinson aversion parameter must be >= 0")
    values = np.asarray(values, dtype=float)
    weights = np.ones_like(values) if weights is None else np.asarray(weights, dtype=float)
    wsum = weights.sum()
    mu = float(np.sum(weights * values) / wsum)
    if epsilon == 0.0:
        return 0.0
    if epsilon == 1.0:
        # geometric-mean form computed in logs to avoid overflow
        logmean = float(np.sum(weights * np.log(values)) / wsum)
        a = 1.0 - math.exp(logmean - math.log(mu))
    else:
        m = float(np.sum(weights * (values / mu) ** (1.0 - epsilon)) / wsum)
        a = 1.0 - m ** (1.0 / (1.0 - epsilon))
    return min(max(a, 0.0), 1.0)


def atkinson_exists(spec, epsilon):
    """Whether A_eps is well defined: a finite mean and E[X^(1-eps)]."""
    return dist.moment_exists(spec, 1.0) and dist.moment_exists(spec, 1.0 - epsilon)


def atkinson_mc(spec, epsilon, cfg=McConfig()):
    """Monte Carlo Atkinson index for a fitted distribution."""
    if epsilon < 0.0:
        raise DomainError("Atkinson aversion parameter must be >= 0")
    if not atkinson_exists(spec, epsilon):
        raise ExistenceError(
            f"Atkinson index (eps={epsilon}) undefined for {spec.family}{spec.params}"
        )
    x = dist.sample(spec, cfg.n, seed=cfg.seed)
    return weighted_atkinson(x, epsilon)


def atkinson_closed(spec, epsilon):
    """Exact Atkinson index of a distribution from its moments.

    A_eps = 1 - (E[X^(1-eps)])^(1/(1-eps)) / mu, evaluated in logs, with
    the geometric mean exp(E[log X]) at eps = 1 (Jenkins 2009).  The scale
    cancels, so only the shapes enter.
    """
    if epsilon < 0.0:
        raise DomainError("Atkinson aversion parameter must be >= 0")
    if not atkinson_exists(spec, epsilon):
        raise ExistenceError(
            f"Atkinson index (eps={epsilon}) undefined for {spec.family}{spec.params}"
        )
    a = -math.expm1(
        dist.log_power_mean(spec, 1.0 - epsilon) - dist.log_power_mean(spec, 1.0)
    )
    return min(max(0.0, a), 1.0)  # 0.0 first: max keeps it over the -0.0 of eps = 0


def sample_measures(m, epsilons=(0.5, 1.0, 1.5)):
    """Weighted Gini, Atkinson set and mean of a microdata sample."""
    gini = weighted_gini(m.values, m.weights)
    wsum = m.weights.sum()
    mean = float(np.sum(m.weights * m.values) / wsum)
    atkinson = {
        float(e): weighted_atkinson(m.values, float(e), m.weights) for e in epsilons
    }
    return {"gini": gini, "atkinson": atkinson, "mean": mean}
