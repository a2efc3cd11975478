"""Inequality measures: Monte Carlo Gini/Atkinson for fitted distributions
and weighted sample measures for microdata."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from . import distributions as dist
from .distributions import GiniValue
from .exceptions import DomainError, ExistenceError, ValidationError

__all__ = [
    "McConfig",
    "Microdata",
    "gini_mc",
    "atkinson_mc",
    "atkinson_closed",
    "atkinson_exists",
    "sample_measures",
    "weighted_gini",
    "weighted_atkinson",
]

_MC_BATCHES = 20


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
        if self.weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or weights.shape != values.shape:
            raise ValidationError("values and weights must be 1-d and aligned")
        if len(values) == 0:
            raise ValidationError("microdata is empty")
        if np.any(values <= 0.0):
            raise ValidationError("all incomes must be positive")
        if np.any(weights <= 0.0):
            raise ValidationError("all weights must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)


def _draw(spec, cfg):
    """Inverse-transform sample, deterministic given the seed."""
    rng = np.random.default_rng(cfg.seed)
    u = rng.random(cfg.n)
    np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16, out=u)
    return dist.quantile(spec, u)


def weighted_gini(values, weights=None):
    """Gini of a weighted sample (trapezoid form on cumulative weights).

    Equals the mean-absolute-difference definition for the discrete
    distribution that puts mass w_i on x_i.
    """
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    x = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    cx = np.cumsum(w * x)
    cu = cw / cw[-1]
    cs = cx / cx[-1]
    u = np.concatenate(([0.0], cu))
    s = np.concatenate(([0.0], cs))
    g = float(np.sum(np.diff(s) * (u[1:] + u[:-1])) - 1.0)
    return min(max(g, 0.0), 1.0)


def weighted_atkinson(values, epsilon, weights=None):
    """Atkinson index A_eps of a weighted sample."""
    if epsilon < 0.0:
        raise DomainError("Atkinson aversion parameter must be >= 0")
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
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


def gini_mc(spec, cfg=McConfig()):
    """Monte Carlo Gini with a batch-means standard error."""
    if not dist.mean_exists(spec):
        raise ExistenceError(
            f"Gini undefined for {spec.family}{spec.params}: mean does not exist"
        )
    x = _draw(spec, cfg)
    value = weighted_gini(x)
    batches = np.array_split(x, _MC_BATCHES)
    bg = np.array([weighted_gini(b) for b in batches])
    se = float(bg.std(ddof=1) / math.sqrt(_MC_BATCHES))
    return GiniValue(value, "monte_carlo", mc_std_error=se)


def atkinson_exists(spec, epsilon):
    """Whether A_eps is well defined (E[X^(1-eps)] finite when eps > 1)."""
    if not dist.mean_exists(spec):
        return False
    if epsilon <= 1.0:
        return True
    k = epsilon - 1.0  # need a finite negative moment E[X^-k]
    g = spec.as_gb2()
    if g is not None:
        a, _, p, _ = g.params
        return p > k / a
    if spec.family == "weibull":
        a, _ = spec.params
        return a > k
    return True  # lognormal


def atkinson_mc(spec, epsilon, cfg=McConfig()):
    """Monte Carlo Atkinson index for a fitted distribution."""
    if epsilon < 0.0:
        raise DomainError("Atkinson aversion parameter must be >= 0")
    if not atkinson_exists(spec, epsilon):
        raise ExistenceError(
            f"Atkinson index (eps={epsilon}) undefined for {spec.family}{spec.params}"
        )
    x = _draw(spec, cfg)
    return weighted_atkinson(x, epsilon)


def _log_power_mean(spec, k):
    """log (E[X^k])^(1/k) at unit scale; the limit k = 0 is E[log X]."""
    g = spec.as_gb2()
    if g is not None:
        # log of the beta ratio B(p + k/a, q - k/a) / B(p, q); the log
        # gamma of p + q cancels, which keeps the difference accurate
        a, _, p, q = g.params
        if k == 0.0:
            return float(special.digamma(p) - special.digamma(q)) / a
        return float(
            special.gammaln(p + k / a) - special.gammaln(p)
            + special.gammaln(q - k / a) - special.gammaln(q)
        ) / k
    if spec.family == "lognormal":  # E[X^k] = exp(k^2 sigma^2 / 2)
        return k * spec.params[1] ** 2 / 2.0
    a = spec.params[0]  # weibull: E[X^k] = Gamma(1 + k/a)
    if k == 0.0:
        return float(special.digamma(1.0)) / a
    return float(special.gammaln(1.0 + k / a)) / k


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
    a = -math.expm1(_log_power_mean(spec, 1.0 - epsilon) - _log_power_mean(spec, 1.0))
    return min(max(a, 0.0), 1.0)


def sample_measures(m, epsilons=(0.5, 1.0, 1.5)):
    """Weighted Gini, Atkinson set and mean of a microdata sample."""
    gini = weighted_gini(m.values, m.weights)
    wsum = m.weights.sum()
    mean = float(np.sum(m.weights * m.values) / wsum)
    atkinson = {
        float(e): weighted_atkinson(m.values, float(e), m.weights) for e in epsilons
    }
    return {"gini": gini, "atkinson": atkinson, "mean": mean}
