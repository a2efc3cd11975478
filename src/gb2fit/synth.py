"""Synthetic data: bimodal Weibull/truncated-normal mixtures and the
microdata-to-grouped pipeline used to mimic survey processing."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .exceptions import DomainError, ValidationError
from .grouped import GroupedDataset
from .measures import Microdata, weighted_gini

__all__ = [
    "MixtureSpec",
    "GroupingPolicy",
    "MIXTURE_PRESETS",
    "sample_mixture",
    "sample_family",
    "microdata_to_grouped",
    "weighted_quantile",
]


@dataclass(frozen=True)
class MixtureSpec:
    """Weibull + truncated-normal mixture parameters."""

    beta: float  # Weibull shape
    alpha: float  # Weibull scale
    omega: float  # Weibull mixing weight
    mu: float  # normal mean
    sigma: float  # normal std

    def __post_init__(self):
        if self.beta <= 0.0 or self.alpha <= 0.0 or self.sigma <= 0.0:
            raise DomainError("beta, alpha and sigma must be positive")
        if not 0.0 <= self.omega <= 1.0:
            raise DomainError("mixing weight must lie in [0, 1]")
        if not all(map(math.isfinite, (self.beta, self.alpha, self.mu, self.sigma))):
            raise DomainError("mixture parameters must be finite")


# cross-country income estimates with shapes ranging from heavy-tailed
# unimodal to clearly bimodal; ordering is (beta, mu, alpha, sigma, omega)
_PRESET_ROWS = [
    (2.02, 5.24, 1.40, 6.27, 0.70),
    (1.79, 6.68, 1.68, 6.50, 0.73),
    (1.63, 8.29, 2.03, 7.05, 0.73),
    (1.38, 10.66, 2.76, 3.13, 0.82),
    (1.35, 11.77, 2.95, 2.18, 0.82),
    (1.25, 13.32, 3.15, 3.02, 0.84),
]
MIXTURE_PRESETS = tuple(
    MixtureSpec(beta=b, mu=m, alpha=a, sigma=s, omega=w)
    for b, m, a, s, w in _PRESET_ROWS
)


@dataclass(frozen=True)
class GroupingPolicy:
    """Switches for the survey-style grouping pipeline."""

    n_groups: int = 10
    equivalise: bool = False
    bottom_code: bool = False
    top_code: bool = False

    def __post_init__(self):
        if self.n_groups < 2:
            raise DomainError("at least 2 groups required")


def sample_mixture(spec, n, seed=0):
    """Inverse-transform sample of the mixture; deterministic given seed."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    rng = np.random.default_rng(seed)
    pick_weibull = rng.random(n) < spec.omega
    u = rng.random(n)
    np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16, out=u)
    # truncated normal: map uniforms onto [Phi(-mu/sigma), 1)
    lo = special.ndtr(-spec.mu / spec.sigma)
    v = lo + (1.0 - lo) * u[~pick_weibull]
    if np.any(v >= 1.0):  # the normal quantile would be inf
        raise DomainError(
            f"truncated normal with mu={spec.mu}, sigma={spec.sigma} has too little "
            "mass above 0 to sample")
    x = np.empty(n)
    with np.errstate(over="ignore"):  # Microdata rejects what overflows
        x[pick_weibull] = dist.quantile(dist.FamilySpec("weibull", (spec.beta, spec.alpha)),
                                        u[pick_weibull])
        x[~pick_weibull] = spec.mu + spec.sigma * special.ndtri(v)
    return Microdata(values=x)


def sample_family(spec, n, seed=0):
    """Microdata from a family member by ``distributions.sample``: gamma
    ratios for gb2 and b2, the inverse transform otherwise."""
    with np.errstate(over="ignore"):  # Microdata rejects what overflows
        values = dist.sample(spec, n, seed=seed)
    return Microdata(values=values)


def weighted_quantile(values, weights, q):
    """Left-continuous weighted quantile (cumulative-weight convention)."""
    order = np.argsort(values, kind="stable")
    x = values[order]
    cw = np.cumsum(weights[order])
    target = q * cw[-1]
    idx = np.searchsorted(cw, target, side="left")
    return float(x[min(idx, len(x) - 1)])


def microdata_to_grouped(m, policy, household_sizes=None, id="synthetic"):
    """Survey-style grouping: equivalise, code, then cut into
    equal-population groups, keeping every record.

    Processing order: when equivalising, income / sqrt(household size) and
    weight * household size, each size positive and finite and the result
    valid ``Microdata``; bottom-code at 1% of the (pre-coding) weighted
    mean; top-code at 10x the weighted median; then cut at u_j = j/J with
    boundary records going to the lower group.
    """
    if policy.equivalise:
        if household_sizes is None:
            raise ValidationError("household sizes required for equivalisation")
        sizes = np.asarray(household_sizes, dtype=float)
        if sizes.shape != m.values.shape or not np.all((sizes > 0.0) & (sizes < np.inf)):
            raise ValidationError("household sizes must be positive, finite and aligned")
        # household weights -> person weights; Microdata rejects an income
        # that underflows to 0 and a weight that overflows
        with np.errstate(over="ignore"):
            m = Microdata(values=m.values / np.sqrt(sizes), weights=m.weights * sizes)
    values, weights = m.values, m.weights

    if policy.bottom_code:
        floor = 0.01 * float(np.sum(weights * values) / np.sum(weights))
        values = np.maximum(values, floor)
    if policy.top_code:
        cap = 10.0 * weighted_quantile(values, weights, 0.5)
        values = np.minimum(values, cap)

    order = np.argsort(values, kind="stable")
    x = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    total_w = cw[-1]
    J = policy.n_groups
    # group index: records exactly on a cut go to the lower group
    group = np.ceil(cw * J / total_w - 1e-12).astype(int)
    np.clip(group, 1, J, out=group)
    income_by_group = np.bincount(group - 1, weights=w * x, minlength=J)
    s = np.cumsum(income_by_group) / np.sum(w * x)
    s[-1] = 1.0
    # report the achieved cumulative population shares: whole records make
    # the cuts inexact, and claiming u_j = j/J would put (u_j, s_j) off the
    # empirical Lorenz curve (breaking lower_bound <= sample Gini)
    weight_by_group = np.bincount(group - 1, weights=w, minlength=J)
    u = np.cumsum(weight_by_group) / total_w
    u[-1] = 1.0
    return GroupedDataset(
        id=id,
        u=u,
        s=np.minimum(s, u),
        mean=float(np.sum(w * x) / total_w),
        survey_gini=weighted_gini(x, w),
    )
