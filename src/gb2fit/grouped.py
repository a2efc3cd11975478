"""Grouped income data: validated Lorenz ordinates, their convexity and
the nonparametric lower-bound Gini."""

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ValidationError

__all__ = ["GroupedDataset", "from_shares", "lower_bound_gini", "slope_drop"]


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class GroupedDataset:
    """Cumulative population/income share pairs (u_j, s_j).

    ``u`` and ``s`` are strictly increasing with last element 1; ``mean``
    and ``survey_gini`` are optional extra survey statistics.
    """

    id: str
    u: np.ndarray
    s: np.ndarray
    mean: Optional[float] = None
    survey_gini: Optional[float] = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        problems = []
        if u.ndim != 1 or s.ndim != 1 or len(u) != len(s):
            problems.append("u and s must be 1-d vectors of equal length")
        elif not (np.all(np.isfinite(u)) and np.all(np.isfinite(s))):
            problems.append("u and s must be finite")
        else:
            if len(u) < 2:
                problems.append("at least 2 groups required")
            if np.any(u <= 0.0) or np.any(np.diff(u) <= 0.0):
                problems.append("u must be strictly increasing with u_1 > 0")
            if len(u) and abs(u[-1] - 1.0) > 1e-9:
                problems.append("last population proportion must equal 1")
            # weakly increasing: empty groups (zero income share) are legal
            if np.any(s < 0.0) or np.any(np.diff(s) < 0.0):
                problems.append("s must be non-decreasing with s_1 >= 0")
            if len(s) and abs(s[-1] - 1.0) > 1e-9:
                problems.append("last income share must equal 1")
            if np.any(s > u + 1e-12):
                problems.append("income shares must satisfy s_j <= u_j")
        if self.mean is not None and not (_is_number(self.mean) and 0.0 < self.mean < np.inf):
            problems.append("mean must be positive and finite")
        if self.survey_gini is not None and not (
            _is_number(self.survey_gini) and 0.0 <= self.survey_gini < 1.0
        ):
            problems.append("survey_gini must lie in [0, 1)")
        if problems:
            raise ValidationError(
                f"invalid grouped dataset {self.id!r}: " + "; ".join(problems)
            )
        u.flags.writeable = False
        s.flags.writeable = False

    @property
    def n_groups(self):
        return len(self.u)


def from_shares(shares, id="dataset", mean=None, survey_gini=None):
    """Build a GroupedDataset from the non-cumulative income shares of
    equal-population groups.

    Shares are fractions that sum to 1 within 0.005, or percentages that
    sum to 100 within 0.5, as published tables rounded to 0.1 percentage
    point do; either way they are divided by their sum.
    """
    shares = np.asarray(shares, dtype=float)
    total = shares.sum()
    if abs(total - 1.0) > 0.005 and abs(total - 100.0) > 0.5:
        raise ValidationError(
            f"invalid grouped dataset {id!r}: shares sum to {total:.8f}, not 1 or 100"
        )
    shares = shares / total
    s = np.cumsum(shares)
    u = np.cumsum(np.full(len(shares), 1.0 / len(shares)))
    s[-1] = 1.0
    u[-1] = 1.0
    return GroupedDataset(id=id, u=u, s=s, mean=mean, survey_gini=survey_gini)


def lower_bound_gini(d):
    """Gini of the linearly interpolated Lorenz curve; 0 exactly when s = u."""
    return _polygon_gini(d.u, d.s)


def _polygon_gini(u, s):
    """Gini of the Lorenz polygon through (0, 0) and each (u_j, s_j): 1
    minus twice the trapezoid area under its chords, clipped to [0, 1]."""
    u = np.concatenate(([0.0], u))
    s = np.concatenate(([0.0], s))
    g = float(np.sum(np.diff(s) * (u[1:] + u[:-1])) - 1.0)
    return min(max(g, 0.0), 1.0)


def slope_drop(d):
    """The largest drop between the slopes (s_j - s_(j-1)) / (u_j - u_(j-1))
    of adjacent groups, from (0, 0): each slope is a group's mean share, its
    mean income over the overall mean, which rises with j on every Lorenz
    curve.  Returns the drop (at most 0 when the shares are convex), the
    number j of the group after it, counted from 1, and the slopes."""
    slopes = np.diff(d.s, prepend=0.0) / np.diff(d.u, prepend=0.0)
    drops = slopes[:-1] - slopes[1:]
    j = int(np.argmax(drops))
    return float(drops[j]), j + 2, slopes
