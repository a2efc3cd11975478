"""NLS and two-step GMM estimation of shape parameters from grouped data.

Only shape parameters enter the share-fitting objective (the Lorenz curve
is scale-free); the scale is recovered afterwards from the sample mean
when one is available, and is 1 otherwise.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import distributions as dist
from .distributions import FamilySpec, spec_from_shapes
from .exceptions import EstimationError, ExistenceError
from .grouped import lower_bound_gini

__all__ = [
    "FitResult",
    "starting_values",
    "nls_runs",
    "nls_fit",
    "solve_scale",
    "weighting_matrix",
    "gmm_fit",
]

# |log shape| is bounded by this; shapes past 1e4 only arise in degenerate
# limits (e.g. the lognormal corner of GB2) where the Lorenz curve is flat
# in the parameters but the quantile function is no longer numerically usable
_LOG_SHAPE_BOUND = math.log(1e4)


@dataclass(frozen=True)
class FitResult:
    """Estimated shapes plus diagnostics of the minimization."""

    spec: FamilySpec
    method: str  # "nls" | "gmm"
    objective: float
    residuals: np.ndarray
    starts_tried: int
    converged: bool
    k: int
    note: str = ""

    @property
    def rss(self):
        return float(np.sum(self.residuals**2))


def _gini_anchor(d):
    g = d.survey_gini if d.survey_gini is not None else lower_bound_gini(d)
    return min(max(g, 1e-4), 1.0 - 1e-4)


# McDonald's (1984) nesting tree: each family with more than one shape is
# started from the optima of the families it nests, its donors
_DONORS = {"b2": ("lognormal",), "sm": ("fisk",), "dagum": ("fisk",), "gb2": ("b2", "sm", "dagum")}


def _nested_start(family, donor, shapes):
    """The start of ``family`` at its donor's shapes: fisk(a) is sm(a, 1)
    and dagum(a, 1); b2 takes p = q = 2/sigma^2, which gives log B2 about
    the lognormal's variance (psi'(p) + psi'(q) ~ 2/p), clipped to the
    region where its mean exists and to the shape box; and the b2, sm and
    dagum shapes are GB2 shapes through ``to_gb2``."""
    if family == "gb2":
        return np.array(dist._TABLE[donor].to_gb2(*shapes))
    if family == "b2":
        p = min(max(2.0 / shapes[0] ** 2, 1.001), 1e4)
        return np.array([p, p])
    return np.array([shapes[0], 1.0])


def starting_values(family, d):
    """The Gini-anchored starting shapes of ``family``.

    One-shape families invert their closed-form Gini at the anchor (the
    survey Gini when present, the lower bound otherwise).  The others take
    their first donor's start through ``_nested_start``.  ``nls_runs``
    starts them from their best donor's optimum instead, and from this
    start where every donor's run fails.
    """
    g = _gini_anchor(d)
    if family == "fisk":
        return np.array([1.0 / g])
    if family == "weibull":
        return np.array([math.log(2.0) / (-math.log1p(-g))])
    if family == "lognormal":
        return np.array([math.sqrt(2.0) * special.ndtri((1.0 + g) / 2.0)])
    if family not in _DONORS:
        raise EstimationError(f"unknown family {family!r}")
    donor = _DONORS[family][0]
    return _nested_start(family, donor, starting_values(donor, d))


def _residual_factory(family, u, s, chol=None):
    """Residual rows of a stack of log-shape rows (m, k).

    In each row the share residuals come first, whitened to L^-1 m for GMM
    when the Cholesky factor L of Omega is given, then
    one entry per shape for the excess beyond the log-shape bound, then one
    entry for the infeasibility barrier, so the row's sum of squares is the
    objective with its penalties.  Infeasible rows zero the share entries
    and put a sloped barrier in the last one.  ``_levenberg_marquardt``
    never leaves the bound, but a general least-squares solver run on these
    rows (the MINPACK oracle of the tests) does, and the excess entries
    steer it back.
    """
    n = len(u)

    def residuals(x):
        xc = x.clip(-_LOG_SHAPE_BOUND, _LOG_SHAPE_BOUND)
        cols = dist._shape_columns(np.exp(xc), 1)
        margin = dist._margin(family, cols)[:, 0]
        out = np.zeros((len(x), n + x.shape[1] + 1))
        out[:, n:-1] = x - xc
        rows = margin > 0.0  # the feasible rows
        # np.count_nonzero, here and in the solver, is the cheapest any or all of a small mask
        if np.count_nonzero(rows) == len(rows):  # the usual case, without boolean-index copies
            rows = slice(None)
        else:
            out[:, -1] = np.where(rows, 0.0, 100.0 * np.sqrt(1.0 - np.minimum(margin, 0.0)))
            if not np.count_nonzero(rows):
                return out
            cols = cols[:, rows]
        with np.errstate(all="ignore"):
            m = dist._lorenz_columns(family, cols, u) - s
        finite = np.isfinite(m).all(axis=1)
        m[~finite] = 0.0
        out[rows, -1] = np.where(finite, 0.0, 1e4)
        if chol is not None:
            m = np.linalg.solve(chol, m.T).T
        out[rows, :n] = m
        return out

    return residuals


# Levenberg-Marquardt runs one row per fit, with forward differences of
# relative step _FD_STEP (sqrt of machine eps, as scipy's "2-point").  The box
# |x| <= _LOG_SHAPE_BOUND is a hard bound, as in a projected
# Levenberg-Marquardt (Kanzow, Yamashita & Fukushima 2004): a step that would
# cross it puts the crossing coordinates on its edge and solves again for the
# others, a difference that would leave it is taken inward, and a coordinate
# on its edge whose descent direction points out is held, its Jacobian column
# zeroed.  Inside the box all three are no-ops.  A row converges when its
# relative step, its relative decrease or the largest cosine between its
# residuals and a free Jacobian column falls below _XTOL, _FTOL or _GTOL; it
# stops unconverged after _MAX_ITER iterations (the equal-shares limit of a
# one-shape family takes about 50).
_FD_STEP = np.finfo(float).eps ** 0.5
_XTOL, _FTOL, _GTOL, _MAX_ITER = 1e-10, 1e-12, 1e-10, 200


def _values_and_jacobians(residuals, x, i):
    """Residuals f (m, n) at the rows of x (m, k) and the transposed
    forward-difference Jacobians (m, k, n), row j from one call of
    ``residuals[i[j]]`` on it and its stencil; every stencil point stays
    inside the log-shape box."""
    k = x.shape[1]
    h = np.where(x >= 0, _FD_STEP, -_FD_STEP) * np.maximum(1.0, np.abs(x))
    h = np.where(np.abs(x + h) > _LOG_SHAPE_BOUND, -h, h)  # difference inward at the edge
    points = x[:, None] + np.eye(k + 1, k, -1) * h[:, None]  # x, then x + h_j e_j
    if len(i) == 1:  # one row: its function's own output, without a stack
        r = residuals[i[0]](points[0])[None]
    else:
        r = np.stack([residuals[c](p) for c, p in zip(i, points)])
    dx = points[:, 1:].diagonal(0, 1, 2) - x
    return r[:, 0], (r[:, 1:] - r[:, :1]) / dx[..., None]


def _onto_edge(a, g, x, trial):
    """The trial points x + step of rows whose step, solving a step = -g,
    crosses the box: each crossing coordinate is put exactly on the edge and
    a step = -g solved again for the others, until no free one crosses."""
    eye, edge = np.eye(x.shape[1]), np.zeros(x.shape, bool)
    while (out := np.abs(trial) > _LOG_SHAPE_BOUND).any():
        edge |= out
        trial = np.where(edge, np.copysign(_LOG_SHAPE_BOUND, trial), trial)
        held = np.where(edge, trial - x, 0.0)
        free = ~edge[:, :, None] & ~edge[:, None, :]
        a_free = np.where(free, a, eye * edge[:, None, :])  # a principal block of a, beside an identity
        rhs = np.where(edge, held, -g - np.add.reduce(a * held[:, None], axis=2))
        trial = np.where(edge, trial, x + np.linalg.solve(a_free, rhs[..., None])[..., 0])
    return trial


def _levenberg_marquardt(residuals, x0s):
    """Levenberg-Marquardt from every row of x0s (m, k) in lockstep: an
    iteration makes one call of each running row's function, on its trial
    point and stencil, and solves every (J'J + lam D) step = -J'f at once,
    D the running maximum of diag J'J (More 1978).  ``residuals`` is a
    sequence of m functions and row j is evaluated by ``residuals[j]``, so
    the fits of several families step together.  A step that crosses the
    box is solved again on its edge (``_onto_edge``), its gain ratio taken
    against -(2 g'step + |J step|^2) for the step taken.  Rows accept, damp
    (Nielsen's rule) and stop on their own and never mix, so a row ends the
    same bit for bit alone or in a batch.  Returns the points, their sums of
    squares and whether each row converged."""
    x = np.array(x0s, dtype=float)
    m, k = x.shape
    eye = np.eye(k)
    x_end, cost_end, done = np.empty_like(x), np.empty(m), np.zeros(m, bool)
    # the state of the running rows only: row j of it is row i[j] of x0s
    i, lam, nu, d = np.arange(m), np.full(m, 1e-3), np.full(m, 2.0), np.zeros((m, k))
    stop = np.zeros(m, bool)  # the rows whose last step passed a stopping test
    with np.errstate(all="ignore"):
        f, jt = _values_and_jacobians(residuals, x, i)
        cost = np.add.reduce(f * f, axis=1)
        for _ in range(_MAX_ITER):
            jtj, g = jt @ jt.transpose(0, 2, 1), np.add.reduce(jt * f[:, None], axis=2)
            # hold an edge coordinate whose descent direction -g leaves the box
            free = (np.abs(x) < _LOG_SHAPE_BOUND) | (g * x > 0.0)
            g, jtj = g * free, jtj * free[:, :, None] * free[:, None, :]
            col = jtj.diagonal(0, 1, 2)
            d = np.maximum(d, col)
            cosine = np.abs(g) / np.sqrt(col * cost[:, None])
            stop |= (cost == 0.0) | ((col == 0.0) | (cosine <= _GTOL)).all(1)
            if n_stop := np.count_nonzero(stop):  # the stopped rows leave the running state
                x_end[i[stop]], cost_end[i[stop]], done[i[stop]] = x[stop], cost[stop], True
                if n_stop == len(stop):
                    return x_end, cost_end, done
                i, x, f, jt, cost, lam, nu, d, jtj, g = (
                    v[~stop] for v in (i, x, f, jt, cost, lam, nu, d, jtj, g))
            damp = lam[:, None] * np.where(d > 0.0, d, 1.0)
            a = jtj + damp[..., None] * eye
            step = np.linalg.solve(a, -g[..., None])[..., 0]  # a is positive definite: lam, D > 0
            pred = np.add.reduce(step * (damp * step - g), axis=1)  # -(2 g'step + |J step|^2) here
            trial = x + step
            out = np.abs(trial) > _LOG_SHAPE_BOUND
            if np.count_nonzero(out):  # solved again on the edge: the decrease predicted for the step taken
                crossed = out.any(1)
                trial[crossed] = _onto_edge(a[crossed], g[crossed], x[crossed], trial[crossed])
                step[crossed] = taken = trial[crossed] - x[crossed]
                jstep2 = np.add.reduce(taken * np.add.reduce(jtj[crossed] * taken[:, None], axis=2), axis=1)
                pred[crossed] = -(2.0 * np.add.reduce(g[crossed] * taken, axis=1) + jstep2)
            ft, jtt = _values_and_jacobians(residuals, trial, i)
            cost_t = np.add.reduce(ft * ft, axis=1)
            drop, ok = cost - cost_t, cost_t < cost
            stop = ((np.linalg.norm(step, axis=1) <= _XTOL * (_XTOL + np.linalg.norm(x, axis=1)))
                    | (ok & (drop <= _FTOL * cost)))
            gain = np.maximum(1.0 / 3.0, 1.0 - (2.0 * (drop / pred) - 1.0) ** 3)
            n_ok = np.count_nonzero(ok)
            if n_ok == len(ok):  # every row accepts: the trial arrays whole, without masked copies
                lam, nu = lam * gain, np.full(len(ok), 2.0)
                x, f, jt, cost = trial, ft, jtt, cost_t
            else:
                lam, nu = lam * np.where(ok, gain, nu), np.where(ok, 2.0, 2.0 * nu)
                if n_ok:
                    x[ok], f[ok], jt[ok], cost[ok] = trial[ok], ft[ok], jtt[ok], cost_t[ok]
    x_end[i], cost_end[i], done[i] = x, cost, stop
    return x_end, cost_end, done


def _runs(cells):
    """Levenberg-Marquardt for the cells of one ``nls_runs`` stage, each a
    (residuals, start) pair with the same number of shapes, in one lockstep
    run of one row per cell.  Per cell: its run's log-shapes, objective and
    whether it converged, or the exception the cell raised: when the batch
    raises, each cell runs alone, so a failure stays in its own family.  The
    objective is finite: ``_residual_factory`` charges a non-finite kernel
    row the barrier."""
    try:
        x0s = np.log(np.array([start for _, start in cells], dtype=float))
        x, rss, converged = _levenberg_marquardt([fn for fn, _ in cells], x0s)
    except Exception as exc:
        return [exc] if len(cells) == 1 else [r for cell in cells for r in _runs([cell])]
    return [(x[c], float(rss[c]), bool(converged[c])) for c in range(len(cells))]


def _spec_at(family, d, x):
    """The spec at log-shapes x, which lie inside the bound, and its share
    residuals.  The shares fix only the shapes: the scale matches the
    dataset's mean, and is 1 when the dataset has none.  Outside the
    moment-existence region ``solve_scale`` or ``dist.lorenz`` raises
    ExistenceError."""
    shapes = np.exp(x)
    spec = spec_from_shapes(family, shapes)
    if d.mean is not None:
        spec = spec_from_shapes(family, shapes, scale=solve_scale(spec, d.mean))
    return spec, dist.lorenz(spec, d.u[:-1]) - d.s[:-1]


def nls_runs(families, d):
    """The Levenberg-Marquardt runs of the NLS fits of ``families`` to d,
    for ``nls_fit(family, d, runs)``: per family, its run's
    (log-shapes, objective, converged), or the exception its fit raises.
    The fits run in stages by number of shapes, the families of a stage in
    one lockstep run of one row each: the one-shape families from their
    Gini-anchored starts, and every other family from the optimum of its
    donor of lowest RSS in the stage before (``_DONORS``), so gb2 tries
    three starts and runs from one.  A donor is fitted even when it is not
    asked for, and rows never mix, so each run ends as it would alone; a
    donor whose run raised ranks last, and a family all of whose donors
    raised runs from its ``starting_values``."""
    needed = list(dict.fromkeys(families))
    for family in needed:  # grows as it goes: each family's donors join
        needed.extend(donor for donor in _DONORS.get(family, ()) if donor not in needed)
    runs, stages = {}, {}
    for family in needed:
        try:
            k = dist.n_shape_params(family)
            if d.n_groups < k + 1:
                raise EstimationError(
                    f"{family} needs at least {k + 1} groups, dataset has {d.n_groups}")
            stages.setdefault(k, []).append(family)
        except Exception as exc:
            runs[family] = exc

    def donor_rss(donor):  # inf for a run that raised
        return math.inf if isinstance(runs[donor], Exception) else runs[donor][1]

    def start(family):
        donor = min(_DONORS.get(family, ()), key=donor_rss, default=None)  # the first of equals
        if donor is None or donor_rss(donor) == math.inf:
            return starting_values(family, d)
        return _nested_start(family, donor, np.exp(runs[donor][0]))

    for k in sorted(stages):
        # the last share (identically 1) carries no information and is excluded
        cells = [(_residual_factory(f, d.u[:-1], d.s[:-1]), start(f)) for f in stages[k]]
        runs.update(zip(stages[k], _runs(cells)))
    return {family: runs[family] for family in families}


def nls_fit(family, d, runs=None):
    """Least-squares fit of the Lorenz curve to the observed shares.

    Runs Levenberg-Marquardt from the family's start (``nls_runs``).  The
    fit is finished from its run in ``runs``, a dict from ``nls_runs``, made
    here when none is given; a stored exception is raised again.
    """
    if runs is None:
        runs = nls_runs([family], d)
    run = runs[family]
    if isinstance(run, Exception):
        raise run
    x, _, converged = run
    spec, residuals = _spec_at(family, d, x)
    return FitResult(spec=spec, method="nls", objective=float(np.sum(residuals**2)),
                     residuals=residuals, starts_tried=len(_DONORS.get(family, ())) or 1,
                     converged=converged, k=len(x))


def solve_scale(spec, sample_mean):
    """Scale parameter matching the fitted shapes to the sample mean."""
    if sample_mean <= 0.0:
        raise EstimationError("sample mean must be positive")
    dist._require_moment(spec, 1.0, "mean")
    log_mean = dist.log_power_mean(spec, 1.0)  # log E[X] at unit scale
    if spec.family == "lognormal":  # the scale parameter is the log-scale mu
        return math.log(sample_mean) - log_mean
    try:
        scale = sample_mean / math.exp(log_mean)
    except (OverflowError, ZeroDivisionError):  # E[X] at unit scale is past a double: the scale from logs
        with np.errstate(over="ignore"):
            scale = float(np.exp(math.log(sample_mean) - log_mean))
    if not 0.0 < scale < math.inf:
        raise EstimationError(
            f"no positive finite scale of the fitted {spec.family} matches the record's mean {sample_mean:g}")
    return scale


def _share_covariance(spec, d):
    """W, the asymptotic covariance of the J income-share moments, and the
    mean mu.

    Requires a finite second moment.  For i <= j, W_ij = A_i + B_i C_j
    with A = mu2_partial - h mu s, B = u h - mu s and C = h (1 - u) + mu s,
    h the fitted group income limits.  The top group's income limit cancels
    from the algebra: taking h_J = 0 with mu2_partial_J = mu2 gives the
    boundary column and W_JJ = mu2 - mu^2.
    """
    dist._require_moment(spec, 2.0, "second moment")
    u, s = d.u, d.s
    h = dist.quantile(spec, u[:-1])
    mu = dist.moment(spec, 1.0)
    mu2 = dist.moment(spec, 2.0)
    mu2_partial = mu2 * dist.incomplete_moment_cdf(spec, 2.0, h)

    hz = np.append(h, 0.0)  # h_J = 0
    A = np.append(mu2_partial, mu2) - hz * mu * s
    B = u * hz - mu * s
    C = hz * (1.0 - u) + mu * s
    W = np.triu(A[:, None] + B[:, None] * C)
    return W + np.triu(W, 1).T, mu


def weighting_matrix(spec, d):
    """Asymptotic covariance Omega = Psi W Psi' of the J - 1 share moments,
    a (J-1) x (J-1) array, with Psi = [I, -s] / mu and W from
    ``_share_covariance``.  Requires a finite second moment."""
    W, mu = _share_covariance(spec, d)
    Psi = np.hstack([np.eye(d.n_groups - 1), -d.s[:-1, None]]) / mu
    Omega = Psi @ W @ Psi.T
    return (Omega + Omega.T) / 2.0


def gmm_fit(d, nls):
    """Two-step GMM: an optimally weighted second stage from the NLS fit ``nls``.

    The second stage is NLS on the share residuals whitened by the Cholesky
    factor of Omega, one Levenberg-Marquardt row of ``nls``'s family started
    from its shapes; an exception it raises is raised.  Omega is
    scale-free (W grows as b^2 and Psi as 1/b), so it is built at the
    first-stage spec as it is, and the dataset needs no mean; the fitted
    scale is set as for NLS.  Falls back to the first-stage result when
    the weighting matrix cannot be built, is not finite or cannot be
    factored, or when the second-stage optimum leaves the moment-existence
    region (``_spec_at`` raises ExistenceError).  The row's note is the one
    report of a fallback, and no warning is raised: it names the cause in
    fixed words, and the row's params carry the numbers.
    """
    family = nls.spec.family

    def fallback(reason):
        return replace(nls, method="gmm", note=f"second stage fell back to NLS: {reason}")

    try:
        with np.errstate(all="ignore"):  # a non-finite Omega falls back below
            omega = weighting_matrix(nls.spec, d)
    except ExistenceError:
        return fallback(f"the fitted {family} has no second moment")
    except OverflowError:  # at an extreme mean
        return fallback("the moments overflow")
    if not np.isfinite(omega).all():
        return fallback("Omega is not finite")
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        return fallback("Omega is not positive definite")
    residuals_fn = _residual_factory(family, d.u[:-1], d.s[:-1], chol)
    (x,), (fval,), (converged,) = _levenberg_marquardt([residuals_fn], np.log([dist.shapes_of(nls.spec)]))
    try:
        spec, residuals = _spec_at(family, d, x)
    except ExistenceError:
        return fallback("second stage left the moment-existence region")
    return replace(nls, spec=spec, method="gmm", objective=float(fval),
                   residuals=residuals, converged=bool(converged))
