"""Command-line front end: batch fitting, simulation, grouping, sample
measures and report generation."""

import argparse
import csv
import json
import math
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import distributions as dist
from . import io as gio
from .estimate import gmm_fit, nls_fit, nls_runs
from .exceptions import DomainError, ValidationError
from .grouped import lower_bound_gini, slope_drop
from .measures import atkinson_closed, atkinson_exists, sample_measures
from .select import dominance_matrix, error_report, gof_scores
from .synth import (
    MIXTURE_PRESETS,
    GroupingPolicy,
    MixtureSpec,
    microdata_to_grouped,
    sample_family,
    sample_mixture,
)

_FAMILY_ALIASES = {"ln": "lognormal"}
# A drop in the group mean shares up to this is the rounding of shares computed
# in floating point: equal incomes give mean shares of 1 within about 1e-15.
# Shares published to four decimals or fewer move a mean share in steps of
# 1e-4 or more, and no Lorenz curve has a drop of any size.
_SLOPE_ROUNDING = 1e-9


def _parse_families(text):
    fams = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        tok = _FAMILY_ALIASES.get(tok, tok)
        if tok not in dist.FAMILIES:
            raise argparse.ArgumentTypeError(f"unknown family {tok!r}")
        fams.append(tok)
    return fams


def _parse_family(text):
    if len(fams := _parse_families(text)) != 1:
        raise argparse.ArgumentTypeError(f"expected one family: {text!r}")
    return fams[0]


def _parse_floats(text):
    return [float(t) for t in text.split(",") if t.strip()]


def _parse_epsilons(text):
    """Atkinson inequality aversions, each finite and >= 0."""
    eps = _parse_floats(text)
    if not all(0.0 <= e < math.inf for e in eps):
        raise argparse.ArgumentTypeError(f"each aversion must be finite and >= 0: {text!r}")
    return eps


def _parse_mixture(text):
    """beta,alpha,omega,mu,sigma: exactly five numbers."""
    values = _parse_floats(text)
    if len(values) != 5:
        raise argparse.ArgumentTypeError(
            f"expected five numbers beta,alpha,omega,mu,sigma: {text!r}")
    return values


def _derived_seed(seed, *tags):
    h = zlib.crc32(":".join(str(t) for t in tags).encode())
    return (int(seed) ^ h) & 0x7FFFFFFF


def _fit_atkinson(spec, epsilons):
    return {
        f"{eps:g}": atkinson_closed(spec, eps) if atkinson_exists(spec, eps) else None
        for eps in epsilons
    }


def _fit_one_dataset(task):
    """Fit every requested family to one dataset; returns report rows."""
    d, families, method, epsilons = task
    lb = lower_bound_gini(d)
    rows = [{"id": d.id, "family": "lower_bound", "method": "lower_bound", "gini": lb,
             "survey_gini": d.survey_gini, "error": None}]
    drop, j, slopes = slope_drop(d)
    if drop > _SLOPE_ROUNDING:  # the record is still fitted
        rows[0]["note"] = (f"shares are not convex: group {j}'s mean share {slopes[j - 1]:.3g} "
                           f"is below group {j - 1}'s {slopes[j - 2]:.3g}")
    runs = nls_runs(families, d)  # the Levenberg-Marquardt runs of every family at once
    for family in families:
        try:  # each family's first stage once, for both methods
            nls = nls_fit(family, d, run=runs[family])
        except Exception as exc:
            nls = exc
        cells, measured = [], None  # measured: (spec, Gini, Atkinson) of the last spec
        for m in ("nls", "gmm") if method == "both" else (method,):
            row = {"id": d.id, "family": family, "method": m, "survey_gini": d.survey_gini,
                   "lower_bound_gini": lb, "error": None}
            try:
                if isinstance(nls, Exception):
                    raise nls
                fit = nls if m == "nls" else gmm_fit(family, d, nls)
                aic, bic = gof_scores(fit) if fit.converged else (None, None)
                if measured is None or measured[0] is not fit.spec:  # a fallback GMM row has its NLS spec
                    measured = fit.spec, dist.gini_closed(fit.spec), _fit_atkinson(fit.spec, epsilons)
                _, gini, atkinson = measured
                row.update(converged=fit.converged, params=list(fit.spec.params),
                           objective=fit.objective, rss=fit.rss, k=fit.k,
                           n_moments=len(fit.residuals), aic=aic, bic=bic, gini=gini.value,
                           gini_method=gini.method, atkinson=atkinson, note=fit.note)
            except Exception as exc:  # one error row per cell, never the batch
                row["error"] = str(exc) or type(exc).__name__
            cells.append(row)
        if method == "both" and d.survey_gini is not None:
            closer = None
            if not any(r["error"] for r in cells):
                closer = min(cells, key=lambda r: abs(r["gini"] - d.survey_gini))["method"]
            for row in cells:
                row["closer_method"] = closer
        rows.extend(cells)
    return rows


def _write_rows(rows, path, fmt, epsilons=()):
    if fmt == "json":
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return
    # csv: flatten params and atkinson values into fixed columns
    cols = [
        "id", "family", "method", "converged", "params", "objective", "rss",
        "aic", "bic", "gini", "gini_method", "survey_gini", "lower_bound_gini",
        "closer_method", "error", "note",
    ]
    eps_cols = [f"atkinson_{e:g}" for e in epsilons]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols + eps_cols)
        for row in rows:
            atk = row.get("atkinson") or {}
            flat = []
            for c in cols:
                v = row.get(c)
                if c == "params" and v is not None:
                    v = " ".join(f"{p:.10g}" for p in v)
                flat.append(v)
            writer.writerow(flat + [atk.get(f"{e:g}") for e in epsilons])


def cmd_fit(args):
    if args.workers < 1:
        raise DomainError(f"--workers must be at least 1, got {args.workers}")
    families = args.families
    epsilons = args.epsilon
    tasks = []
    rows = []
    for i, d, err in gio.iter_grouped(args.input):
        if err is not None:
            rows.append({"id": f"record-{i}", "family": None, "method": None,
                         "error": f"invalid record: {err}"})
            continue
        tasks.append((d, families, args.method, epsilons))
    workers = min(args.workers, len(tasks))  # the pool forks them all at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_fit_one_dataset, tasks):
                rows.extend(result)
    else:
        for task in tasks:
            rows.extend(_fit_one_dataset(task))
    n_bad = sum(1 for r in rows if r.get("error"))
    _write_rows(rows, args.output, args.format, epsilons)
    print(f"fit: {len(tasks)} datasets, {len(rows)} rows, {n_bad} errors -> {args.output}")
    return 1 if n_bad else 0


def cmd_simulate(args):
    if args.params is not None and not args.family:
        raise DomainError("--params requires --family")
    if args.microdata_out and not (args.family or args.mixture or args.preset):
        raise DomainError("--microdata-out requires a single source: --family, --mixture or --preset")
    if args.family:
        spec = dist.FamilySpec(args.family, tuple(args.params or ()))
        label = f"{args.family}-{args.seed}"
        micro = sample_family(spec, args.n, seed=args.seed)
        sources = [(label, micro)]
    else:
        if args.mixture:
            mixtures = [("mixture-1", MixtureSpec(*args.mixture))]
        elif args.preset:
            mixtures = [(f"preset-{args.preset}", MIXTURE_PRESETS[args.preset - 1])]
        else:
            mixtures = [(f"preset-{i+1}", mx) for i, mx in enumerate(MIXTURE_PRESETS)]
        sources = [
            (f"{name}-seed{args.seed}", sample_mixture(mx, args.n, seed=_derived_seed(args.seed, name)))
            for name, mx in mixtures
        ]
    policy = GroupingPolicy(n_groups=args.groups)
    datasets = [microdata_to_grouped(m, policy, id=name) for name, m in sources]
    gio.write_grouped_jsonl(datasets, args.output)
    if args.microdata_out:
        gio.write_microdata_csv(sources[0][1], args.microdata_out)
    print(f"simulate: {len(datasets)} datasets (n={args.n}, seed={args.seed}) -> {args.output}")
    return 0


def cmd_group(args):
    m, sizes = gio.read_microdata_csv(args.input)
    policy = GroupingPolicy(
        n_groups=args.groups,
        equivalise=args.equivalise,
        bottom_code=args.bottom_code,
        top_code=args.top_code,
    )
    d = microdata_to_grouped(m, policy, household_sizes=sizes, id=args.id)
    gio.write_grouped_jsonl([d], args.output)
    print(f"group: {len(m.values)} records into {args.groups} groups -> {args.output}")
    return 0


def cmd_measures(args):
    m, _ = gio.read_microdata_csv(args.input)
    result = sample_measures(m, args.epsilon)
    result["atkinson"] = {f"{e:g}": v for e, v in result["atkinson"].items()}
    text = json.dumps(result, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _read_fit_rows(path):
    """(line number, row) of each fit row; a line that is not a JSON object
    is an input error that names the line."""
    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValidationError(f"{path} line {i}: {exc}") from None
            if not isinstance(row, dict):
                raise ValidationError(
                    f"{path} line {i}: a fit row is a JSON object, got {type(row).__name__}")
            rows.append((i, row))
    return rows


# the JSON types of the fields that report reads from a fitted row
_NUMBER = (int, float)
_FIELD_TYPES = {"id": str, "family": str, "method": (str, type(None)), "gini": _NUMBER,
                "survey_gini": _NUMBER + (type(None),), "rss": _NUMBER,
                "aic": _NUMBER + (type(None),), "bic": _NUMBER + (type(None),), "k": int, "n_moments": int}
# a scored row needs these, in this order, although rss, k and n_moments go unread
_SCORED_FIELDS = ("rss", "bic", "k", "n_moments", "id", "family")
# the accepted values of the numbers that report reads: NaN and inf lie outside every range
_FINITE = (-sys.float_info.max, sys.float_info.max)
_VALUE_RANGES = {"gini": (0.0, 1.0), "survey_gini": (0.0, 1.0), "aic": _FINITE, "bic": _FINITE}


def cmd_report(args):
    fitted = [(i, r) for i, r in _read_fit_rows(args.input)
              if r.get("gini") is not None and not r.get("error")]
    for i, r in fitted:
        for name, kinds in _FIELD_TYPES.items():
            if name in r and (isinstance(r[name], bool) or not isinstance(r[name], kinds)):
                raise ValidationError(f"{args.input} line {i}: fit row field '{name}' "
                                      f"has the wrong type {type(r[name]).__name__}")
    if not fitted:
        print("report: no usable rows in input", file=sys.stderr)
        _emit_report({}, {}, args)
        return 0

    ginis, scores = {}, {"nls": {}, "gmm": {}}
    try:
        for i, r in fitted:  # (gini, survey_gini) per family, method and dataset; the last row wins
            if r.get("survey_gini") is not None:
                key = r["family"] if r["family"] == "lower_bound" else f"{r['family']}/{r['method']}"
                ginis.setdefault(key, {})[r.get("id")] = r["gini"], r["survey_gini"]
        for i, r in fitted:  # (aic, bic) per method, dataset and family; the last row wins
            if r.get("method") in scores and r.get("aic") is not None:
                if missing := [name for name in _SCORED_FIELDS if name not in r]:
                    raise KeyError(missing[0])
                scores[r["method"]][r["id"], r["family"]] = r["aic"], r["bic"]
    except KeyError as exc:
        raise ValidationError(f"{args.input} line {i}: fit row has no {exc} field") from None
    for i, r in fitted:  # after the missing-field checks, whose messages come first
        for name, (lo, hi) in _VALUE_RANGES.items():
            if r.get(name) is not None and not lo <= r[name] <= hi:
                raise ValidationError(f"{args.input} line {i}: fit row field '{name}' is {r[name]}, "
                                      f"not a finite number{' in [0, 1]' if hi == 1.0 else ''}")
    errors = {k: error_report(*zip(*cells.values())) for k, cells in ginis.items()}

    # AIC/BIC dominance across families, per estimation method
    dominance = {}
    for method, cells in scores.items():
        if not cells:
            continue
        (ids, rows), (models, cols) = (np.unique(k, return_inverse=True) for k in zip(*cells))
        table = np.full((len(ids), len(models), 2), np.nan)
        table[rows, cols] = list(cells.values())
        for j, criterion in enumerate(("aic", "bic")):
            mat = dominance_matrix(table[:, :, j])
            dominance[f"{method}_{criterion}"] = {
                "models": models.tolist(),
                "matrix": [[None if np.isnan(v) else float(v) for v in row] for row in mat],
            }
    _emit_report(errors, dominance, args)
    return 0


def _emit_report(errors, dominance, args):
    if args.format == "json":
        with open(args.output, "w") as fh:
            json.dump({"gini_errors": errors, "dominance": dominance}, fh, indent=2)
            fh.write("\n")
    else:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["section", "key", "mean_abs_error", "n",
                             "abs_bins", "rel_bins"])
            for k, e in errors.items():
                writer.writerow(["gini_errors", k, e["mean_abs_error"], e["n"],
                                 " ".join(map(str, e["abs_bins"])),
                                 " ".join(map(str, e["rel_bins"]))])
            for name, block in dominance.items():
                writer.writerow(["dominance", name, "", "",
                                 " ".join(block["models"]), ""])
                for model, row in zip(block["models"], block["matrix"]):
                    writer.writerow(["dominance_row", f"{name}/{model}", "", "",
                                     " ".join("" if v is None else f"{v:.4f}" for v in row), ""])
    print(f"report: {len(errors)} error sections, {len(dominance)} dominance matrices -> {args.output}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gb2fit",
        description="Fit GB2-family income distributions to grouped data and "
        "compute inequality measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit families to grouped datasets")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--families", type=_parse_families, default=list(dist.FAMILIES))
    p.add_argument("--method", choices=("nls", "gmm", "both"), default="nls")
    # accepted for compatibility; every fit's Gini is deterministic
    p.add_argument("--mc-n", type=int, default=1_000_000, help="no effect")
    p.add_argument("--seed", type=int, default=0, help="no effect")
    p.add_argument("--epsilon", type=_parse_epsilons, default=[0.5, 1.0, 1.5])
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="generate synthetic grouped datasets")
    p.add_argument("--output", required=True)
    source = p.add_mutually_exclusive_group()  # all six presets without one
    source.add_argument("--preset", type=int, choices=range(1, 7))
    source.add_argument("--mixture", type=_parse_mixture, help="beta,alpha,omega,mu,sigma")
    source.add_argument("--family", type=_parse_family)
    p.add_argument("--params", type=_parse_floats)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--groups", type=int, default=10, choices=(5, 10))
    p.add_argument("--microdata-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("group", help="group a microdata CSV into shares")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--equivalise", action="store_true")
    p.add_argument("--bottom-code", action="store_true")
    p.add_argument("--top-code", action="store_true")
    p.add_argument("--id", default="microdata")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("measures", help="weighted sample measures of a microdata CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--epsilon", type=_parse_epsilons, default=[0.5, 1.0, 1.5])
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("report", help="error bins and dominance matrices from fit output")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
