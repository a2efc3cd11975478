"""Command-line front end: batch fitting, simulation, grouping, sample
measures and report generation."""

import argparse
import csv
import json
import sys
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import distributions as dist
from . import io as gio
from .estimate import gmm_fit, nls_fit
from .exceptions import (
    DomainError,
    EstimationError,
    ExistenceError,
    NonConvergenceError,
    ValidationError,
)
from .grouped import lower_bound_gini
from .measures import McConfig, atkinson_closed, atkinson_exists, gini_mc, sample_measures
from .select import GofScores, dominance_matrix, error_report, gof_scores
from .synth import (
    MIXTURE_PRESETS,
    GroupingPolicy,
    MixtureSpec,
    microdata_to_grouped,
    sample_family,
    sample_mixture,
)

_FAMILY_ALIASES = {"ln": "lognormal"}
_DEFAULT_FAMILIES = "gb2,b2,sm,dagum,ln,fisk,weibull"


def _parse_families(text):
    fams = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        tok = _FAMILY_ALIASES.get(tok, tok)
        if tok not in dist.FAMILIES:
            raise argparse.ArgumentTypeError(f"unknown family {tok!r}")
        fams.append(tok)
    return fams


def _parse_floats(text):
    return [float(t) for t in text.split(",") if t.strip()]


def _derived_seed(seed, *tags):
    h = zlib.crc32(":".join(str(t) for t in tags).encode())
    return (int(seed) ^ h) & 0x7FFFFFFF


def _fit_gini(spec, mc_n, seed):
    """Closed-form or series Gini, falling back to Monte Carlo."""
    try:
        g = dist.gini_closed(spec)
        return g.value, g.method
    except NonConvergenceError:
        g = gini_mc(spec, McConfig(n=mc_n, seed=seed))
        return g.value, g.method


def _fit_atkinson(spec, epsilons):
    return {
        f"{eps:g}": atkinson_closed(spec, eps) if atkinson_exists(spec, eps) else None
        for eps in epsilons
    }


def _fit_one_dataset(task):
    """Fit every requested family to one dataset; returns report rows."""
    d, families, method, mc_n, seed, epsilons = task
    rows = []
    lb = lower_bound_gini(d)
    rows.append(
        {
            "id": d.id,
            "family": "lower_bound",
            "method": "lower_bound",
            "gini": lb,
            "survey_gini": d.survey_gini,
            "error": None,
        }
    )
    for family in families:
        per_method = {}
        for m in ("nls", "gmm") if method == "both" else (method,):
            row = {
                "id": d.id,
                "family": family,
                "method": m,
                "survey_gini": d.survey_gini,
                "lower_bound_gini": lb,
                "error": None,
            }
            try:
                if m == "gmm" and d.mean is None:
                    raise EstimationError("mean required for GMM")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    if m == "nls":
                        fit = nls_fit(family, d)
                    else:
                        fit = gmm_fit(family, d, nls=per_method.get("nls_fit"))
                if m == "nls":
                    per_method["nls_fit"] = fit
                scores = gof_scores(fit)
                gseed = _derived_seed(seed, d.id, family, m)
                gini, gini_method = _fit_gini(fit.spec, mc_n, gseed)
                row.update(
                    {
                        "converged": fit.converged,
                        "params": list(fit.spec.params),
                        "objective": fit.objective,
                        "rss": fit.rss,
                        "k": fit.k,
                        "n_moments": len(fit.residuals),
                        "aic": scores.aic,
                        "bic": scores.bic,
                        "gini": gini,
                        "gini_method": gini_method,
                        "atkinson": _fit_atkinson(fit.spec, epsilons),
                        "note": fit.note,
                    }
                )
                per_method[m] = gini
            except (
                DomainError,
                EstimationError,
                ExistenceError,
                FloatingPointError,
                NonConvergenceError,
                ValidationError,
                np.linalg.LinAlgError,
            ) as exc:
                row["error"] = str(exc)
            rows.append(row)
        if method == "both" and d.survey_gini is not None:
            closer = None
            if "nls" in per_method and "gmm" in per_method:
                closer = min(
                    ("nls", "gmm"),
                    key=lambda m: abs(per_method[m] - d.survey_gini),
                )
            for row in rows:
                if row["id"] == d.id and row["family"] == family:
                    row["closer_method"] = closer
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
        "closer_method", "error",
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
    families = args.families
    epsilons = args.epsilon
    tasks = []
    rows = []
    for i, d, err in gio.iter_grouped(args.input):
        if err is not None:
            rows.append({"id": f"record-{i}", "family": None, "method": None,
                         "error": f"invalid record: {err}"})
            continue
        tasks.append((d, families, args.method, args.mc_n, args.seed, epsilons))
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
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
    if args.family:
        spec = dist.FamilySpec(args.family, tuple(args.params or ()))
        label = f"{args.family}-{args.seed}"
        micro = sample_family(spec, args.n, seed=args.seed)
        sources = [(label, micro)]
    else:
        if args.mixture:
            mixtures = [("mixture-1", MixtureSpec(
                beta=args.mixture[0], alpha=args.mixture[1], omega=args.mixture[2],
                mu=args.mixture[3], sigma=args.mixture[4]))]
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
        if len(sources) != 1:
            print("simulate: --microdata-out requires a single source", file=sys.stderr)
            return 2
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


def cmd_report(args):
    rows = []
    with open(args.input) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    fitted = [r for r in rows if r.get("gini") is not None and not r.get("error")]
    if not fitted:
        print("report: no usable rows in input", file=sys.stderr)
        _emit_report({}, {}, args)
        return 0

    # Gini error bins against the survey benchmark
    with_bench = [r for r in fitted if r.get("survey_gini")]
    estimates, benchmarks = {}, {}
    for r in with_bench:
        key = r["family"] if r["family"] == "lower_bound" else f"{r['family']}/{r['method']}"
        estimates.setdefault(key, []).append(r["gini"])
        benchmarks.setdefault(key, []).append(r["survey_gini"])
    errors = {
        k: error_report({k: v}, benchmarks[k])[k] for k, v in estimates.items()
    }

    # AIC/BIC dominance across families, per estimation method
    dominance = {}
    for method in ("nls", "gmm"):
        per_dataset = {}
        for r in fitted:
            if r.get("method") != method or r.get("aic") is None:
                continue
            per_dataset.setdefault(r["id"], {})[r["family"]] = GofScores(
                rss=r["rss"], aic=r["aic"], bic=r["bic"], k=r["k"], n=r["n_moments"]
            )
        if not per_dataset:
            continue
        models = sorted({f for d in per_dataset.values() for f in d})
        for criterion in ("aic", "bic"):
            mat = dominance_matrix(per_dataset.values(), models, criterion)
            dominance[f"{method}_{criterion}"] = {
                "models": models,
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
    p.add_argument("--families", type=_parse_families, default=_parse_families(_DEFAULT_FAMILIES))
    p.add_argument("--method", choices=("nls", "gmm", "both"), default="nls")
    p.add_argument("--mc-n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=_parse_floats, default=[0.5, 1.0, 1.5])
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="generate synthetic grouped datasets")
    p.add_argument("--output", required=True)
    p.add_argument("--preset", type=int, choices=range(1, 7))
    p.add_argument("--mixture", type=_parse_floats,
                   help="beta,alpha,omega,mu,sigma")
    p.add_argument("--family", type=lambda t: _parse_families(t)[0])
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
    p.add_argument("--epsilon", type=_parse_floats, default=[0.5, 1.0, 1.5])
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
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
