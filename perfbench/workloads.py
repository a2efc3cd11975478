"""The four workloads: inputs made from a seed, the units of timed work,
and the untimed checks of their outputs.

Each workload class provides

* ``setup()``: generate the inputs through ``gb2fit.synth`` and
  ``gb2fit.io`` (timed as part of ``setup_s``);
* ``unit(k)``: the k-th unit of timed work, a list of callables, each
  timed as one latency sample (a traced run takes the first
  ``trace_calls`` of unit 0, or all of them when that is None);
* ``check(results, tally)``: oracle checks outside the timed region,
  recorded in a ``Tally``;
* ``units_done(k)``: the ops (for ``throughput_per_s``) in k units.
"""

import contextlib
import io as _stdio
import json
import math
import os

import numpy as np

import oracles
from gb2fit import cli, distributions as dist, io as gio, measures, synth
from gb2fit.exceptions import DomainError, NonConvergenceError

# Monte Carlo tolerance for atkinson_mc, gini_mc and the CLI's Atkinson
# values: relative error against the oracle
MC_REL_TOL = 0.05
# deterministic Gini (closed form or 3F2 series): gini_closed accepts a
# series value whose estimated relative error is below 1e-5
SERIES_REL_TOL = 1e-5
CLOSED_REL_TOL = 1e-9
# fitted Gini against the survey Gini, and a source family's own fit
# against its true Gini (sampling plus grouping error)
FIT_ABS_TOL = 0.05
SOURCE_ABS_TOL = 0.03


class KnownDefect:
    """An operation that failed in a way known at the benchmark's creation;
    counted in failed_ratio and in ``known_defects``, not in ``failed``."""

    def __init__(self, text):
        self.text = text


class Tally:
    """Items attempted, failures and oracle misses of one run."""

    def __init__(self):
        self.items = 0  # base of failed_ratio
        self.errors = 0  # error rows, exceptions, nonzero exit codes
        self.item_failures = 0  # items with an error, a non-finite value or a miss
        self.strict_misses = []  # deterministic checks that failed
        self.soft_misses = 0  # Monte Carlo / fit-quality checks that failed
        self.known_defects = []
        self.oracle_skipped = 0  # fitted GB2 Ginis at a shape bound, see at_shape_bound
        self.stats = {}

    def add(self, key, value):
        self.stats.setdefault(key, []).append(value)

    def item(self, error=False, misses=()):
        """Record one item; ``misses`` holds (strict, text) per failed check."""
        self.items += 1
        self.errors += int(error)
        if error or misses:
            self.item_failures += 1
        for strict, text in misses:
            if strict:
                self.strict_misses.append(text)
            else:
                self.soft_misses += 1


def quiet(fn, *args):
    """Call ``fn`` with its stdout captured (cli.main prints a summary)."""
    with contextlib.redirect_stdout(_stdio.StringIO()):
        return fn(*args)


def sample_gini(x):
    """Unweighted sample Gini by the sorted-rank formula."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    ranks = np.arange(1, n + 1)
    return float(2.0 * np.sum(ranks * x) / (n * np.sum(x)) - (n + 1.0) / n)


def sample_atkinson(x, eps):
    x = np.asarray(x, dtype=float)
    mu = x.mean()
    if eps == 1.0:
        return float(1.0 - math.exp(np.mean(np.log(x))) / mu)
    return float(1.0 - np.mean((x / mu) ** (1.0 - eps)) ** (1.0 / (1.0 - eps)))


def rel_err(value, ref):
    if value is None or not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref) if ref else abs(value)


def digits(value, ref):
    """-log10 of the relative error, capped at 15; non-finite gives 0."""
    e = rel_err(value, ref)
    return min(15.0, -math.log10(max(e, 1e-15))) if math.isfinite(e) else 0.0


def _read_rows(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _scale_free(family, params):
    """Gini and Atkinson do not depend on scale: put it at 1 (mu at 0)."""
    params = list(params)
    i = {"b2": 0, "lognormal": 0}.get(family, 1)
    params[i] = 0.0 if family == "lognormal" else 1.0
    return tuple(params)


def at_shape_bound(family, params):
    """Whether a fitted GB2 shape sits at the optimizer's bound 1e4 (or
    1e-4), a degenerate limit where the mpmath Gini oracle takes minutes."""
    if family != "gb2":
        return False
    return any(v >= 0.999e4 or v <= 1.001e-4 for i, v in enumerate(params) if i != 1)


def check_fit_rows(rows, tally, cache, survey_oracles, source_ok=None):
    """Checks shared by the two fitting workloads; one item per row.

    ``source_ok`` maps id(row) to whether a source family's own fit came
    within SOURCE_ABS_TOL of the source's true Gini.
    """
    source_ok = source_ok or {}
    for r in rows:
        if r.get("error") or r.get("family") is None:
            tally.item(error=True)
            continue
        d_id = r["id"]
        misses = []
        survey = r.get("survey_gini")
        own = survey_oracles.get(d_id)
        if own is not None and rel_err(survey, own) > CLOSED_REL_TOL:
            misses.append((True, f"{d_id}: survey Gini {survey} != sample Gini {own}"))
        g = r.get("gini")
        if r["family"] == "lower_bound":
            if not (g is not None and math.isfinite(g) and g <= survey + 1e-12):
                misses.append((True, f"{d_id}: lower bound {g} above survey Gini {survey}"))
            tally.item(misses=misses)
            continue
        fam, params = r["family"], _scale_free(r["family"], r["params"])
        if g is None or not math.isfinite(g) or not 0.0 < g < 1.0:
            misses.append((True, f"{d_id}/{fam}/{r['method']}: Gini {g}"))
        else:
            tally.add("gini_abs_err", abs(g - survey))
            if abs(g - survey) > FIT_ABS_TOL:
                misses.append((False, f"{d_id}/{fam}: fitted Gini {g} vs survey {survey}"))
            ref = None if at_shape_bound(fam, params) else cache.get("gini", fam, params)
            if ref is None:
                tally.oracle_skipped += 1
            elif r["gini_method"] == "monte_carlo":
                if rel_err(g, ref) > MC_REL_TOL:
                    misses.append((False, f"{d_id}/{fam}: MC Gini {g} vs {ref}"))
            elif rel_err(g, ref) > SERIES_REL_TOL:
                misses.append((True, f"{d_id}/{fam}: Gini {g} vs oracle {ref}"))
        if not source_ok.get(id(r), True):
            misses.append((False, f"{d_id}/{fam}: Gini {g} vs the source's true Gini"))
        if r["method"] == "nls":
            tally.add("nls_rss", r["rss"])
        for key, a in (r.get("atkinson") or {}).items():
            if a is None:
                continue
            if not math.isfinite(a) or not 0.0 <= a <= 1.0:
                misses.append((False, f"{d_id}/{fam}: Atkinson {key} = {a}"))
            else:
                ref = cache.get("atkinson", fam, params, float(key))
                if rel_err(a, ref) > MC_REL_TOL:
                    misses.append((False, f"{d_id}/{fam}: Atkinson {key} {a} vs {ref}"))
        tally.item(misses=misses)


class PresetsBoth:
    """``fit --method both`` per mixture preset, default families, ε and mc-n."""

    name = "presets-both"
    base_name = "fit rows"
    # a unit is a pair of presets, a slower with a faster one, so every run
    # does about the same work whichever pair the seed starts from
    # (fitting presets 1..6 once took 22.0, 18.1, 20.2, 20.0, 15.2 and
    # 17.7 s on a 2-core Xeon VM)
    PAIRS = ((0, 4), (2, 5), (1, 3))
    # Each preset is sampled once, with a fixed seed: the six populations
    # are the paper's design.  A fresh sample per --seed changes the cost of
    # one dataset by up to 40% (69k against 89k Lorenz evaluations, 8.5 s
    # against 12.9 s of Atkinson draws), more than any bound on the run
    # time could allow; --seed picks the pair and the Monte Carlo seed.
    SAMPLE_SEED = 20180828
    trace_calls = 1  # the traced run fits one dataset, one op

    def __init__(self, seed, work, smoke, cache):
        self.seed, self.work, self.smoke = seed, work, smoke
        self.n = 2_000 if smoke else 10_000
        self.extra = ["--families", "sm,lognormal", "--mc-n", "1000"] if smoke else []
        self.cache = cache

    def setup(self):
        self.inputs = []
        for i, mx in enumerate(synth.MIXTURE_PRESETS):
            m = synth.sample_mixture(mx, self.n, seed=self.SAMPLE_SEED + i)
            d = synth.microdata_to_grouped(
                m, synth.GroupingPolicy(n_groups=10), id=f"preset-{i + 1}")
            path = os.path.join(self.work, f"preset-{i + 1}.jsonl")
            gio.write_grouped_jsonl([d], path)
            self.inputs.append((d.id, path, m.values))

    def unit(self, k):
        calls = []
        for i in self.PAIRS[(self.seed + k) % 3]:
            d_id, path, values = self.inputs[i]
            out = os.path.join(self.work, f"fit-{i + 1}.jsonl")
            argv = ["fit", "--input", path, "--output", out, "--method", "both",
                    "--seed", str(self.seed)] + self.extra
            calls.append(lambda argv=argv, out=out, d_id=d_id, values=values:
                         (quiet(cli.main, argv), out, d_id, values))
        return calls

    def check(self, results, tally):
        for code, out, d_id, values in results:
            if code != 0:
                tally.item(error=True)
                continue
            check_fit_rows(_read_rows(out), tally, self.cache, {d_id: sample_gini(values)})

    def units_done(self, n_units):
        return 2 * n_units


class BatchNls:
    """One ``fit --method nls --epsilon '' --workers nproc`` call on a
    corpus of eight datasets."""

    name = "batch-nls"
    base_name = "fit rows"
    # (family, params, groups), longest fit first, so that the pool's
    # workers, which take the datasets in order, end at about the same
    # time.  One serial fit of each, on a 2-core Xeon VM: lognormal-5g
    # 10.3 s, weibull-5g 7.5 s, then 3.8 to 4.8 s each for the other six.
    SOURCES = (
        ("lognormal", (0.0, 0.7), 5),
        ("weibull", (1.6, 1.0), 5),
        ("gb2", (3.0, 1.0, 1.2, 1.5), 5),
        ("gb2", (3.0, 1.0, 1.2, 1.5), 10),
        ("b2", (1.0, 3.0, 4.0), 10),
        ("sm", (2.5, 1.0, 1.8), 5),
        ("dagum", (3.2, 1.0, 0.8), 10),
        ("fisk", (3.0, 1.0), 10),
    )

    def __init__(self, seed, work, smoke, cache):
        self.seed, self.work, self.smoke = seed, work, smoke
        self.sources = (tuple(s for s in self.SOURCES if s[0] in ("lognormal", "weibull", "fisk"))
                        if smoke else self.SOURCES)
        self.n = 2_000 if smoke else 20_000
        self.workers = max(1, min(2 if smoke else 8, len(os.sched_getaffinity(0))))
        self.extra = ["--families", "lognormal,fisk"] if smoke else []
        self.cache = cache

    # fixed samples, as for presets-both: a fresh sample per --seed moves
    # the cost of the GB2 fits, and so of the whole call, by 30%; --seed
    # rotates the order of the six shorter fits behind the two longest,
    # which moves the pool's end by under 1%
    SAMPLE_SEED = 20180828

    def setup(self):
        datasets, self.truth, self.own = [], {}, {}
        for i, (fam, params, groups) in enumerate(self.sources):
            spec = dist.FamilySpec(fam, params)
            m = synth.sample_family(spec, self.n, seed=self.SAMPLE_SEED + i)
            d_id = f"{fam}-{groups}g"
            datasets.append(synth.microdata_to_grouped(
                m, synth.GroupingPolicy(n_groups=groups), id=d_id))
            self.truth[d_id] = (fam, params)
            self.own[d_id] = sample_gini(m.values)
        head, rest = datasets[:2], datasets[2:]
        r = self.seed % len(rest)
        self.path = os.path.join(self.work, "corpus.jsonl")
        gio.write_grouped_jsonl(head + rest[r:] + rest[:r], self.path)

    def unit(self, k):
        out = os.path.join(self.work, "fit.jsonl")
        argv = ["fit", "--input", self.path, "--output", out, "--method", "nls",
                "--epsilon", "", "--workers", str(self.workers),
                "--seed", str(self.seed)] + self.extra
        return [lambda: (quiet(cli.main, argv), out)]

    def check(self, results, tally):
        for code, out in results:
            if code != 0:
                tally.item(error=True)
                continue
            rows = _read_rows(out)
            truth = {}
            for r in rows:  # the source family's own fit against its true Gini
                fam, params = self.truth[r["id"]]
                if r["family"] == fam and r.get("gini") is not None:
                    ref = self.cache.get("gini", fam, params)
                    tally.add("source_gini_abs_err", abs(r["gini"] - ref))
                    truth[id(r)] = abs(r["gini"] - ref) <= SOURCE_ABS_TOL
            check_fit_rows(rows, tally, self.cache, self.own, truth)

    def units_done(self, n_units):
        return n_units * len(self.sources)


def grid_specs(smoke=False):
    """Fixed grid over all seven families.

    gb2, b2, sm and dagum run from far from the mean-existence boundary
    down to a margin (q - 1/a for gb2 and sm, q - 1 for b2, 1 - 1/a for
    dagum) of 0.005.
    """
    margins = (1.0,) if smoke else (1.0, 0.3, 0.1, 0.03, 0.005)
    specs = []
    for m in margins:
        specs += [
            ("gb2", (3.0, 1.0, 0.8, 1.0 / 3.0 + m)),
            ("gb2", (5.0, 1.0, 0.5, 0.2 + m)),
            ("b2", (1.0, 2.5, 1.0 + m)),
            ("sm", (2.5, 1.0, 0.4 + m)),
            ("dagum", (1.0 / (1.0 - min(m, 0.8)), 1.0, 0.9)),
        ]
    shapes = (0.8,) if smoke else (0.4, 0.8, 1.2)
    specs += [("lognormal", (0.0, s)) for s in shapes]
    shapes = (3.0,) if smoke else (1.5, 3.0, 5.0)
    specs += [("fisk", (a, 1.0)) for a in shapes]
    shapes = (1.5,) if smoke else (0.8, 1.5, 3.0)
    specs += [("weibull", (a, 1.0)) for a in shapes]
    return specs


class MeasuresGrid:
    """Parametric Gini and Atkinson of known specs, the library path."""

    name = "measures-grid"
    base_name = "evaluations"
    EPSILONS = (0.5, 1.0, 1.5)

    def __init__(self, seed, work, smoke, cache):
        self.seed, self.work, self.smoke = seed, work, smoke
        self.mc_n = 1_000 if smoke else 100_000
        self.cache = cache

    def setup(self):
        self.evals = []
        for i, (fam, params) in enumerate(grid_specs(self.smoke)):
            spec = dist.FamilySpec(fam, params)
            self.evals.append((i, spec, None))
            self.evals += [(i, spec, e) for e in self.EPSILONS
                           if measures.atkinson_exists(spec, e)]
        order = np.random.default_rng(self.seed).permutation(len(self.evals))
        self.evals = [self.evals[j] for j in order]

    def _gini(self, spec, mc_seed):
        try:
            return dist.gini_closed(spec)
        except NonConvergenceError:  # as cli._fit_gini does
            pass
        try:
            return measures.gini_mc(spec, measures.McConfig(n=self.mc_n, seed=mc_seed))
        except DomainError as exc:
            # known defect: draws that overflow to inf make the Monte Carlo
            # Gini NaN, which GiniValue rejects
            return KnownDefect(f"gini_mc: {exc}")

    def _atkinson(self, spec, eps, mc_seed):
        return measures.atkinson_mc(spec, eps, measures.McConfig(n=self.mc_n, seed=mc_seed))

    def unit(self, k):
        calls = []
        for j, (i, spec, eps) in enumerate(self.evals):
            mc_seed = (self.seed * 7919 + k * 1009 + j) & 0x7FFFFFFF
            if eps is None:
                calls.append(lambda s=spec, m=mc_seed: (s, None, self._gini(s, m)))
            else:
                calls.append(lambda s=spec, e=eps, m=mc_seed: (s, e, self._atkinson(s, e, m)))
        return calls

    def check(self, results, tally):
        for spec, eps, value in results:
            fam, params = spec.family, spec.params
            misses = []
            if isinstance(value, KnownDefect):
                tally.known_defects.append(f"{fam}{params}: {value.text}")
                tally.add("gini_digits", 0.0)
                tally.item(misses=[(False, value.text)])
                continue
            if eps is None:
                ref = self.cache.get("gini", fam, params)
                err = rel_err(value.value, ref)
                tally.add("gini_digits", digits(value.value, ref))
                if value.method == "monte_carlo":
                    if err > MC_REL_TOL:
                        misses.append((False, f"{fam}{params}: MC Gini"))
                else:
                    tol = SERIES_REL_TOL if value.method == "hypergeometric" else CLOSED_REL_TOL
                    if err > tol:
                        misses.append((True, f"{fam}{params}: Gini {value.value} vs {ref}"))
            else:
                ref = self.cache.get("atkinson", fam, params, eps)
                if fam == "lognormal":  # the quadrature against the closed form
                    closed = oracles.lognormal_atkinson(params[1], eps)
                    if rel_err(ref, closed) > 1e-12:
                        misses.append((True, f"oracle cross-check: {ref} vs {closed}"))
                tally.add("atkinson_digits", digits(value, ref))
                if not math.isfinite(value):
                    tally.add("atkinson_nan", 1)
                    tally.known_defects.append(f"{fam}{params}: atkinson_mc({eps}) = {value}")
                if rel_err(value, ref) > MC_REL_TOL:
                    misses.append((False, f"{fam}{params}: Atkinson {eps}"))
            tally.item(misses=misses)

    def units_done(self, n_units):
        return n_units * len(self.evals)


class MicrodataPipeline:
    """``simulate --microdata-out``, then ``group``, then ``measures``."""

    name = "microdata-pipeline"
    base_name = "passes"
    # one source, so that every pass costs the same and the median pass is
    # a typical one; the sample is fresh for every pass
    FAMILY, PARAMS = "lognormal", (0.0, 0.7)

    def __init__(self, seed, work, smoke, cache):
        self.seed, self.work, self.smoke = seed, work, smoke
        self.n = 5_000 if smoke else 100_000
        self.cache = cache

    def setup(self):
        pass  # the pipeline makes its own inputs, timed

    def unit(self, k):
        files = {name: os.path.join(self.work, name + ext) for name, ext in (
            ("micro", ".csv"), ("simulated", ".jsonl"), ("grouped", ".jsonl"),
            ("measures", ".json"))}
        steps = (
            ["simulate", "--family", self.FAMILY,
             "--params", ",".join(repr(v) for v in self.PARAMS), "--n", str(self.n),
             "--seed", str(1000 * self.seed + k), "--groups", "10",
             "--output", files["simulated"], "--microdata-out", files["micro"]],
            ["group", "--input", files["micro"], "--output", files["grouped"],
             "--groups", "10"],
            ["measures", "--input", files["micro"], "--output", files["measures"]],
        )
        return [lambda: (self.FAMILY, self.PARAMS, files,
                         [quiet(cli.main, argv) for argv in steps])]

    def check(self, results, tally):
        for fam, params, files, codes in results:
            if any(codes):
                tally.item(error=True)
                continue
            x = np.loadtxt(files["micro"], delimiter=",", skiprows=1, usecols=0)
            with open(files["measures"]) as fh:
                got = json.load(fh)
            sim = _read_rows(files["simulated"])[0]
            grp = _read_rows(files["grouped"])[0]
            misses = []
            g = sample_gini(x)
            if len(x) != self.n:
                misses.append((True, f"{len(x)} records, expected {self.n}"))
            if (rel_err(got["gini"], g) > CLOSED_REL_TOL
                    or rel_err(grp["gini"], g) > CLOSED_REL_TOL):
                misses.append((True, f"sample Gini {got['gini']} / {grp['gini']} vs {g}"))
            if rel_err(got["mean"], float(x.mean())) > CLOSED_REL_TOL:
                misses.append((True, "sample mean"))
            for key, a in got["atkinson"].items():
                if rel_err(a, sample_atkinson(x, float(key))) > 1e-8:
                    misses.append((True, f"sample Atkinson {key}"))
            if sim["u"] != grp["u"] or sim["s"] != grp["s"]:
                misses.append((True, "group of the CSV differs from simulate's grouping"))
            ref = self.cache.get("gini", fam, params)
            if abs(g - ref) > 0.01:
                misses.append((False, f"sample Gini {g} vs true {ref}"))
            tally.item(misses=misses)

    def units_done(self, n_units):
        return n_units * self.n


WORKLOADS = {
    "presets-both": PresetsBoth,
    "batch-nls": BatchNls,
    "measures-grid": MeasuresGrid,
    "microdata-pipeline": MicrodataPipeline,
}
