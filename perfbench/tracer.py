"""Spans around the public functions of gb2fit, installed from outside.

``Tracer.install()`` wraps every public function of the package's
modules and rebinds each name wherever it is looked up (``cli`` imports
``nls_fit`` and friends by name, ``distributions`` imports
``hyp3f2_unit`` and ``inv_inc_beta_ratio`` by name), so no module of the
package changes.  A span is (id, parent id, name, start, end, attrs);
spans stay in memory and are written out at the end.  Worker processes
of the ``fit --workers`` pool are forked with the wrappers in place and
append their spans to one file per process after each task (pickled:
the files are written and read only by this benchmark).
"""

import functools
import glob
import inspect
import json
import os
import pickle
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "synth", "grouped", "estimate", "distributions",
          "specfun", "measures", "select")

# cli has no __all__: its command handlers plus the per-dataset task and
# the Gini/Atkinson steps it runs for each fitted spec
_CLI_NAMES = ("main", "cmd_fit", "cmd_simulate", "cmd_group", "cmd_measures",
              "cmd_report", "_fit_one_dataset", "_fit_gini", "_fit_atkinson")

# parents by which a quantile or inverse-beta call is attributed
_ATKINSON = ("cli._fit_atkinson", "measures.atkinson_mc")
_MC = _ATKINSON + ("measures.gini_mc",)
_TASK = "cli._fit_one_dataset"


def _points(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


def _series(args, kwargs, result):
    return {"terms": int(result.terms), "unconverged": int(not result.converged)}


def _family(args, kwargs, result):
    return {"family": args[0] if args else kwargs.get("family")}


def _nls(args, kwargs, result):
    return {"family": result.spec.family, "starts": int(result.starts_tried)}


def _gmm(args, kwargs, result):
    return {"family": result.spec.family, "fallback": int(bool(result.note))}


def _written_bytes(args, kwargs, result):  # write_microdata_csv(m, path)
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _read_bytes(args, kwargs, result):  # read_microdata_csv(path)
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


_PROBES = {
    "distributions.quantile": _points,
    "specfun.inv_inc_beta_ratio": _points,
    "specfun.hyp3f2_unit": _series,
    "estimate.nls_fit": _nls,
    "estimate.gmm_fit": _gmm,
    "estimate.starting_values": _family,
    "io.write_microdata_csv": _written_bytes,
    "io.read_microdata_csv": _read_bytes,
}


def _public_functions(module, layer):
    names = _CLI_NAMES if layer == "cli" else getattr(module, "__all__", ())
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.main_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.next_id = 0
        self._patched = []  # (namespace, name, original)

    # -- recording -------------------------------------------------------
    def _enter(self, name):
        pid = os.getpid()
        if pid != self.pid:  # forked worker: keep the open stack, drop spans
            self.pid = pid
            self.spans = []
        sid = f"{pid}:{self.next_id}"
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        outer = self.active[name] == 0
        self.active[name] += 1
        return sid, parent, outer

    def _leave(self, sid, parent, name, outer, t0, attrs):
        t1 = time.perf_counter()
        self.stack.pop()
        self.active[name] -= 1
        self.spans.append((sid, parent, name, t0, t1, outer, attrs))

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, parent, outer = tracer._enter(name)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(sid, parent, name, outer, t0, None)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, outer = tracer._enter(name)
            attrs = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    attrs = probe(args, kwargs, result)
                return result
            finally:
                tracer._leave(sid, parent, name, outer, t0, attrs)
                if name == _TASK and os.getpid() != tracer.main_pid:
                    tracer.flush_worker()
        return wrapper

    def flush_worker(self):
        """Append this worker's spans and peak RSS to its own file."""
        path = os.path.join(self.outdir, f"worker-{os.getpid()}.pickle")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(path, "ab") as fh:
            pickle.dump((rss_kb, self.spans), fh, pickle.HIGHEST_PROTOCOL)
        self.spans = []

    # -- patching --------------------------------------------------------
    def install(self, trace=True):
        """Wrap the public functions (``trace``) or only the worker task,
        which then reports the worker's peak RSS."""
        import gb2fit
        from gb2fit import cli

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"gb2fit.{layer}") or __import__(
                f"gb2fit.{layer}", fromlist=["_"])
            for name, fn in _public_functions(module, layer):
                if trace or (module is cli and name == "_fit_one_dataset"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        namespaces = [vars(gb2fit)] + [
            vars(m) for n, m in list(sys.modules.items())
            if n.startswith("gb2fit.") and m is not None
        ]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[attr] = hit[1]
                    self._patched.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            ns[attr] = value
        self._patched = []

    def reset(self):
        self.spans = []
        for path in glob.glob(os.path.join(self.outdir, "worker-*.pickle")):
            os.remove(path)

    def collect(self):
        """Main-process spans plus every worker's, and the worker peaks."""
        spans = list(self.spans)
        worker_rss = {}
        for path in sorted(glob.glob(os.path.join(self.outdir, "worker-*.pickle"))):
            with open(path, "rb") as fh:
                while fh.peek(1):
                    rss_kb, worker_spans = pickle.load(fh)
                    worker_rss[path] = max(worker_rss.get(path, 0), rss_kb)
                    spans.extend(worker_spans)
        return spans, worker_rss

    def write(self, spans, path):
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


# -- aggregation ------------------------------------------------------------

def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans):
    """Per-layer times and counts from a list of spans.

    A span's self time is its duration minus the part of it covered by
    its child spans (children in worker processes included).  Inclusive
    times count only the outermost span of a name, so recursion (GB2
    starting values call the b2/sm/dagum ones) is not counted twice.
    """
    by_id = {}
    children = defaultdict(list)
    for s in spans:
        sid, parent, name, t0, t1, outer, attrs = s
        by_id[sid] = s
        if parent is not None:
            children[parent].append((t0, t1))

    ancestor_cache = {}

    def ancestor(sid, names):
        """Nearest ancestor span whose name is in ``names``, or None."""
        key = (sid, names)
        if key in ancestor_cache:
            return ancestor_cache[key]
        parent = by_id[sid][1] if sid in by_id else None
        if parent is None or parent not in by_id:
            hit = None
        elif by_id[parent][2] in names:
            hit = by_id[parent]
        else:
            hit = ancestor(parent, names)
        ancestor_cache[key] = hit
        return hit

    incl = defaultdict(float)
    calls = defaultdict(int)
    self_by_layer = defaultdict(float)
    c = defaultdict(float)
    for s in spans:
        sid, parent, name, t0, t1, outer, attrs = s
        dur = t1 - t0
        calls[name] += 1
        if outer:
            incl[name] += dur
        self_t = dur - _union_length(children.get(sid, ()), t0, t1)
        layer = name.split(".", 1)[0]
        if name == "cli._fit_atkinson":
            layer = "measures"  # the Atkinson step, run from cli
        self_by_layer[layer] += self_t
        attrs = attrs or {}
        if name == "distributions.lorenz":
            fit = ancestor(sid, ("estimate.nls_fit", "estimate.gmm_fit"))
            if fit is not None:
                c["estimate.lorenz_evals"] += 1
                fam = (fit[6] or {}).get("family")
                if fam is None:  # the fit raised; take the family from starts
                    sv = ancestor(sid, ("estimate.starting_values",))
                    fam = sv and (sv[6] or {}).get("family")
                if fam == "gb2":
                    c["estimate.lorenz_evals_gb2"] += 1
        elif name == "distributions.quantile":
            pts = attrs.get("points", 0)
            c["distributions.quantile_points"] += pts
            if ancestor(sid, _MC) is not None:
                c["measures.mc_draws"] += pts
            if ancestor(sid, _ATKINSON) is not None:
                c["distributions.quantile_atkinson_s"] += dur
            elif ancestor(sid, ("estimate.weighting_matrix",)) is not None:
                c["distributions.quantile_weighting_s"] += dur
        elif name == "specfun.inv_inc_beta_ratio":
            c["specfun.inv_inc_beta_points"] += attrs.get("points", 0)
        elif name == "specfun.hyp3f2_unit":
            c["specfun.series_terms"] += attrs.get("terms", 0)
            c["specfun.series_unconverged"] += attrs.get("unconverged", 0)
        elif name == "estimate.nls_fit":
            c["estimate.starts"] += attrs.get("starts", 0)
            if attrs.get("family") == "gb2" and outer:
                c["estimate.nls_fit_gb2_s"] += dur
        elif name == "estimate.gmm_fit":
            c["estimate.gmm_fits"] += 1
            c["estimate.gmm_fallbacks"] += attrs.get("fallback", 0)
        elif name in ("io.write_microdata_csv", "io.read_microdata_csv"):
            c["io.microdata_bytes"] += attrs.get("bytes", 0)

    lorenz_calls = calls["distributions.lorenz"]
    out = {
        "estimate.nls_fit_s": incl["estimate.nls_fit"],
        "estimate.starting_values_s": incl["estimate.starting_values"],
        "estimate.gmm_fit_s": incl["estimate.gmm_fit"],
        "estimate.weighting_matrix_s": incl["estimate.weighting_matrix"],
        "distributions.lorenz_s": incl["distributions.lorenz"],
        "distributions.lorenz_calls": lorenz_calls,
        "distributions.lorenz_us_per_call":
            1e6 * incl["distributions.lorenz"] / lorenz_calls if lorenz_calls else 0.0,
        "distributions.gini_closed_s": incl["distributions.gini_closed"],
        "distributions.gini_closed_calls": calls["distributions.gini_closed"],
        "distributions.quantile_s": incl["distributions.quantile"],
        "specfun.inv_inc_beta_s": incl["specfun.inv_inc_beta_ratio"],
        "specfun.hyp3f2_s": incl["specfun.hyp3f2_unit"],
        "measures.atkinson_s": incl["cli._fit_atkinson"] + incl["measures.atkinson_mc"],
        "measures.gini_mc_s": incl["measures.gini_mc"],
        "measures.gini_mc_calls": calls["measures.gini_mc"],
        "measures.sample_measures_s": incl["measures.sample_measures"],
        "cli.main_s": incl["cli.main"],
        "io.iter_grouped_s": incl["io.iter_grouped"],
        "io.write_grouped_s": incl["io.write_grouped_jsonl"],
        "io.read_microdata_s": incl["io.read_microdata_csv"],
        "io.write_microdata_s": incl["io.write_microdata_csv"],
        "synth.sample_s": incl["synth.sample_family"] + incl["synth.sample_mixture"],
        "synth.group_s": incl["synth.microdata_to_grouped"],
        "grouped.lower_bound_s": incl["grouped.lower_bound_gini"],
        "select.gof_scores_s": incl["select.gof_scores"],
        "trace.spans": len(spans),
    }
    for key in ("estimate.lorenz_evals", "estimate.lorenz_evals_gb2", "estimate.starts",
                "estimate.nls_fit_gb2_s", "estimate.gmm_fits", "estimate.gmm_fallbacks",
                "specfun.inv_inc_beta_points", "specfun.series_terms",
                "specfun.series_unconverged", "measures.mc_draws",
                "distributions.quantile_points", "distributions.quantile_atkinson_s",
                "distributions.quantile_weighting_s", "io.microdata_bytes"):
        out[key] = c[key]
    fits = c["estimate.gmm_fits"]
    out["estimate.gmm_fallback_ratio"] = c["estimate.gmm_fallbacks"] / fits if fits else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out
