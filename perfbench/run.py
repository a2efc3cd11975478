#!/usr/bin/env python3
"""Benchmark of gb2fit: four workloads driven through the package's public
entry points from one process.

    python3 perfbench/run.py --workload presets-both --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --smoke

BENCHMARK.json lists presets-both and measures-grid, the two whose runs
of the same code agree within its bounds on a few shared cores;
batch-nls and microdata-pipeline run by name, in ``all`` and in
``--smoke`` (see README.md).

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing.  ``--trace 1`` runs one fixed unit of work untraced, traced and
untraced again, and reports the per-layer metrics and the tracing
overhead.
``--workload all`` runs each workload in turn and prints its report.
``--smoke`` runs every workload at a tiny size and checks that every
metric appears with its unit and that the counters repeat.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a report; the same report, with the machine information, goes to
``perfbench/_work/<workload>/result.json`` and, for a traced run, the
spans to ``perfbench/_work/<workload>/spans.jsonl``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
NAMES = ("presets-both", "batch-nls", "measures-grid", "microdata-pipeline")
SETUP_REPS = 5

# the per-workload report metrics beyond COMMON_REPORT, with their units
REPORT_METRICS = {
    "presets-both": (("datasets_per_s", "1/s"), ("dataset_latency_p50_s", "s"),
                     ("nls_rss_geomean", "1"), ("gini_abs_err_mean", "1")),
    "batch-nls": (("datasets_per_s", "1/s"), ("batch_latency_p50_s", "s"),
                  ("nls_rss_geomean", "1"), ("gini_abs_err_mean", "1"),
                  ("source_gini_abs_err_mean", "1")),
    "measures-grid": (("measures_per_s", "1/s"), ("measure_latency_p50_s", "s"),
                      ("measure_latency_p90_s", "s"), ("gini_digits_min", "digits"),
                      ("atkinson_digits_min", "digits"), ("atkinson_nan", "count")),
    "microdata-pipeline": (("records_per_s", "1/s"), ("pass_latency_p50_s", "s")),
}
COMMON_REPORT = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("failed_ratio", "ratio"))


def import_package():
    """Put this checkout's src/ first on the path and import gb2fit from it."""
    if not (SRC / "gb2fit" / "__init__.py").is_file():
        print(f"perfbench: no gb2fit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import gb2fit

    if Path(gb2fit.__file__).resolve().parent != (SRC / "gb2fit").resolve():
        print(f"perfbench: gb2fit imported from {gb2fit.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def machine_info():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def time_setup(wl, reps):
    """Median over ``reps`` of a fresh-interpreter import of gb2fit.cli
    plus the generation of the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gb2fit.cli"], env=env,
                       cwd=str(ROOT), check=True)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_unit(wl, k, tally, limit=None):
    """Time each call of unit ``k`` (its first ``limit`` calls);
    returns (latencies, results)."""
    latencies, results = [], []
    for call in wl.unit(k)[:limit]:
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # one failed operation must not end the run
            print(f"perfbench: {wl.name} unit {k}: {exc!r}", file=sys.stderr)
            tally.item(error=True)
            continue
        finally:
            latencies.append(time.perf_counter() - t0)
        results.append(result)
    return latencies, results


def report(wl, tally, latencies, units, setups, rss_mb):
    """The report metrics of this workload: name -> (value, unit, n);
    ``units`` ops were done in the summed ``latencies``."""
    s = tally.stats
    rate = units / sum(latencies)
    n_lat = len(latencies)
    out = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "failed_ratio": (tally.item_failures / tally.items if tally.items else 0.0,
                         "ratio", tally.items),
    }
    p50 = (statistics.median(latencies), "s", n_lat)
    if wl.name == "presets-both":
        out["datasets_per_s"] = (rate, "1/s", n_lat)
        out["dataset_latency_p50_s"] = p50
    elif wl.name == "batch-nls":
        out["datasets_per_s"] = (rate, "1/s", units)
        out["batch_latency_p50_s"] = p50
        out["source_gini_abs_err_mean"] = (
            statistics.fmean(s.get("source_gini_abs_err", [0.0])), "1",
            len(s.get("source_gini_abs_err", [])))
    elif wl.name == "measures-grid":
        out["measures_per_s"] = (rate, "1/s", n_lat)
        out["measure_latency_p50_s"] = p50
        out["measure_latency_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s", n_lat)
        out["gini_digits_min"] = (min(s["gini_digits"]), "digits", len(s["gini_digits"]))
        out["atkinson_digits_min"] = (min(s["atkinson_digits"]), "digits",
                                      len(s["atkinson_digits"]))
        out["atkinson_nan"] = (len(s.get("atkinson_nan", [])), "count",
                               len(s["atkinson_digits"]))
    else:
        out["records_per_s"] = (rate, "1/s", units)
        out["pass_latency_p50_s"] = p50
    if "nls_rss" in s:
        out["nls_rss_geomean"] = (statistics.geometric_mean(s["nls_rss"]), "1",
                                  len(s["nls_rss"]))
        out["gini_abs_err_mean"] = (statistics.fmean(s["gini_abs_err"]), "1",
                                    len(s["gini_abs_err"]))
    return out


def peak_rss_mb(workers_kb):
    """Peak RSS of this process plus the summed peaks of one pool's workers
    (pages shared with the parent after fork count in each)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workers_kb) / 1024.0


def run_workload(args):
    import_package()
    import oracles
    import workloads
    from tracer import Tracer, layer_metrics

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache = oracles.OracleCache(str(WORK / "oracles.json"))
    wl = workloads.WORKLOADS[args.workload](args.seed, str(work), args.size == "smoke", cache)
    tally = workloads.Tally()
    setups = time_setup(wl, 1 if args.size == "smoke" else SETUP_REPS)
    tracer = Tracer(str(work))

    if not args.trace:
        if args.workload == "batch-nls":
            tracer.install(trace=False)  # workers report their peak RSS
        latencies, timed, k, workers_kb = [], 0.0, 0, 0
        while k == 0 or timed < args.seconds:
            lat, results = run_unit(wl, k, tally)
            latencies += lat
            timed += sum(lat)
            # each fit call has its own pool: its workers run at the same time
            _, worker_rss = tracer.collect()
            workers_kb = max(workers_kb, sum(worker_rss.values()))
            tracer.reset()
            wl.check(results, tally)
            k += 1
        tracer.uninstall()
        units = wl.units_done(k)
        rep = report(wl, tally, latencies, units, setups, peak_rss_mb(workers_kb))
        samples = latencies
        metrics = {
            "setup_s": rep["setup_s"][:2],
            "throughput_per_s": (units / timed, "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": rep["peak_rss_mb"][:2],
        }
    else:
        # untraced before and after, so neither first-call costs nor a
        # drift of the machine's speed count as tracing overhead
        limit = getattr(wl, "trace_calls", None)
        untraced, _ = run_unit(wl, 0, workloads.Tally(), limit)
        tracer.install(trace=True)
        tracer.reset()
        try:
            wl.setup()
            traced, results = run_unit(wl, 0, tally, limit)
        finally:
            tracer.uninstall()
        spans, worker_rss = tracer.collect()
        untraced_after, _ = run_unit(wl, 0, workloads.Tally(), limit)
        untraced_s = (sum(untraced) + sum(untraced_after)) / 2
        wl.check(results, tally)
        tracer.write(spans, str(work / "spans.jsonl"))
        units = wl.units_done(1) if limit is None else limit
        rep = report(wl, tally, traced, units, setups,
                     peak_rss_mb(sum(worker_rss.values())))
        samples = traced
        layers = layer_metrics(spans)
        layers["trace.untraced_wall_s"] = untraced_s
        layers["trace.traced_wall_s"] = sum(traced)
        layers["trace.overhead_ratio"] = sum(traced) / untraced_s
        layers["check.failed_ratio"] = rep["failed_ratio"][0]
        layers["check.items"] = tally.items
        metrics = {k: (v, per_layer_unit(k)) for k, v in layers.items()}
    cache.save()

    info = machine_info()
    correct = tally.errors == 0 and not tally.strict_misses
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("# machine " + json.dumps(info, sort_keys=True))
    for name, (value, unit, n) in rep.items():
        print(f"#   {name:28s} {value:14.6g} {unit:7s} n={n}")
    base = f"{tally.item_failures} of {tally.items} {wl.base_name}"
    print(f"#   failed_ratio base: {base} ({tally.errors} errors, "
          f"{len(tally.strict_misses)} strict misses, {tally.soft_misses} Monte Carlo "
          f"or fit-quality misses)")
    print(f"#   known defects at the benchmark's creation: {len(tally.known_defects)}; "
          f"Gini oracles skipped at a GB2 shape bound: {tally.oracle_skipped}")
    for text in tally.strict_misses[:20]:
        print(f"#   STRICT MISS {text}")
    with open(work / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "machine": info, "report": rep,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "latencies_s": samples,
                   "strict_misses": tally.strict_misses,
                   "known_defects": tally.known_defects}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.items,
        "failed": tally.errors,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_child(workload, seed, seconds, trace, size):
    """Run one workload in a fresh interpreter; returns (output, last-line JSON)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args):
    status = 0
    for name in NAMES:
        out, result = run_child(name, args.seed, args.seconds, args.trace, args.size)
        print("\n".join(out.strip().splitlines()[:-1]))
        print(f"#   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status |= int(not result["correct"])
    return status


# counters that must be nonzero on a smoke-size traced run of each workload
SMOKE_NONZERO = {
    "presets-both": ("estimate.lorenz_evals", "estimate.starts", "measures.mc_draws",
                     "distributions.quantile_points", "estimate.gmm_fits"),
    "batch-nls": ("estimate.lorenz_evals", "estimate.starts"),
    "measures-grid": ("specfun.series_terms", "measures.mc_draws",
                      "specfun.inv_inc_beta_points", "distributions.gini_closed_calls"),
    "microdata-pipeline": ("io.microdata_bytes",),
}


def smoke():
    """Every workload at a tiny size, untraced and traced twice."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in NAMES:
        out, r0 = run_child(name, 1, 1, 0, "smoke")
        _, r1 = run_child(name, 1, 1, 1, "smoke")
        _, r2 = run_child(name, 1, 1, 1, "smoke")
        for trace, r in ((0, r0), (1, r1)):
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                f"or units differ from BENCHMARK.json")
            if not r["correct"] or r["failed"]:
                problems.append(f"{name} trace={trace}: correct={r['correct']} failed={r['failed']}")
        reported = {ln.split()[1] for ln in out.splitlines() if ln.startswith("#   ")}
        for metric, _ in COMMON_REPORT + REPORT_METRICS[name]:
            if metric not in reported:
                problems.append(f"{name}: report lacks {metric}")
        for key, unit in want[1].items():
            if unit in ("count", "bytes") and r1["metrics"][key] != r2["metrics"][key]:
                problems.append(f"{name}: counter {key} differs between same-seed runs: "
                                f"{r1['metrics'][key]['value']} vs {r2['metrics'][key]['value']}")
        for key in SMOKE_NONZERO[name]:
            if not r1["metrics"][key]["value"]:
                problems.append(f"{name}: counter {key} is 0")
        print(f"smoke {name}: ok" if not problems else f"smoke {name}: {len(problems)} problems so far")
    for p in problems:
        print("smoke FAIL:", p)
    print("smoke:", "PASS" if not problems else "FAIL")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check its metrics")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
