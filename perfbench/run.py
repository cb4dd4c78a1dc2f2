#!/usr/bin/env python3
"""quadrel benchmark: one workload per run, one caller, one process.

    python3 perfbench/run.py --workload crash-single-loop --seed 0 --seconds 30 --trace 0

Run from the repository root; quadrel is imported from ``src/``.  A run
times setup in fresh interpreters, then repeats passes over the
workload's ops until ``--seconds`` is used up, timing a host-speed probe
after every op, and checks every output.  The last stdout line is the
result object; the line before it is a report with the per-workload
metrics, the run environment, the probe times and every failure with its
reason.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics and the tracing overhead.  Exit code 1 means a
check of the benchmark itself failed (a repeated op gave another answer,
or spans did not nest); an op that raises or returns a wrong answer is
counted in ``failed``.  See README.md for every metric.
"""

import os

# Pin BLAS/OpenMP before numpy loads: SLSQP paths, and so every count,
# depend on the thread count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

# Per-workload metrics, as name -> (unit, better).  The last stdout line
# carries BENCHMARK.json's end_to_end set (trace 0) or per_layer set
# (trace 1); the report line carries these.
WORKLOAD_METRICS = {
    "setup_s": ("s", "lower"),
    "rssl_s_p50": ("s", "lower"), "rssl_s_p90": ("s", "lower"),
    "form_s_p50": ("s", "lower"), "form_s_p90": ("s", "lower"),
    "mc_msamples_per_s": ("Msamples/s", "higher"),
    "g_calls": ("count", "lower"), "form_g_calls": ("count", "lower"),
    "doe_size": ("count", "lower"), "gstar_evals": ("count", "lower"),
    "fail_frac": ("ratio", "lower"), "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small Monte Carlo audits and one setup probe (smoke test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(workload):
    """Child process: import quadrel, build the workload, print the times."""
    t0 = perf_counter()
    import quadrel  # noqa: F401
    t1 = perf_counter()
    import workloads
    workloads.build(workload, seed=0)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}))


def measure_setup(workload, n):
    runs = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment():
    import numpy as np
    import scipy
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def pass_summary(outcomes):
    """Times and counts of one pass."""
    by = {"rssl": [], "form": [], "mc": []}
    for o in outcomes:
        by[o.op.method].append(o)

    def ok_counters(method):
        return [o.result.counters for o in by[method] if o.result is not None]

    mc_s = sum(o.seconds for o in by["mc"])
    return {
        "pass_s": sum(o.seconds for o in outcomes),
        "rssl_s": sum(o.seconds for o in by["rssl"]),
        "form_s": sum(o.seconds for o in by["form"]),
        "mc_msamples_per_s": (sum(o.op.mc_work for o in by["mc"]) / mc_s / 1e6
                              if mc_s > 0 else 0.0),
        "g_calls": sum(c.deterministic_g_evals for c in ok_counters("rssl")),
        "form_g_calls": sum(c.deterministic_g_evals for c in ok_counters("form")),
        "doe_size": sum(o.result.doe_evals for o in by["rssl"] if o.result is not None),
        "gstar_evals": sum(c.gstar_evals for c in ok_counters("rssl")),
        "det_g_calls": sum(o.result.counters.deterministic_g_evals - o.result.doe_evals
                           for o in by["rssl"] if o.result is not None),
    }


def layer_summary(tracer):
    """Per-layer metrics of one traced pass."""
    from tracing import nesting_errors, self_times
    spans = tracer.spans
    selfs = self_times(spans)
    agg = {}
    for (name, start, end, _), self_s in zip(spans, selfs):
        a = agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += end - start
        a[2] += self_s

    def count(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def mean_us(name):
        return total(name) / count(name) * 1e6 if count(name) else 0.0

    # a start succeeded when the last SLSQP run of its sequence
    # (the start plus any restorations after it) succeeded
    starts, starts_ok, last_ok = 0, 0, None
    for is_restoration, success, _ in tracer.slsqp_calls:
        if not is_restoration:
            starts_ok += bool(last_ok)
            starts += 1
        last_ok = success
    starts_ok += bool(last_ok)

    fallback_parents = {s[3] for s in spans if s[0] == "form.fallback"}
    mpp_with_fallback = sum(1 for i in fallback_parents
                            if i >= 0 and spans[i][0] == "form.form_mpp")
    n_mpp = count("form.form_mpp")
    b = tracer.branches
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    layers = {
        "solver.gstar.calls": count("solver.gstar"),
        "solver.gstar.us": mean_us("solver.gstar"),
        "solver.variables_at.us": mean_us("solver.variables_at"),
        "quadratic.to_standard_normal.us": mean_us("quadratic.to_standard_normal"),
        "quadratic.spectral.us": mean_us("quadratic.spectral"),
        "pf.pf_quadratic.us": mean_us("pf.pf_quadratic"),
        "pf.branch.mixed": b.get("mixed-signs", 0),
        "pf.branch.same_sign": b.get("same-sign-p", 0) + b.get("same-sign-1-p", 0),
        "pf.branch.linear": b.get("linear-exact", 0),
        "solver.slsqp.calls": len(tracer.slsqp_calls),
        "solver.slsqp.self_s": self_s("solver.slsqp"),
        "solver.slsqp.nit": sum(nit for _, _, nit in tracer.slsqp_calls),
        "solver.starts_ok_frac": starts_ok / starts if starts else 0.0,
        "solver.restorations": sum(r for r, _, _ in tracer.slsqp_calls),
        "solver.deterministic.s": total("solver.deterministic"),
        "doe.fit_quadratic.us": mean_us("doe.fit_quadratic"),
        "doe.plan_points": tracer.plan_points,
        "form.form_mpp.calls": n_mpp,
        "form.form_mpp.us": mean_us("form.form_mpp"),
        "form.g_calls_per_mpp": (sum(tracer.mpp_g_rows) / n_mpp) if n_mpp else 0.0,
        "form.fallback_frac": mpp_with_fallback / n_mpp if n_mpp else 0.0,
        "montecarlo.draw_s": self_s("montecarlo.mc_pf"),
        "montecarlo.transform_samples.s": total("montecarlo.transform_samples"),
        "montecarlo.limit_state.s": total("montecarlo.limit_state"),
        "montecarlo.chunks": count("montecarlo.limit_state"),
    }
    spans_report = {
        "self_s": {name: a[2] for name, a in sorted(agg.items())},
        "calls": {name: a[0] for name, a in sorted(agg.items())},
        "self_sum_s": sum(selfs),
        "traced_ops_s": sum(spans[i][2] - spans[i][1] for i in roots),
        "min_self_s": min(selfs) if selfs else 0.0,
        "nesting_errors": nesting_errors(spans)[:5],
    }
    return layers, spans_report


END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_cost_p50": ("probe", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYER_UNITS = {
    "import_s": "s", "problems.build_s": "s",
    "solver.gstar.calls": "count", "solver.gstar.us": "us",
    "solver.variables_at.us": "us", "quadratic.to_standard_normal.us": "us",
    "quadratic.spectral.us": "us", "pf.pf_quadratic.us": "us",
    "pf.branch.mixed": "count", "pf.branch.same_sign": "count", "pf.branch.linear": "count",
    "solver.slsqp.calls": "count", "solver.slsqp.self_s": "s", "solver.slsqp.nit": "count",
    "solver.starts_ok_frac": "ratio", "solver.restorations": "count",
    "solver.deterministic.s": "s", "solver.deterministic.g_calls": "count",
    "doe.fit_quadratic.us": "us", "doe.plan_points": "count",
    "form.form_mpp.calls": "count", "form.form_mpp.us": "us",
    "form.g_calls_per_mpp": "count", "form.fallback_frac": "ratio",
    "montecarlo.draw_s": "s", "montecarlo.transform_samples.s": "s",
    "montecarlo.limit_state.s": "s", "montecarlo.chunks": "count",
    "trace.overhead_frac": "ratio",
}


COUNT_KEYS = ("g_calls", "form_g_calls", "doe_size", "gstar_evals", "det_g_calls")


def workload_metrics(ops, setup, summaries, counts, fail_frac, peak_rss_mb):
    """The per-workload metrics that apply to this workload's ops."""
    methods = {op.method for op in ops}

    def med(key):
        return statistics.median(s[key] for s in summaries)

    values = {"setup_s": setup["setup_s"]}
    if "rssl" in methods:
        values["rssl_s_p50"] = med("rssl_s")
        values["rssl_s_p90"] = quantile([s["rssl_s"] for s in summaries], 0.9)
        for key in ("g_calls", "doe_size", "gstar_evals"):
            values[key] = counts[key]
    if "form" in methods:
        values["form_s_p50"] = med("form_s")
        values["form_s_p90"] = quantile([s["form_s"] for s in summaries], 0.9)
        values["form_g_calls"] = counts["form_g_calls"]
    if "mc" in methods:
        values["mc_msamples_per_s"] = med("mc_msamples_per_s")
    values["fail_frac"] = fail_frac
    values["peak_rss_mb"] = peak_rss_mb
    return {k: {"value": v, "unit": WORKLOAD_METRICS[k][0], "better": WORKLOAD_METRICS[k][1]}
            for k, v in values.items()}


def repeat_check(passes):
    """Ops whose output or counters changed between passes with the same start."""
    first = {}
    bad = set()
    for start_index, outcomes in passes:
        for o in outcomes:
            key = (o.op.label, start_index % len(o.op.starts))
            seen = first.setdefault(key, o.fingerprint())
            if seen != o.fingerprint():
                bad.add(f"{o.op.label} start {key[1]}: {seen} then {o.fingerprint()}")
    return sorted(bad)


def failure_reasons(outcomes):
    failures = {}
    for o in outcomes:
        if o.failed:
            entry = failures.setdefault(o.op.label, {"count": 0, "reasons": []})
            entry["count"] += 1
            for reason in ([o.error] if o.error else []) + o.check_failures:
                if reason not in entry["reasons"]:
                    entry["reasons"].append(reason)
    return failures


def run_passes(ops, host_probe, trace, seconds, min_passes):
    """Repeat passes over ``ops`` until ``seconds`` is used up.

    Returns the passes as (start index, outcomes, summary, traced), the
    per-layer metrics and span report of each traced pass, and every probe
    time.  With ``trace`` an untraced pass is followed by a traced pass
    from the same start.
    """
    import tracing
    import workloads
    tracer = tracing.Tracer()
    probes = [host_probe()]
    passes, layer_runs, span_runs = [], [], []
    t_begin = perf_counter()
    while True:
        t_pass = perf_counter()
        n = len(passes)
        is_traced = trace and n % 2 == 1
        start_index = n // 2 if trace else n
        outcomes, cost = [], 0.0
        tracer.clear()
        with tracing.installed(tracer) if is_traced else nullcontext():
            for op in ops:
                out = workloads.run(op, start_index, tracer if is_traced else None)
                probes.append(host_probe())
                cost += out.seconds / (0.5 * (probes[-2] + probes[-1]))
                outcomes.append(out)
        if is_traced:
            layers, spans = layer_summary(tracer)
            layer_runs.append(layers)
            span_runs.append(spans)
        passes.append((start_index, outcomes, dict(pass_summary(outcomes), pass_cost=cost),
                       is_traced))
        now = perf_counter()
        if len(passes) >= min_passes and now - t_begin + (now - t_pass) > seconds:
            return passes, layer_runs, span_runs, probes


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "quadrel").is_dir():
        print(f"perfbench: no quadrel sources at {ROOT / 'src' / 'quadrel'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import workloads
    from probe import HostProbe
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = measure_setup(args.workload, 1 if args.tiny else SETUP_PROBES)
    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    cycle = max(len(op.starts) for op in ops)
    # Every start runs at least once untraced (and, with --trace 1, once
    # traced right after), and some op repeats for the repeat check.
    min_passes = 2 * cycle if args.trace else max(2, cycle + 1)
    workloads.warm_up()
    host_probe = HostProbe(workloads.WORKLOADS[args.workload])
    passes, layer_runs, span_runs, probes = run_passes(
        ops, host_probe, trace=bool(args.trace), seconds=args.seconds,
        min_passes=min_passes)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    flat = [o for _, outcomes, _, _ in passes for o in outcomes]
    attempted = len(flat)
    failed = sum(o.failed for o in flat)
    wrong = sorted({o.op.label for o in flat if o.check_failures})
    summaries = [s for _, _, s, traced in passes if not traced]
    # counts per pass, averaged over the run's starts (each start once)
    first_cycle = [s for _, _, s, traced in passes[:min_passes] if not traced][:cycle]
    counts = {k: statistics.fmean(s[k] for s in first_cycle) for k in COUNT_KEYS}
    metrics = workload_metrics(ops, setup, summaries, counts, failed / attempted, peak_rss_mb)
    checks = {"repeat": repeat_check([(i, o) for i, o, _, _ in passes]), "wrong_answers": wrong}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "starts": cycle,
        "passes": {"untraced": len(summaries), "traced": len(layer_runs),
                   "pass_s": [s["pass_s"] for s in summaries],
                   "pass_cost": [s["pass_cost"] for s in summaries]},
        "environment": environment(),
        "host_probe_ms": {"kind": host_probe.kind,
                          "median": statistics.median(probes) * 1e3,
                          "min": min(probes) * 1e3, "max": max(probes) * 1e3,
                          "n": len(probes)},
        "metrics": metrics,
        "failures": failure_reasons(flat),
    }

    if args.trace:
        # times: median over every traced pass; counts: mean over the first
        # traced pass of each start, so they repeat exactly for a seed
        layers = {k: statistics.median(run[k] for run in layer_runs)
                  if LAYER_UNITS[k] in ("s", "us") else
                  statistics.fmean(run[k] for run in layer_runs[:cycle])
                  for k in layer_runs[0]}
        layers["import_s"] = setup["import_s"]
        layers["problems.build_s"] = setup["build_s"]
        layers["solver.deterministic.g_calls"] = counts["det_g_calls"]
        traced_pass = statistics.median(s["pass_s"] for _, _, s, t in passes if t)
        layers["trace.overhead_frac"] = traced_pass / statistics.median(
            s["pass_s"] for s in summaries) - 1.0
        checks["span_nesting"] = sorted({e for sp in span_runs for e in sp["nesting_errors"]})
        checks["negative_self_time"] = [sp["min_self_s"] for sp in span_runs
                                        if sp["min_self_s"] < -1e-9]
        report["spans"] = span_runs[-1]
        out_metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        for k, (unit, _) in WORKLOAD_METRICS.items():
            if k not in ("setup_s", "peak_rss_mb"):
                out_metrics[k] = {"value": metrics[k]["value"] if k in metrics else 0.0,
                                  "unit": unit}
    else:
        values = {"setup_s": setup["setup_s"],
                  "pass_cost_p50": statistics.median(s["pass_cost"] for s in summaries),
                  "peak_rss_mb": peak_rss_mb}
        out_metrics = {k: {"value": values[k], "unit": u} for k, (u, _) in END_TO_END.items()}

    harness_ok = not any(checks[k] for k in checks if k != "wrong_answers")
    report["checks"] = checks
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": harness_ok and not wrong, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if harness_ok else 1


if __name__ == "__main__":
    sys.exit(main())
