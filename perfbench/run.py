#!/usr/bin/env python3
"""Benchmark for the illume library: seeded workloads, checked answers, named metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

Workloads: grid-sweep, oracle-search, solve-stream, verify-suites (see
``workloads.py`` and ``BENCHMARK.json``). The run repeats the workload's
fixed job list in passes until ``--seconds`` have elapsed, checks every
answer, and prints two JSON lines on stdout: a report (environment, every
named metric with its unit and sample count, failure breakdown, CSV
digests), then the result ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` passes alternate between untraced and
traced, the metrics are the per-layer ones derived from the spans, and
the spans are written to ``.perfbench/trace-<workload>-seed<seed>.json.gz``.
Pass timings are scaled by the machine-speed gauge in ``gauge.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "ILLUME_THREADS")

# (name, unit, better, bound): measured with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

ORACLE_PAIRS = ("conventional.d2", "conventional.d3", "conventional.d8", "conventional.d16",
                "quantum.d2", "quantum.d3", "quantum.d4", "quantum.d5")
MATRIX_DIMS = (2, 3, 4, 9, 16)

# (name, unit, better): from a traced run. Names ending in .us_p50, .us_p99,
# .ms or .s are statistics of the span of that name; layer.<L>.self_s is
# the layer's self time per traced pass; the rest are set by the workload.
PER_LAYER = (
    ("sweep.run_sweep.us_per_cell", "us", "lower"),
    ("sweep.records_to_csv.us_per_cell", "us", "lower"),
    ("sweep.run_sweep.alloc_mb", "MB", "lower"),
    ("sweep.region_boundaries.ms", "ms", "lower"),
    ("sweep.csv_bytes", "count", "lower"),
    *((f"oracle.maximize_trace_norm.{p}.{stat}", unit, better)
      for p in ORACLE_PAIRS
      for stat, unit, better in (("s", "s", "lower"), ("evaluations", "count", "lower"),
                                 ("evals_per_s", "1/s", "higher"), ("gap", "1", "lower"))),
    ("cli.sweep_oracle.s", "s", "lower"),
    ("cli.sweep_oracle.cpu_util", "ratio", "higher"),
    ("cli.sweep_oracle.speedup_vs_1", "ratio", "higher"),
    ("oracle.perr_of_state.us_p50", "us", "lower"),
    ("model.scenario_from_dict.us_p50", "us", "lower"),
    ("analytic.report.us_p50", "us", "lower"),
    ("analytic.report.us_p99", "us", "lower"),
    ("analytic.DetectionReport.to_dict.us_p50", "us", "lower"),
    ("cli.solve.us_p50", "us", "lower"),
    ("cli.reject.us_p50", "us", "lower"),
    ("oracle.run_lemma_suite.s", "s", "lower"),
    ("oracle.run_montecarlo_suite.s", "s", "lower"),
    ("cli.verify.lemmas.s", "s", "lower"),
    ("cli.verify.montecarlo.s", "s", "lower"),
    ("oracle.check_single_negative_eigenvalue.us_p50", "us", "lower"),
    ("oracle.check_eigenvalue_lower_bound.us_p50", "us", "lower"),
    ("oracle.check_perr_linear_in_min_eigenvalue.us_p50", "us", "lower"),
    ("oracle.check_convexity_reduction.us_p50", "us", "lower"),
    ("oracle.simulate_measurement.us_p50", "us", "lower"),
    *((f"linalg.{fn}.n{n}.us_p50", "us", "lower")
      for fn in ("trace_norm", "eig") for n in MATRIX_DIMS),
    *((f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
)

SPAN_STATS = {"us_p50": (50, 1e3), "us_p99": (99, 1e3), "ms": (50, 1e6), "s": (50, 1e9)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny job sizes, for self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="only build inputs and warm up (what setup_s times)")
    return p.parse_args(argv)


def environment_record(workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": workers,
    }


def time_setup(args, repeats: int, gauge) -> tuple[list[float], float]:
    """Wall time of fresh interpreters that import illume, build the inputs and warm up.

    Returns the raw times and one gauge factor for the whole set-up phase,
    from kernel samples taken before, between and after the interpreters.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           f"--workload={args.workload}", f"--seed={args.seed}", "--seconds=0"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    gauge.begin()
    for _ in range(repeats):
        gauge.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return times, gauge.end()


def measure(workload, seconds: float, tracer, null_tracer, tally, gauge):
    """Run passes until ``seconds`` elapse; with a tracer, alternate untraced and traced passes.

    Each pass's timings are scaled by its gauge factor. Returns the scaled
    untraced and traced pass times, the raw pass times and the factors.
    """
    plain, traced, raw, factors = [], [], [], []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        gc.collect()
        marks = {k: len(v) for k, v in tally.samples.items()}
        gauge.begin()
        ns = workload.run_pass(tracer if use_trace else null_tracer, tally, gauge)
        factor = gauge.end()
        for key, values in tally.samples.items():
            values[marks.get(key, 0):] = [x * factor for x in values[marks.get(key, 0):]]
        (traced if use_trace else plain).append(ns / 1e9 * factor)
        raw.append(ns / 1e9)
        factors.append(factor)
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            return plain, traced, raw, factors


def layer_values(tracer, tally, n_traced: int) -> dict:
    import numpy as np

    durations = tracer.durations_ns()
    self_ns = tracer.self_ns_by_layer()
    values = {}
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name in tally.extras:
            values[name] = (float(tally.extras[name]), 1)
        elif name.startswith("layer."):
            values[name] = (self_ns[name[len("layer."):-len(".self_s")]] / 1e9 / n_traced, n_traced)
        elif stat in SPAN_STATS and durations.get(base):
            q, scale = SPAN_STATS[stat]
            values[name] = (float(np.percentile(durations[base], q)) / scale, len(durations[base]))
        else:
            values[name] = (0.0, 0)  # the workload does not call this layer
    return values


def run(args, workdir: Path):
    from gauge import SpeedGauge
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Tally

    cls = WORKLOADS[args.workload]
    gauge = SpeedGauge()
    setup, setup_factor = ([], 1.0) if args.trace else time_setup(
        args, 1 if args.smoke else SETUP_REPEATS, gauge)
    workload = cls(args.seed, args.smoke, workdir)
    workload.warmup()

    tally = Tally()
    tracer = Tracer() if args.trace else None
    plain, traced, raw, factors = measure(workload, args.seconds, tracer, NullTracer(), tally,
                                          gauge)

    metrics = {}
    if args.trace:
        workload.traced_extras(tracer, tally, gauge)
        tally.extras["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, (value, n) in layer_values(tracer, tally, len(traced)).items():
            metrics[name] = (value, units[name], n)
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_file)
    else:
        metrics = {
            "setup_s": (statistics.median(setup) * setup_factor, "s", len(setup)),
            "wall_s": (statistics.median(plain), "s", len(plain)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        trace_file = None

    named, details = {}, {}
    for key, value in workload.report(tally).items():
        (named if isinstance(value, tuple) else details)[key] = value
    named["fail_frac"] = (tally.failed / tally.attempted, "1", tally.attempted)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes_s": {"untraced": plain, "traced": traced},
        "passes_raw_s": raw,
        "gauge_factors": factors,
        "setup_runs_raw_s": setup,
        "setup_gauge_factor": setup_factor,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "details": details,
        "failures": dict(tally.failures),
        "wrong": tally.wrong,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "env": environment_record(workload.workers),
    }
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "illume" / "__init__.py").is_file():
        print(f"error: no illume sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, args.smoke, workdir).warmup()
            return 0
        result, report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
