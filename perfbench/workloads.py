"""The four seeded, closed-loop workloads of the illume benchmark.

Each workload turns ``--seed`` into a fixed job list, then runs that list
once per pass. One client in one process waits for every call before
making the next. A pass returns the nanoseconds spent inside its timed
calls; checking the answers, and the speed gauge (``gauge.py``), run
between calls, outside the timing.

Every workload records into a :class:`Tally`:

- ``attempted`` / ``failed``: operations made, and those that did not end
  as the workload expects (an error outside the oracle tolerance, a
  malformed request that was accepted, a non-zero CLI exit, ...);
- ``wrong``: answers that disagree with the independent reference in
  ``reference.py``. Any entry makes the run incorrect;
- ``samples``: named timings for the report.

Timings are raw nanoseconds or seconds; the runner scales each pass's
share by the gauge factor.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from illume import (
    EnvironmentState,
    Scenario,
    SearchConfig,
    SweepSpec,
    check_convexity_reduction,
    check_eigenvalue_lower_bound,
    check_perr_linear_in_min_eigenvalue,
    check_single_negative_eigenvalue,
    eig,
    maximize_trace_norm,
    perr_of_state,
    records_to_csv,
    region_boundaries,
    report,
    run_lemma_suite,
    run_montecarlo_suite,
    run_sweep,
    scenario_from_dict,
    simulate_measurement,
    trace_norm,
)
from illume.cli import main as cli_main

from reference import boundary_etas, probe_error, region_table, spectrum_lambdas, trace_norm_svd

ANSWER_TOL = 1e-12   # analytic answers against the reference
CSV_TOL = 1e-11      # CSV fields carry 12 significant digits
BEATS_TOL = 1e-10    # an oracle search may not beat the closed form by more
perf_ns = time.perf_counter_ns


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    extras: dict = field(default_factory=dict)

    def record(self, ok: bool, kind: str = "", count: int = 1, attempts: int = 1) -> None:
        """Count ``attempts`` operations, of which ``count`` failed with ``kind`` unless ``ok``."""
        self.attempted += attempts
        if not ok:
            self.failed += count
            self.failures[kind] += count

    def mismatch(self, message: str) -> None:
        """An answer disagreed with the reference (kept short: the first 20)."""
        if len(self.wrong) < 20:
            self.wrong.append(message)
        else:
            self.wrong[-1] = f"... and more (last: {message})"


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def _density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _dirichlet(rng: np.random.Generator, dim: int) -> list[float]:
    return [float(x) for x in rng.dirichlet(np.ones(dim))]


def _outside_unit_interval(rng) -> float:
    offset = float(rng.uniform(1e-6, 0.5))
    return -offset if rng.random() < 0.5 else 1.0 + offset


def _draw_in_region(rng, region: str, spectrum, quantum: bool) -> tuple[float, float]:
    """(p0, eta) whose label for the given mode is ``region``, with margin from the boundaries."""
    lam_d, lam_h = spectrum_lambdas(spectrum)
    lam = lam_h if quantum else lam_d
    for _ in range(10000):
        if region == "I":
            p0 = float(rng.uniform(0.05, 0.45))
            star, _ = boundary_etas(p0, lam)
            eta = float(rng.uniform(0.0, 0.9)) * float(star)
        elif region == "II":
            p0 = float(rng.uniform(0.55, 0.95))
            _, absent = boundary_etas(p0, lam)
            eta = float(rng.uniform(0.0, 0.9)) * min(float(absent), 1.0)
        else:
            p0 = float(rng.uniform(0.2, 0.8))
            star, absent_c = boundary_etas(p0, lam_d)
            lo = max(float(star), float(absent_c), 0.0) + 0.05
            if lo >= 1.0:
                continue
            eta = float(rng.uniform(lo, 1.0))
        table = region_table(p0, eta, lam_d, lam_h)
        if table["region_q" if quantum else "region_c"] == region:
            return p0, eta
    raise RuntimeError(f"could not draw a region-{region} scenario")


class Workload:
    """Common shape: generated inputs, one warm-up call, passes, traced extras."""

    name = ""
    workers = 1  # worker threads the program is asked to use
    SIZES: dict = {}

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.size = self.SIZES["smoke" if smoke else "full"]
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])

    def inputs(self):
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer, tally: Tally, gauge) -> int:
        raise NotImplementedError

    def traced_extras(self, tracer, tally: Tally, gauge) -> None:
        """Measurements made once in a traced run, after its passes."""

    def report(self, tally: Tally) -> dict:
        """The workload's own named metrics: ``{name: (value, unit, samples)}``."""
        return {}


class GridSweep(Workload):
    """201x201 (p0, eta) grids over [0, 1]^2: run_sweep -> records_to_csv -> region_boundaries."""

    name = "grid-sweep"
    SIZES = {"full": {"steps": 201}, "smoke": {"steps": 21}}
    DIMS = (2, 3, 8, 32, 128)
    KINDS = ("zero-eigenvalue", "completely-mixed", "random")

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        dims = self.rng.choice(self.DIMS, size=len(self.KINDS), replace=False)
        self.jobs = []
        for kind, d in zip(self.KINDS, dims):
            d = int(d)
            if kind == "completely-mixed":
                spectrum = [1.0 / d] * d
            else:
                raw = self.rng.dirichlet(np.ones(d))
                if kind == "zero-eigenvalue":
                    raw[int(self.rng.integers(d))] = 0.0
                    raw /= raw.sum()
                spectrum = [float(x) for x in raw]
            self.jobs.append({"kind": kind, "d": d, "spectrum": spectrum})
        self.cells = self.size["steps"] ** 2
        self.digests: dict[int, str] = {}   # job -> sha256 of its first CSV
        self.csv_bytes: dict[int, int] = {}

    def inputs(self):
        return self.jobs

    def _spec(self, job) -> SweepSpec:
        n = self.size["steps"]
        return SweepSpec((0.0, 1.0, n), (0.0, 1.0, n), EnvironmentState(job["spectrum"]))

    def warmup(self) -> None:
        env = EnvironmentState(self.jobs[0]["spectrum"])
        records_to_csv(run_sweep(SweepSpec((0.0, 1.0, 2), (0.0, 1.0, 2), env)))

    def run_pass(self, tracer, tally, gauge):
        total = 0
        n = self.size["steps"]
        for j, job in enumerate(self.jobs):
            gauge.sample()
            t0 = perf_ns()
            with tracer.span("bench.job", j):
                spec = self._spec(job)
                with tracer.span("sweep.run_sweep", j):
                    records = run_sweep(spec)
                with tracer.span("sweep.records_to_csv", j):
                    text = records_to_csv(records)
                with tracer.span("sweep.region_boundaries", j):
                    curves = region_boundaries(spec.env, (0.0, 1.0, n))
            dt = perf_ns() - t0
            total += dt
            tally.samples["job_s"].append(dt / 1e9)
            self._check(j, job, records, text, curves, tally)
        return total

    def _check(self, j, job, records, text, curves, tally):
        n = self.size["steps"]
        grid = np.linspace(0.0, 1.0, n)
        p0, eta = np.repeat(grid, n), np.tile(grid, n)
        lam_d, lam_h = spectrum_lambdas(job["spectrum"])
        ref = region_table(p0, eta, lam_d, lam_h)
        bad = np.zeros(self.cells, dtype=bool)
        if len(records) != self.cells:
            tally.mismatch(f"job {j}: {len(records)} records, expected {self.cells}")
            bad[:] = True
        else:
            got = {f: np.array([getattr(r, f) for r in records]) for f in
                   ("p0", "eta", "region_c", "region_q", "perr_c", "perr_q", "advantage")}
            bad |= (got["p0"] != p0) | (got["eta"] != eta)
            for f in ("region_c", "region_q"):
                bad |= got[f] != ref[f]
            for f in ("perr_c", "perr_q", "advantage"):
                bad |= ~(np.abs(got[f] - ref[f]) <= ANSWER_TOL)

        # The CSV is parsed once per job; later passes must reproduce its bytes.
        raw = text.encode("utf-8")
        digest = hashlib.sha256(raw).hexdigest()
        self.csv_bytes[j] = len(raw)
        if j not in self.digests:
            self.digests[j] = digest
            bad |= self._check_csv(text, p0, eta, ref)
        elif digest != self.digests[j]:
            tally.mismatch(f"job {j}: CSV bytes differ between passes")
            bad |= self._check_csv(text, p0, eta, ref)

        n_bad = int(bad.sum())
        if n_bad:
            k = int(np.flatnonzero(bad)[0])
            tally.mismatch(f"job {j} ({job['kind']}, d={job['d']}): {n_bad} cells differ, "
                           f"first at p0={p0[k]!r} eta={eta[k]!r}")
        tally.record(n_bad == 0, "cell_mismatch", count=n_bad, attempts=self.cells)

        star, absent_c = boundary_etas(grid, lam_d)
        _, absent_q = boundary_etas(grid, lam_h)
        ok = bool(np.array_equal(curves.p0, grid))
        for raw_curve, clamped, want in ((curves.eta_star_raw, curves.eta_star, star),
                                         (curves.eta_c_raw, curves.eta_c, absent_c),
                                         (curves.eta_q_raw, curves.eta_q, absent_q)):
            ok &= bool(np.all(np.isclose(raw_curve, want, rtol=0.0, atol=ANSWER_TOL)))
            ok &= bool(np.all(np.abs(clamped - np.clip(want, 0.0, 1.0)) <= ANSWER_TOL))
        if not ok:
            tally.mismatch(f"job {j}: region boundaries differ from the reference")
        tally.record(ok, "boundary_mismatch")

    @staticmethod
    def _check_csv(text, p0, eta, ref) -> np.ndarray:
        lines = text.split("\n")
        header = "p0,eta,region_c,region_q,perr_c,perr_q,advantage"
        bad = np.ones(p0.size, dtype=bool)
        if lines[0] != header or lines[-1] != "" or len(lines) != p0.size + 2:
            return bad
        rows = [line.split(",") for line in lines[1:-1]]
        cols = list(zip(*rows))
        num = {k: np.array(cols[i], dtype=float) for i, k in
               ((0, "p0"), (1, "eta"), (4, "perr_c"), (5, "perr_q"), (6, "advantage"))}
        bad = (np.abs(num["p0"] - p0) > CSV_TOL) | (np.abs(num["eta"] - eta) > CSV_TOL)
        bad |= (np.array(cols[2]) != ref["region_c"]) | (np.array(cols[3]) != ref["region_q"])
        for k in ("perr_c", "perr_q", "advantage"):
            bad |= ~(np.abs(num[k] - ref[k]) <= CSV_TOL)
        return bad

    def traced_extras(self, tracer, tally, gauge):
        spec = self._spec(self.jobs[0])
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dur = tracer.durations_ns()
        tally.extras["sweep.run_sweep.alloc_mb"] = peak / 2**20
        tally.extras["sweep.csv_bytes"] = float(sum(self.csv_bytes.values()))
        for name in ("sweep.run_sweep", "sweep.records_to_csv"):
            tally.extras[f"{name}.us_per_cell"] = float(np.median(dur[name])) / 1e3 / self.cells

    def report(self, tally):
        jobs = tally.samples["job_s"]
        return {
            "cells_per_s": (self.cells * len(jobs) / sum(jobs), "1/s", len(jobs)),
            "csv_sha256": [self.digests[j] for j in sorted(self.digests)],
            "csv_bytes": [self.csv_bytes[j] for j in sorted(self.csv_bytes)],
        }


class OracleSearch(Workload):
    """One maximize_trace_norm per (mode, d) pair, plus one in-process `illume sweep --oracle`."""

    name = "oracle-search"
    workers = os.cpu_count() or 1  # the CLI default with ILLUME_THREADS unset
    # (mode, d, region): the pairs cover regions I-III; the largest d of
    # each mode sit in region III, where the search has to climb.
    PAIRS = (
        ("conventional", 2, "I"), ("conventional", 3, "II"),
        ("conventional", 8, "III"), ("conventional", 16, "III"),
        ("quantum", 2, "I"), ("quantum", 3, "II"),
        ("quantum", 4, "III"), ("quantum", 5, "III"),
    )
    SIZES = {
        "full": {"pairs": PAIRS},
        "smoke": {"pairs": (("conventional", 2, "III"), ("quantum", 2, "I"))},
    }

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.searches = []
        for mode, d, region in self.size["pairs"]:
            spectrum = _dirichlet(self.rng, d)
            p0, eta = _draw_in_region(self.rng, region, spectrum, mode == "quantum")
            self.searches.append({"mode": mode, "d": d, "region": region, "p0": p0, "eta": eta,
                                  "spectrum": spectrum,
                                  "search_seed": int(self.rng.integers(2**31))})
        p0_lo = float(self.rng.uniform(0.2, 0.45))
        eta_lo = float(self.rng.uniform(0.3, 0.6))
        self.sweep_spec = {
            "p0_range": [p0_lo, p0_lo + 0.3, 2],
            "eta_range": [eta_lo, eta_lo + 0.3, 2],
            "spectrum": _dirichlet(self.rng, 2),
            "oracle_cfg": {"seed": int(self.rng.integers(2**31))},
        }
        self.spec_path = workdir / "oracle-sweep.json"
        self.spec_path.write_text(json.dumps(self.sweep_spec), encoding="utf-8")
        self.results: dict[str, tuple[int, float]] = {}  # pair -> (evaluations, gap)
        self.cpu_util: list[float] = []

    def inputs(self):
        return {"searches": self.searches, "sweep": self.sweep_spec}

    def warmup(self) -> None:
        job = self.searches[0]
        s = Scenario(job["p0"], job["eta"], EnvironmentState(job["spectrum"]))
        probe = np.zeros(job["d"] if job["mode"] == "conventional" else job["d"] ** 2)
        probe[0] = 1.0
        perr_of_state(s, probe, job["mode"])

    def _sweep_cli(self, out_path: Path, threads: str | None) -> tuple[int, str, float, float]:
        saved = os.environ.pop("ILLUME_THREADS", None)
        if threads is not None:
            os.environ["ILLUME_THREADS"] = threads
        try:
            c0, t0 = time.process_time(), perf_ns()
            code, out, _ = _cli(["sweep", f"--spec={self.spec_path}", f"--out={out_path}", "--oracle"])
            dt, cpu = perf_ns() - t0, time.process_time() - c0
        finally:
            os.environ.pop("ILLUME_THREADS", None)
            if saved is not None:
                os.environ["ILLUME_THREADS"] = saved
        return code, out, dt, cpu

    def run_pass(self, tracer, tally, gauge):
        total = 0
        tol = SearchConfig().tolerance
        for i, job in enumerate(self.searches):
            mode, d = job["mode"], job["d"]
            gauge.sample()
            t0 = perf_ns()
            with tracer.span("bench.search", i):
                s = Scenario(job["p0"], job["eta"], EnvironmentState(job["spectrum"]))
                with tracer.span(f"oracle.maximize_trace_norm.{mode}.d{d}", i):
                    result = maximize_trace_norm(s, mode, SearchConfig(seed=job["search_seed"]))
            t1 = perf_ns()
            with tracer.span("oracle.perr_of_state", i):
                recheck = perr_of_state(s, result.best_state, mode)
            t2 = perf_ns()
            total += t2 - t0
            tally.samples["search_s"].append((t1 - t0) / 1e9)

            lam_d, lam_h = spectrum_lambdas(job["spectrum"])
            ref = region_table(job["p0"], job["eta"], lam_d, lam_h)
            closed = float(ref["perr_q" if mode == "quantum" else "perr_c"])
            gap = result.perr - closed
            self.results[f"{mode}.d{d}"] = (result.evaluations, gap)
            direct = probe_error(job["p0"], job["eta"], job["spectrum"], result.best_state,
                                 mode == "quantum")
            if abs(recheck - result.perr) > BEATS_TOL or abs(direct - recheck) > BEATS_TOL:
                tally.mismatch(f"{mode} d={d}: perr_of_state {recheck!r}, search {result.perr!r}, "
                               f"reference {direct!r}")
            if gap < -BEATS_TOL:
                tally.mismatch(f"{mode} d={d}: search beats the closed form by {-gap:.3e}")
            tally.record(-BEATS_TOL <= gap <= tol,
                         "search_beats_closed_form" if gap < 0 else "search_gap_above_tolerance")

        out_path = self.workdir / "oracle-sweep.csv"
        gauge.sample()
        with tracer.span("cli.sweep_oracle"):
            code, out, dt, cpu = self._sweep_cli(out_path, None)
        total += dt
        tally.samples["sweep_oracle_s"].append(dt / 1e9)
        self.cpu_util.append(cpu / (dt / 1e9 * self.workers))
        self.sweep_csv = out_path.read_bytes() if code == 0 else b""
        tally.record(code == 0 and out == "" and self._sweep_ok(self.sweep_csv, tally, tol),
                     "sweep_oracle")
        return total

    def _sweep_ok(self, raw: bytes, tally, tol) -> bool:
        lines = raw.decode("utf-8").split("\n")[1:-1]
        lam_d, lam_h = spectrum_lambdas(self.sweep_spec["spectrum"])
        ok = len(lines) == 4
        for line in lines:
            f = line.split(",")
            p0, eta = float(f[0]), float(f[1])
            ref = region_table(p0, eta, lam_d, lam_h)
            for col, key, oracle_col in ((4, "perr_c", 7), (5, "perr_q", 8)):
                if abs(float(f[col]) - float(ref[key])) > CSV_TOL:
                    tally.mismatch(f"oracle sweep row {line}: {key} differs from the reference")
                    ok = False
                gap = float(f[oracle_col]) - float(f[col])
                if gap < -BEATS_TOL:
                    tally.mismatch(f"oracle sweep row {line}: oracle beats the closed form")
                ok &= -BEATS_TOL <= gap <= tol + CSV_TOL
        return ok

    def traced_extras(self, tracer, tally, gauge):
        gauge.begin()
        code, _, dt, _ = self._sweep_cli(self.workdir / "oracle-sweep-1.csv", "1")
        dt *= gauge.end()
        single = (self.workdir / "oracle-sweep-1.csv").read_bytes() if code == 0 else b""
        same = code == 0 and single == self.sweep_csv
        if not same:
            tally.mismatch("oracle sweep output depends on the worker count")
        tally.record(same, "sweep_oracle_worker_dependent")
        default_s = float(np.median(tally.samples["sweep_oracle_s"]))
        tally.extras["cli.sweep_oracle.speedup_vs_1"] = dt / 1e9 / default_s
        tally.extras["cli.sweep_oracle.cpu_util"] = float(np.median(self.cpu_util))
        dur = tracer.durations_ns()
        for key, (evaluations, gap) in self.results.items():
            name = f"oracle.maximize_trace_norm.{key}"
            tally.extras[f"{name}.evaluations"] = float(evaluations)
            tally.extras[f"{name}.evals_per_s"] = evaluations / (float(np.median(dur[name])) / 1e9)
            tally.extras[f"{name}.gap"] = gap

    def report(self, tally):
        s = tally.samples
        return {
            "search_s_p50": (float(np.median(s["search_s"])), "s", len(s["search_s"])),
            "sweep_oracle_s_p50": (float(np.median(s["sweep_oracle_s"])), "s",
                                   len(s["sweep_oracle_s"])),
            "searches": {k: {"evaluations": n, "gap": gap} for k, (n, gap) in self.results.items()},
        }


class SolveStream(Workload):
    """Single-scenario requests: library path and an in-process `illume solve` slice."""

    name = "solve-stream"
    SIZES = {
        "full": {"library": 10000, "cli": 200},
        "smoke": {"library": 300, "cli": 30},
    }
    MALFORMED_SHARE = 0.08
    MALFORMED_KINDS = ("p0_out_of_range", "eta_out_of_range", "spectrum_sum_off",
                       "negative_eigenvalue", "nan_spectrum")

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.library = self._requests(self.size["library"], boundary_cases=True)
        self.cli = self._requests(self.size["cli"], boundary_cases=False)
        self.cli_argv = [
            ["solve", f"--p0={r['p0']!r}", f"--eta={r['eta']!r}",
             "--spectrum=" + ",".join(repr(x) for x in r["spectrum"])]
            for r, _ in self.cli
        ]
        self.expected = None

    def _requests(self, n: int, boundary_cases: bool) -> list[tuple[dict, str]]:
        rng = self.rng
        n_bad = round(n * self.MALFORMED_SHARE)
        kinds = ["valid"] * (n - n_bad) + [self.MALFORMED_KINDS[i % 5] for i in range(n_bad)]
        out = []
        for kind in (kinds[i] for i in rng.permutation(n)):
            d = int(round(2 ** rng.uniform(1.0, 6.0)))
            shape = rng.random()
            if shape < 0.05:
                spectrum = [1.0 / d] * d
            else:
                raw = rng.dirichlet(np.ones(d))
                if shape < 0.10:
                    raw[int(rng.integers(d))] = 0.0
                    raw /= raw.sum()
                spectrum = [float(x) for x in raw]
            p0, eta = float(rng.random()), float(rng.random())
            extreme = rng.random()
            if extreme < 0.03:
                p0 = float(rng.integers(2))
            elif boundary_cases and extreme < 0.08:
                p0, eta = self._on_boundary(rng, spectrum)
            if kind == "p0_out_of_range":
                p0 = _outside_unit_interval(rng)
            elif kind == "eta_out_of_range":
                eta = _outside_unit_interval(rng)
            elif kind == "spectrum_sum_off":
                scale = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 1e-2)
                spectrum = [x * scale for x in spectrum]
            elif kind == "negative_eigenvalue":
                shift = spectrum[-1] + float(rng.uniform(1e-3, 0.05))
                spectrum = [spectrum[0] + shift] + spectrum[1:-1] + [spectrum[-1] - shift]
            elif kind == "nan_spectrum":
                spectrum = list(spectrum)
                spectrum[int(rng.integers(d))] = float("nan")
            out.append(({"p0": p0, "eta": eta, "spectrum": spectrum}, kind))
        return out

    @staticmethod
    def _on_boundary(rng, spectrum) -> tuple[float, float]:
        """A scenario within BOUNDARY_TOL below a region boundary (labelled III)."""
        lam_d, lam_h = spectrum_lambdas(spectrum)
        while True:
            p0 = float(rng.uniform(0.05, 0.95))
            star, absent = boundary_etas(p0, lam_d if rng.random() < 0.5 else lam_h)
            edge = float(star if p0 < 0.5 else absent)
            eta = edge - float(rng.uniform(0.0, 0.9)) * 1e-12
            if 0.0 <= eta <= 1.0 and edge > 1e-9:
                return p0, eta

    def inputs(self):
        return {"library": self.library, "cli": self.cli_argv}

    def _expect(self, requests):
        valid = [r for r, kind in requests if kind == "valid"]
        lams = np.array([spectrum_lambdas(r["spectrum"]) for r in valid]).reshape(-1, 2)
        return region_table([r["p0"] for r in valid], [r["eta"] for r in valid],
                            lams[:, 0], lams[:, 1])

    def warmup(self) -> None:
        request = next(r for r, kind in self.library if kind == "valid")
        json.dumps(report(scenario_from_dict(request)).to_dict(), allow_nan=False)

    def run_pass(self, tracer, tally, gauge):
        if self.expected is None:
            self.expected = (self._expect(self.library), self._expect(self.cli))
        total = 0
        got = []
        for i, (request, kind) in enumerate(self.library):
            gauge.tick()
            stage = "scenario_from_dict"
            t0 = perf_ns()
            try:
                with tracer.span("bench.request", i):
                    with tracer.span("model.scenario_from_dict", i):
                        s = scenario_from_dict(request)
                    stage = "report"
                    with tracer.span("analytic.report", i):
                        r = report(s)
                    stage = "to_dict"
                    with tracer.span("analytic.DetectionReport.to_dict", i):
                        payload = r.to_dict()
                    stage = "json_dumps"
                    with tracer.span("bench.json_dumps", i):
                        json.dumps(payload, allow_nan=False)
                    stage = ""
            except ValueError:
                pass
            dt = perf_ns() - t0
            total += dt
            if kind == "valid":
                tally.samples["solve_ns"].append(dt)
                if stage:
                    tally.mismatch(f"valid request {request} raised ValueError in {stage}")
                    got.append(None)
                else:
                    got.append(payload)
                tally.record(not stage, f"valid_raised_in_{stage}")
            else:
                rejected = stage in ("scenario_from_dict", "report")
                tally.record(rejected, f"accepted_{kind}")
        self._compare(got, self.expected[0], "library", tally)

        got = []
        for (request, kind), argv in zip(self.cli, self.cli_argv):
            gauge.tick()
            t0 = perf_ns()
            with tracer.span("cli.solve" if kind == "valid" else "cli.reject"):
                code, out, _ = _cli(argv)
            dt = perf_ns() - t0
            total += dt
            if kind == "valid":
                tally.samples["cli_ns"].append(dt)
                try:
                    payload = _strict_json(out) if code == 0 else None
                except ValueError:
                    payload = None
                if payload is None:
                    tally.mismatch(f"cli {argv}: exit {code}, output {out[:80]!r}")
                got.append(payload)
                tally.record(payload is not None, "cli_valid_failed")
            else:
                tally.samples["cli_reject_ns"].append(dt)
                tally.record(code == 2 and out == "", f"cli_accepted_{kind}")
        self._compare(got, self.expected[1], "cli", tally)
        return total

    @staticmethod
    def _compare(got: list, ref: dict, path: str, tally) -> None:
        for k, payload in enumerate(got):
            if payload is None:
                continue
            same = payload["region_c"] == ref["region_c"][k] and payload["region_q"] == ref["region_q"][k]
            for f in ("perr_c", "perr_q", "advantage"):
                same &= abs(payload[f] - float(ref[f][k])) <= ANSWER_TOL
            if not same:
                tally.mismatch(f"{path} answer {k} differs from the reference: {payload}")

    def report(self, tally):
        s = tally.samples
        us = np.array(s["solve_ns"]) / 1e3
        return {
            "solve_us_p50": (float(np.median(us)), "us", us.size),
            "solve_us_p99": (float(np.percentile(us, 99)), "us", us.size),
            "cli_us_p50": (float(np.median(s["cli_ns"])) / 1e3, "us", len(s["cli_ns"])),
        }


class VerifySuites(Workload):
    """`illume verify` suites in-process, plus direct calls on seeded random instances."""

    name = "verify-suites"
    SIZES = {
        "full": {"lemma_trials": 10000, "mc_trials": 100000, "direct_trials": 1000, "calls": 200},
        "smoke": {"lemma_trials": 200, "mc_trials": 2000, "direct_trials": 100, "calls": 8},
    }
    MATRIX_DIMS = (2, 3, 4, 9, 16)  # conventional probes d = 2..4, bipartite d^2 = 4, 9, 16

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng, n = self.rng, self.size["calls"]
        self.cli_seed, self.direct_seed = (int(x) for x in rng.integers(2**31, size=2))
        self.calls = []  # (span name, function, args)
        for k in range(n):
            d = 2 + k % 3
            self.calls.append(("oracle.check_single_negative_eigenvalue",
                               check_single_negative_eigenvalue,
                               (_density(rng, d), float(rng.uniform(1e-3, 2.0)), _haar(rng, d))))
        for k in range(n):
            d = 2 + k % 3
            spectrum = _dirichlet(rng, d)
            lam_h = spectrum_lambdas(spectrum)[1]
            alpha = lam_h * float(rng.random()) if k % 2 else lam_h + float(rng.exponential(0.5))
            self.calls.append(("oracle.check_eigenvalue_lower_bound", check_eigenvalue_lower_bound,
                               (EnvironmentState(spectrum), alpha, _haar(rng, d * d))))
        for k in range(n):
            d = 2 + k % 3
            spectrum = _dirichlet(rng, d)
            p0 = float(rng.uniform(0.05, 0.95))
            star = max(0.0, 1.0 - p0 / (1.0 - p0))
            eta = star + (1.0 - star) * float(rng.uniform(0.05, 1.0))  # gamma < 0
            self.calls.append(("oracle.check_perr_linear_in_min_eigenvalue",
                               check_perr_linear_in_min_eigenvalue,
                               (Scenario(p0, eta, EnvironmentState(spectrum)), _haar(rng, d))))
        for k in range(n):
            d, mode = 2 + k % 2, ("conventional", "quantum")[(k // 2) % 2]
            s = Scenario(float(rng.uniform(0.01, 0.99)), float(rng.random()),
                         EnvironmentState(_dirichlet(rng, d)))
            dim = d if mode == "conventional" else d * d
            self.calls.append(("oracle.check_convexity_reduction", check_convexity_reduction,
                               (s, _density(rng, dim), mode)))
        self.simulations = []
        for k in range(n):
            d, mode = 2 + k % 2, ("conventional", "quantum")[(k // 2) % 2]
            spectrum = _dirichlet(rng, d)
            p0, eta = float(rng.uniform(0.05, 0.95)), float(rng.random())
            probe = _haar(rng, d if mode == "conventional" else d * d)
            self.simulations.append((p0, eta, spectrum, probe, mode, int(rng.integers(2**31))))
        self.matrices = [(dim, _hermitian(rng, dim)) for dim in self.MATRIX_DIMS for _ in range(n)]

    def inputs(self):
        def plain(arg):
            if isinstance(arg, Scenario):
                return (arg.p0, arg.eta, arg.env.spectrum)
            return arg.spectrum if isinstance(arg, EnvironmentState) else arg

        return {"seeds": [self.cli_seed, self.direct_seed],
                "calls": [(name, [plain(a) for a in args]) for name, _, args in self.calls],
                "simulations": self.simulations, "matrices": self.matrices}

    def warmup(self) -> None:
        name, fn, args = self.calls[0]
        fn(*args)

    def _suite(self, tracer, tally, gauge, name, runner) -> int:
        gauge.sample()
        t0 = perf_ns()
        with tracer.span(name):
            result = runner()
        dt = perf_ns() - t0
        tally.samples[name].append(dt / 1e9)
        tally.record(result["violations"] == 0, f"{name}_violations")
        return dt

    def _verify_cli(self, suite: str, trials: int):
        code, out, _ = _cli(["verify", f"--suite={suite}", f"--seed={self.cli_seed}",
                             f"--trials={trials}"])
        try:
            return _strict_json(out) if code in (0, 1) else {"violations": -1}
        except ValueError:
            return {"violations": -1}

    def run_pass(self, tracer, tally, gauge):
        size = self.size
        total = self._suite(tracer, tally, gauge, "cli.verify.lemmas",
                            lambda: self._verify_cli("lemmas", size["lemma_trials"]))
        total += self._suite(tracer, tally, gauge, "cli.verify.montecarlo",
                             lambda: self._verify_cli("montecarlo", size["mc_trials"]))
        total += self._suite(tracer, tally, gauge, "oracle.run_lemma_suite",
                             lambda: run_lemma_suite(self.direct_seed, size["direct_trials"]))
        total += self._suite(tracer, tally, gauge, "oracle.run_montecarlo_suite",
                             lambda: run_montecarlo_suite(self.direct_seed, size["mc_trials"]))

        for name, fn, args in self.calls:
            gauge.tick()
            t0 = perf_ns()
            with tracer.span(name):
                ok = fn(*args)
            dt = perf_ns() - t0
            total += dt
            tally.record(bool(ok), f"{name}_false")

        trials = 2000
        for p0, eta, spectrum, probe, mode, seed in self.simulations:
            s = Scenario(p0, eta, EnvironmentState(spectrum))
            gauge.tick()
            t0 = perf_ns()
            with tracer.span("oracle.simulate_measurement"):
                stats = simulate_measurement(s, probe, mode, trials, seed)
            dt = perf_ns() - t0
            total += dt
            expected = probe_error(p0, eta, spectrum, probe, mode == "quantum")
            sigma = np.sqrt(max(expected * (1.0 - expected), 0.0) / trials)
            tally.record(stats.trials == trials and
                         abs(stats.empirical_perr - expected) <= 6.0 * sigma + 1e-9,
                         "simulate_measurement_off")

        for dim, op in self.matrices:
            gauge.tick()
            t0 = perf_ns()
            with tracer.span(f"linalg.trace_norm.n{dim}"):
                norm = trace_norm(op)
            t1 = perf_ns()
            with tracer.span(f"linalg.eig.n{dim}"):
                dec = eig(op)
            t2 = perf_ns()
            total += t2 - t0
            vals, vecs = dec.eigenvalues, dec.eigenvectors
            norm_ok = abs(norm - trace_norm_svd(op)) <= 1e-10
            eig_ok = (bool(np.all(np.diff(vals) <= 0.0))
                      and np.max(np.abs((vecs * vals) @ vecs.conj().T - op)) <= 1e-8
                      and np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-8)
            if not norm_ok:
                tally.mismatch(f"trace_norm n={dim}: {norm!r} vs {trace_norm_svd(op)!r}")
            if not eig_ok:
                tally.mismatch(f"eig n={dim}: decomposition does not reconstruct its input")
            tally.record(norm_ok, "trace_norm_mismatch")
            tally.record(eig_ok, "eig_mismatch")
        return total


WORKLOADS = {w.name: w for w in (GridSweep, OracleSearch, SolveStream, VerifySuites)}
WORKLOAD_NAMES = list(WORKLOADS)
