"""Self-tests of the benchmark: smoke sizes, seeded inputs, metric names and units.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from reference import region_table, spectrum_lambdas  # noqa: E402
from gauge import SpeedGauge  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, GridSweep, OracleSearch, Tally, VerifySuites  # noqa: E402

# Each workload's own figures, printed in the report beside the end-to-end metrics.
NAMED = {
    "grid-sweep": {"cells_per_s"},
    "oracle-search": {"search_s_p50"},
    "solve-stream": {"solve_us_p50", "solve_us_p99", "cli_us_p50"},
    "verify-suites": set(),
}


def smoke(capsys, workload: str, trace: int):
    code = run.main([f"--workload={workload}", "--seed=7", "--seconds=0", f"--trace={trace}",
                     "--smoke"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def inputs_digest(obj) -> str:
    """sha256 over a canonical encoding of generated inputs (lists, dicts, floats, arrays)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"a{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            h.update(b"{")
            for k in sorted(x):
                feed(k)
                feed(x[k])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(x).encode())
            h.update(b";")

    feed(obj)
    return h.hexdigest()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_with_a_unit(capsys, workload, trace):
    report, result = smoke(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["wrong"]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]

    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in table]
    for name, unit, *_ in table:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(value, float) and math.isfinite(value), name
        assert report["metrics"][name]["n"] >= (0 if trace else 1)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name, *_ in table)

    named = report["workload_metrics"]
    assert NAMED[workload] | {"fail_frac"} <= set(named)
    for entry in named.values():
        assert entry["unit"] and entry["n"] >= 1
    assert report["env"]["nproc"] >= 1 and "OPENBLAS_NUM_THREADS" in report["env"]["thread_env"]


def test_solve_stream_failures_come_only_from_nan_spectra(capsys):
    report, result = smoke(capsys, "solve-stream", 0)
    assert set(report["failures"]) <= {"accepted_nan_spectrum", "cli_accepted_nan_spectrum"}
    assert result["failed"] == sum(report["failures"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    cls = WORKLOADS[workload]
    digest = [inputs_digest(cls(seed, False, tmp_path).inputs()) for seed in (3, 3, 4)]
    assert digest[0] == digest[1]
    assert digest[0] != digest[2]


def test_same_seed_gives_identical_csv_digests(tmp_path):
    digests = []
    for _ in range(2):
        job = GridSweep(5, True, tmp_path)
        tally = Tally()
        job.run_pass(NullTracer(), tally, SpeedGauge())
        assert not tally.wrong and tally.failed == 0
        digests.append(job.report(tally)["csv_sha256"])
    assert digests[0] == digests[1] and len(digests[0]) == len(GridSweep.KINDS)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in run.END_TO_END
    ]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in run.PER_LAYER]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert run.ORACLE_PAIRS == tuple(f"{m}.d{d}" for m, d, _ in OracleSearch.PAIRS)
    assert run.MATRIX_DIMS == VerifySuites.MATRIX_DIMS


def test_reference_region_table_covers_the_readme_cases():
    lam_d, lam_h = spectrum_lambdas([0.5, 0.3, 0.2])
    ref = region_table(0.5, 0.6, lam_d, lam_h)
    assert (ref["region_c"], ref["region_q"]) == ("III", "III")
    assert ref["perr_c"] == pytest.approx(0.26, abs=1e-15)
    assert ref["perr_q"] == pytest.approx(0.5 - 0.3 * (28 / 31), abs=1e-15)

    limits = region_table(np.array([0.0, 1.0]), 0.3, lam_d, lam_h)
    assert list(limits["region_c"]) == ["I", "II"] and list(limits["perr_q"]) == [0.0, 0.0]

    star = 1.0 - 0.3 / 0.7
    assert region_table(0.3, star - 0.5e-12, lam_d, lam_h)["region_c"] == "III"
    assert region_table(0.3, star - 2e-12, lam_d, lam_h)["region_c"] == "I"

    assert spectrum_lambdas([0.7, 0.3, 0.0]) == (0.0, 0.0)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("cli.outer"):
        with tracer.span("analytic.report"):
            sum(range(10000))
    spans = tracer.spans
    outer, inner = (s[2] - s[1] for s in spans)
    self_ns = tracer.self_ns_by_layer()
    assert self_ns["cli"] == outer - inner and self_ns["analytic"] == inner
    assert spans[1][3] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload=grid-sweep", "--seed=1", "--seconds=1",
         "--trace=0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
