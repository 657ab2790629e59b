"""Grid evaluation over (p0, eta) for phase-diagram and error-curve datasets.

The sweep is a pure function of its spec: rerunning one produces
byte-identical CSV output. Records are ordered row-major with p0 as the
outer loop. Plotting is out of scope; the CSV is the deliverable.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .analytic import REGIONS, solve_grid
from .model import CONVENTIONAL, QUANTUM, EnvironmentState, Scenario
from .oracle import MAX_QUANTUM_SEARCH_DIM, SearchConfig, maximize_trace_norm

CSV_FIELDS = ("p0", "eta", "region_c", "region_q", "perr_c", "perr_q", "advantage")
CSV_ORACLE_FIELDS = CSV_FIELDS + ("oracle_perr_c", "oracle_perr_q")
_CSV_ROW = "%.12g,%.12g,%s,%s,%.12g,%.12g,%.12g\n"
_CSV_ORACLE_ROW = "%.12g,%.12g,%s,%s,%.12g,%.12g,%.12g,%.12g,%.12g\n"

# Largest grid a spec may ask for (2001 x 2001). The whole grid is evaluated
# in memory at once, so larger specs are rejected before anything is built.
MAX_GRID_CELLS = 4_000_000


def _check_range(name: str, rng: tuple) -> tuple[float, float, int]:
    try:
        lo, hi, steps = float(rng[0]), float(rng[1]), rng[2]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} bounds must be numbers: {exc}") from exc
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"{name} steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ValueError(f"{name} needs at least 2 steps, got {steps}")
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"{name} must satisfy 0 <= min <= max <= 1, got ({lo}, {hi})")
    return lo, hi, steps


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification: (min, max, steps) ranges include both endpoints."""

    p0_range: tuple[float, float, int]
    eta_range: tuple[float, float, int]
    env: EnvironmentState
    include_oracle: bool = False
    oracle_cfg: SearchConfig | None = None

    def __post_init__(self):
        n_p0 = _check_range("p0_range", self.p0_range)[2]
        n_eta = _check_range("eta_range", self.eta_range)[2]
        cells = n_p0 * n_eta
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"grid has {cells} cells, more than the limit of {MAX_GRID_CELLS}")


@dataclass(slots=True)
class SweepRecord:
    """One grid cell of a sweep."""

    p0: float
    eta: float
    region_c: str
    region_q: str
    perr_c: float
    perr_q: float
    advantage: float
    oracle_perr_c: float | None = None
    oracle_perr_q: float | None = None


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate every grid cell; oracle columns are filled only when requested.

    The oracle reuses one search config (and hence one seed) per cell, so
    output is deterministic regardless of ``workers``. Requesting the oracle
    for environments beyond the quantum search cap is a configuration error.
    """
    if spec.include_oracle and spec.env.dim > MAX_QUANTUM_SEARCH_DIM:
        raise ValueError(
            f"oracle sweep needs environment dimension <= {MAX_QUANTUM_SEARCH_DIM}, "
            f"got {spec.env.dim}"
        )
    p0s = np.linspace(*_check_range("p0_range", spec.p0_range))
    etas = np.linspace(*_check_range("eta_range", spec.eta_range))
    grid = solve_grid(p0s, etas, spec.env.lambda_min, spec.env.lambda_harmonic)

    # Columns become plain Python values; the p0 and eta floats and the
    # region labels are shared between records rather than copied per cell.
    labels = np.array(REGIONS, dtype=object)
    n = etas.size
    records = list(map(
        SweepRecord,
        [p0 for p0 in p0s.tolist() for _ in range(n)],
        etas.tolist() * p0s.size,
        labels[grid.region_c].ravel().tolist(),
        labels[grid.region_q].ravel().tolist(),
        grid.perr_c.ravel().tolist(),
        grid.perr_q.ravel().tolist(),
        (grid.perr_c - grid.perr_q).ravel().tolist(),
    ))
    if not spec.include_oracle:
        return records

    cfg = spec.oracle_cfg if spec.oracle_cfg is not None else SearchConfig()

    def attach_oracle(record: SweepRecord) -> SweepRecord:
        s = Scenario(record.p0, record.eta, spec.env)
        record.oracle_perr_c = maximize_trace_norm(s, CONVENTIONAL, cfg).perr
        record.oracle_perr_q = maximize_trace_norm(s, QUANTUM, cfg).perr
        return record

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(attach_oracle, records))
    else:
        records = [attach_oracle(r) for r in records]
    return records


def records_to_csv(records: list[SweepRecord], include_oracle: bool = False) -> str:
    """Render records as CSV text (12 significant digits, LF newlines)."""
    fields = CSV_ORACLE_FIELDS if include_oracle else CSV_FIELDS
    row = _CSV_ORACLE_ROW if include_oracle else _CSV_ROW
    values = attrgetter(*fields)
    return ",".join(fields) + "\n" + "".join([row % values(r) for r in records])


def write_csv(records: list[SweepRecord], path, include_oracle: bool = False) -> None:
    """Write the CSV dataset; identical specs yield byte-identical files."""
    text = records_to_csv(records, include_oracle)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@dataclass
class BoundaryCurves:
    """Region-boundary polylines over a p0 grid.

    ``*_raw`` columns keep the unclamped formula values (which may be
    negative, exceed 1, or be infinite at degenerate priors); the plain
    columns are clamped to [0, 1] for presentation.
    """

    p0: np.ndarray
    eta_star_raw: np.ndarray
    eta_star: np.ndarray
    eta_c_raw: np.ndarray
    eta_c: np.ndarray
    eta_q_raw: np.ndarray
    eta_q: np.ndarray


def region_boundaries(env: EnvironmentState, p0_range: tuple) -> BoundaryCurves:
    """Boundary curves eta*, eta_c, eta_q as functions of p0 for a fixed environment."""
    p0s = np.linspace(*_check_range("p0_range", p0_range))
    # An empty eta column: only the per-p0 boundary columns are needed.
    grid = solve_grid(p0s, p0s[:0], env.lambda_min, env.lambda_harmonic)
    return BoundaryCurves(
        p0=p0s,
        eta_star_raw=grid.eta_star, eta_star=np.clip(grid.eta_star, 0.0, 1.0),
        eta_c_raw=grid.eta_c, eta_c=np.clip(grid.eta_c, 0.0, 1.0),
        eta_q_raw=grid.eta_q, eta_q=np.clip(grid.eta_q, 0.0, 1.0),
    )
