"""Grid evaluation over (p0, eta) for phase-diagram and error-curve datasets.

The sweep is a pure function of its spec: rerunning one produces
byte-identical CSV output. Records are ordered row-major with p0 as the
outer loop. Plotting is out of scope; the CSV is the deliverable.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .analytic import REGIONS, solve_grid
from .model import MODES, EnvironmentState, Scenario, json_reals
from .oracle import MAX_QUANTUM_SEARCH_DIM, SearchConfig, maximize_trace_norm

CSV_FIELDS = ("p0", "eta", "region_c", "region_q", "perr_c", "perr_q", "advantage")
CSV_ORACLE_FIELDS = CSV_FIELDS + ("oracle_perr_c", "oracle_perr_q")

# Largest grid a spec may ask for (2001 x 2001). The whole grid is evaluated
# in memory at once, so larger specs are rejected before anything is built.
MAX_GRID_CELLS = 4_000_000
# Oracle sweep caps. Each cell runs two trace-norm searches whose cost grows
# with the restart count and steeply with d (see the README). Charging
# restarts x d^4 per cell against the budget of the default 32 restarts on a
# 64 x 64 grid at d = 2 admits 4,096 cells at d = 2, 256 at d = 4 and 16 at d = 8.
MAX_ORACLE_CELLS = 4096
_ORACLE_BUDGET = MAX_ORACLE_CELLS * 32 * 2**4


def _check_range(name: str, rng: tuple) -> tuple[float, float, int]:
    try:
        lo, hi, steps = rng
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a (min, max, steps) triple: {exc}") from exc
    lo, hi = json_reals([lo, hi], f"{name} bounds")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"{name} steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ValueError(f"{name} needs at least 2 steps, got {steps}")
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"{name} must satisfy 0 <= min <= max <= 1, got ({lo}, {hi})")
    return lo, hi, steps


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification: (min, max, steps) ranges include both endpoints.

    ``oracle`` is the search config of the oracle columns, or None to leave
    them out. Every admission rule is checked here, so a spec that exists
    can be run; the ranges are stored as parsed ``(lo, hi, steps)`` triples.
    """

    p0_range: tuple[float, float, int]
    eta_range: tuple[float, float, int]
    env: EnvironmentState
    oracle: SearchConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "p0_range", _check_range("p0_range", self.p0_range))
        object.__setattr__(self, "eta_range", _check_range("eta_range", self.eta_range))
        cells = self.p0_range[2] * self.eta_range[2]
        if self.oracle is None:
            if cells > MAX_GRID_CELLS:
                raise ValueError(f"grid has {cells} cells, more than the limit of {MAX_GRID_CELLS}")
            return
        d = self.env.dim
        if d > MAX_QUANTUM_SEARCH_DIM:
            raise ValueError(
                f"oracle sweep needs environment dimension <= {MAX_QUANTUM_SEARCH_DIM}, got {d}"
            )
        limit = min(MAX_ORACLE_CELLS, _ORACLE_BUDGET // (self.oracle.restarts * d**4))
        if cells > limit:
            raise ValueError(
                f"oracle sweep grid has {cells} cells, more than the limit of {limit} "
                f"at d = {d} with {self.oracle.restarts} restarts"
            )


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


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate every grid cell; oracle columns are filled only when requested.

    The oracle reuses one search config (and hence one seed) per cell, so
    reruns are bit-identical.
    """
    p0s = np.linspace(*spec.p0_range)
    etas = np.linspace(*spec.eta_range)
    grid = solve_grid(p0s, etas, spec.env.lambda_min, spec.env.lambda_harmonic)

    # Columns become plain Python values; the p0 and eta floats and the
    # region labels are shared between records rather than copied per cell.
    labels = np.array(REGIONS, dtype=object)
    n = etas.size
    columns = (
        [p0 for p0 in p0s.tolist() for _ in range(n)],
        etas.tolist() * p0s.size,
        labels[grid.region_c].ravel().tolist(),
        labels[grid.region_q].ravel().tolist(),
        grid.perr_c.ravel().tolist(),
        grid.perr_q.ravel().tolist(),
        (grid.perr_c - grid.perr_q).ravel().tolist(),
    )
    if spec.oracle is None:
        return list(map(SweepRecord, *columns))
    scenarios = [Scenario(p0, eta, spec.env) for p0, eta in zip(*columns[:2])]
    oracle = [[maximize_trace_norm(s, mode, spec.oracle).perr for mode in MODES] for s in scenarios]
    return list(map(SweepRecord, *columns, *zip(*oracle)))


def records_to_csv(records: list[SweepRecord]) -> str:
    """Render records as CSV text (12 significant digits, LF newlines).

    The oracle columns are included when the records carry them.
    """
    oracle = bool(records) and records[0].oracle_perr_c is not None
    fields = CSV_ORACLE_FIELDS if oracle else CSV_FIELDS
    row = ",".join("%s" if f.startswith("region_") else "%.12g" for f in fields) + "\n"
    values = attrgetter(*fields)
    return ",".join(fields) + "\n" + "".join([row % values(r) for r in records])


def write_csv(records: list[SweepRecord], path) -> None:
    """Write the CSV dataset; identical specs yield byte-identical files."""
    text = records_to_csv(records)
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
