"""Grid evaluation over (p0, eta) for phase-diagram and error-curve datasets.

The sweep is a pure function of its spec: rerunning one produces
byte-identical CSV output. Cells are ordered row-major with p0 as the
outer loop. Plotting is out of scope; the CSV is the deliverable.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import REGIONS, GridSolution, solve_grid
from .model import MODES, EnvironmentState, json_reals, require_integer
from .oracle import MAX_QUANTUM_SEARCH_DIM, SearchConfig, search_cells

CSV_FIELDS = ("p0", "eta", "region_c", "region_q", "perr_c", "perr_q", "advantage")
CSV_ORACLE_FIELDS = CSV_FIELDS + ("oracle_perr_c", "oracle_perr_q")

# Largest grid a spec may ask for (2001 x 2001), checked before anything is built.
# A sweep peaks at 28 bytes a cell (tracemalloc, 1001 x 1001); its CSV is streamed.
MAX_GRID_CELLS = 4_000_000
# Oracle sweep caps. Each cell runs two trace-norm searches whose cost grows
# steeply with d (see the README). Charging d^4 per cell against the budget
# of a 64 x 64 grid at d = 2 admits 4,096 cells at d = 2, 256 at d = 4 and 16 at d = 8.
MAX_ORACLE_CELLS = 4096
_ORACLE_BUDGET = MAX_ORACLE_CELLS * 2**4
# Most cells the CSV renders at once: a tile is max(1, CSV_BLOCK_CELLS // width)
# whole rows when a row fits and one row's CSV_BLOCK_CELLS-wide slice when not, so
# the write holds one tile and its column's eta text, not a row's (0.5 bytes an eta step).
CSV_BLOCK_CELLS = 2048


def _check_range(name: str, rng: tuple) -> tuple[float, float, int]:
    try:
        lo, hi, steps = rng
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a (min, max, steps) triple: {exc}") from exc
    lo, hi = json_reals([lo, hi], f"{name} bounds")
    require_integer(f"{name} steps", steps, 2)
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"{name} must satisfy 0 <= min <= max <= 1, got ({lo}, {hi})")
    return lo, hi, steps


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification: (min, max, steps) ranges include both endpoints.

    ``oracle`` is the search config (the seed) of the oracle columns, or None
    to leave them out. Every admission rule is checked here, so a spec that
    exists can be run; the ranges are stored as parsed ``(lo, hi, steps)`` triples.
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
        limit = min(MAX_ORACLE_CELLS, _ORACLE_BUDGET // d**4)
        if cells > limit:
            raise ValueError(f"oracle sweep grid has {cells} cells, more than the limit of "
                             f"{limit} at d = {d}")


@dataclass(slots=True)
class SweepRecord:
    """One grid cell of a sweep: the analytic fields of a CSV row."""

    p0: float
    eta: float
    region_c: str
    region_q: str
    perr_c: float
    perr_q: float
    advantage: float


@dataclass(frozen=True)
class SweepTable:
    """A sweep's results as columns over the grid ``p0[i] x eta[j]``.

    ``grid`` holds the analytic columns; the oracle ones have its shape, or are None.
    ``oracle_budget_stops`` counts each mode's restarts that ended on the iteration cap.
    ``stage_s`` is the wall time in seconds of each stage that built the table:
    ``grid`` (the closed forms) and, with the oracle on, ``oracle`` (both searches).
    ``len`` is the cell count; iterating yields each cell's analytic :class:`SweepRecord`, by p0 row.
    """

    p0: np.ndarray
    eta: np.ndarray
    grid: GridSolution
    oracle_perr_c: np.ndarray | None = None
    oracle_perr_q: np.ndarray | None = None
    oracle_budget_stops: dict[str, int] | None = None
    stage_s: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.p0.size * self.eta.size

    def __iter__(self):
        g, labels, etas = self.grid, np.array(REGIONS, dtype=object), self.eta.tolist()
        for i, p0 in enumerate(map(float, self.p0)):
            pc, pq = g.perr_c[i], g.perr_q[i]
            columns = (labels[g.region_c[i]], labels[g.region_q[i]], pc, pq, pc - pq)
            yield from map(SweepRecord, [p0] * len(etas), etas, *(x.tolist() for x in columns))


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid cell; oracle columns are filled only when requested.

    The oracle runs one batched search per mode over all cells with one
    search config, and hence one seed, so reruns are bit-identical.
    """
    t0 = time.perf_counter()
    p0s = np.linspace(*spec.p0_range)
    etas = np.linspace(*spec.eta_range)
    grid = solve_grid(p0s, etas, spec.env.lambda_min, spec.env.lambda_harmonic)
    t1 = time.perf_counter()
    if spec.oracle is None:
        return SweepTable(p0s, etas, grid, stage_s={"grid": t1 - t0})
    p0, eta = (a.ravel() for a in np.meshgrid(p0s, etas, indexing="ij"))
    results = [search_cells(spec.env, p0, eta, mode, spec.oracle) for mode in MODES]
    perr = [np.array([r.perr for r in rs]).reshape(p0s.size, etas.size) for rs in results]
    stops = {mode: sum(r.budget_stops for r in rs) for mode, rs in zip(MODES, results)}
    return SweepTable(p0s, etas, grid, *perr, stops,
                      stage_s={"grid": t1 - t0, "oracle": time.perf_counter() - t1})


def _eta_text(eta) -> tuple[str, list[int]]:
    # One text of "%.12g," strings, one per eta step, and where each one starts (and the end)
    text = ("%.12g," * eta.size) % tuple(eta.tolist())
    ends = np.flatnonzero(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord(",")) + 1
    return text, [0, *ends.tolist()]


def _csv_chunks(table: SweepTable):
    # The header, then tiles of at most CSV_BLOCK_CELLS cells, each one % call.
    # In regions I and II the minimal error is the prior whatever eta is, so a
    # row bakes each mode's error text by region code: its p0 text, its p1 text,
    # or a %.12g slot. The tail of a (region_c, region_q) pair is the labels, the
    # two texts, the advantage (0 in (I, I) and (II, II), else a slot) and any
    # oracle slots; `formats` says which numbers a pair formats. A run of one pair
    # within one row is its slice of the eta text (formatted once while tiles
    # share their columns, so once per table when a row fits), each eta string
    # followed by the tail and the next cell's p0 string.
    fields = CSV_FIELDS if table.oracle_perr_c is None else CSV_ORACLE_FIELDS
    oracle = () if table.oracle_perr_c is None else (table.oracle_perr_c, table.oracle_perr_q)
    slots = ",%.12g" * len(oracle) + "\n"
    formats = np.array([[a == 2, b == 2, not a == b < 2, *[True] * len(oracle)]
                        for a in range(3) for b in range(3)])
    tails = [(f"{c},{q},", a + 1, b + 1, f",{0 if a == b < 2 else '%.12g'}{slots}")
             for a, c in enumerate(REGIONS) for b, q in enumerate(REGIONS)]
    g, width = table.grid, table.eta.size
    rows, span = max(1, CSV_BLOCK_CELLS // width), min(width, CSV_BLOCK_CELLS)
    eta_texts = functools.lru_cache(maxsize=1)(lambda j: _eta_text(table.eta[j:j + span]))
    yield ",".join(fields) + "\n"
    for i in range(0, table.p0.size, rows):
        # per row: its p0 string, then the error texts indexed by region code + 1
        texts = [("%.12g," % p, "%.12g" % p, "%.12g" % (1.0 - p), "%.12g")
                 for p in table.p0[i:i + rows].tolist()]
        for j in range(0, width, span):
            tile, (etas, at) = np.s_[i:i + rows, j:j + span], eta_texts(j)
            w, pairs = len(at) - 1, (g.region_c[tile] * len(REGIONS) + g.region_q[tile]).ravel()
            cut = pairs[1:] != pairs[:-1]
            cut[w - 1::w] = True  # a run also ends with its row
            starts = [0, *(np.flatnonzero(cut) + 1).tolist()]
            pc, pq = g.perr_c[tile].ravel(), g.perr_q[tile].ravel()
            columns = [pc, pq, pc - pq, *(o[tile].ravel() for o in oracle)]
            runs = []
            for a, b, p in zip(starts, [*starts[1:], pairs.size], pairs[starts].tolist()):
                (r, a), (labels, x, y, rest) = divmod(a, w), tails[p]
                sep, tail = texts[r][0], f"{labels}{texts[r][x]},{texts[r][y]}{rest}"
                cells = etas[at[a]:at[b - r * w] - 1]  # the run's eta strings, less the last comma
                runs.append(f"{sep}{cells.replace(',', ',' + tail + sep)},{tail}")
            runs = "".join(runs)  # the tile's template: its runs are freed before the % call
            yield runs % tuple(np.stack(columns, axis=1)[formats[pairs]].tolist())


def records_to_csv(table: SweepTable) -> str:
    """Render a sweep as CSV text (12 significant digits, LF newlines, oracle columns if any)."""
    return "".join(_csv_chunks(table))


def write_csv(table: SweepTable, path) -> None:
    """Stream the CSV one tile at a time; identical specs yield byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_chunks(table))


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
