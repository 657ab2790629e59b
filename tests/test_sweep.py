import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illume import (
    CONVENTIONAL,
    QUANTUM,
    REGIONS,
    EnvironmentState,
    Scenario,
    SearchConfig,
    SweepRecord,
    SweepSpec,
    classify,
    eta_guess_absent,
    eta_star,
    maximize_trace_norm,
    perr_conventional,
    perr_quantum,
    records_to_csv,
    region_boundaries,
    run_sweep,
    write_csv,
)
import illume.sweep as sweep_module
from illume.sweep import (
    CSV_BLOCK_CELLS,
    CSV_FIELDS,
    CSV_ORACLE_FIELDS,
    MAX_GRID_CELLS,
    MAX_ORACLE_CELLS,
)
from illume.tolerances import BOUNDARY_TOL

SKEW3 = [0.5, 0.3, 0.2]
# completely mixed d = 2 on a 7 x 7 grid: every row has one or more runs of
# (I, I), (II, II), (II, III) or (III, III) cells
MIXED2_7X7 = SweepSpec((0.0, 1.0, 7), (0.0, 1.0, 7), EnvironmentState([0.5, 0.5]))
# the same environment on 2-wide rows of weak reflection: (I, I) rows, then
# (III, III) and (II, II) ones, so tiles of whole rows hold runs of one pair
# that continue across a row start
MIXED2_NARROW = SweepSpec((0.0, 1.0, 7), (0.0, 0.2, 2), EnvironmentState([0.5, 0.5]))

_weights = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8)
SPECTRA = st.one_of(
    st.just([1.0]),                                          # d = 1: lambda_d = lambda_h = 1
    st.integers(2, 16).map(lambda d: [1.0 / d] * d),         # completely mixed
    _weights.map(lambda w: [x / sum(w) for x in w]),         # fully positive
    _weights.map(lambda w: [x / sum(w) for x in w] + [0.0]),  # one zero eigenvalue
)
_unit = st.floats(0.0, 1.0)


@st.composite
def sweep_specs(draw):
    """Small sub-range grids, some pinned to p0 in {0, 1} or to a region boundary."""
    env = EnvironmentState(draw(SPECTRA))
    p0_lo, p0_hi = sorted((draw(_unit), draw(_unit)))
    p0_range = (draw(st.sampled_from([0.0, p0_lo])), draw(st.sampled_from([1.0, p0_hi])),
                draw(st.integers(2, 7)))
    eta_lo, eta_hi = sorted((draw(_unit), draw(_unit)))
    eta_range = (eta_lo, eta_hi, draw(st.integers(2, 7)))

    # eta exactly on a boundary of one p0 row, or BOUNDARY_TOL to either side
    p0 = draw(_unit)
    p1 = 1.0 - p0
    edges = [b for b in (eta_star(p0, p1), eta_guess_absent(p0, p1, env.lambda_min),
                         eta_guess_absent(p0, p1, env.lambda_harmonic))
             if 2 * BOUNDARY_TOL <= b <= 1.0 - 2 * BOUNDARY_TOL]
    if edges and draw(st.booleans()):
        b = draw(st.sampled_from(edges))
        lo, hi = sorted(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=2)))
        p0_range = (p0, p0, 2)
        eta_range = (b + lo * BOUNDARY_TOL, b + hi * BOUNDARY_TOL, draw(st.sampled_from([2, 3])))
    return SweepSpec(p0_range, eta_range, env)


def per_cell_csv(table) -> str:
    """The CSV built cell by cell from the records and oracle columns, apart from the renderer."""
    oracle = [] if table.oracle_perr_c is None else [
        table.oracle_perr_c.ravel().tolist(), table.oracle_perr_q.ravel().tolist()]
    lines = [",".join(CSV_ORACLE_FIELDS if oracle else CSV_FIELDS)]
    for r, *oracle_perr in zip(table, *oracle):
        numbers = [r.perr_c, r.perr_q, r.advantage, *oracle_perr]
        lines.append(",".join(["%.12g" % r.p0, "%.12g" % r.eta, r.region_c, r.region_q]
                              + ["%.12g" % x for x in numbers]))
    return "\n".join(lines) + "\n"


class TestRunSweep:
    def test_row_major_ordering_and_count(self):
        spec = SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 4), EnvironmentState([0.5, 0.5]))
        table = run_sweep(spec)
        records = list(table)
        assert len(table) == len(records) == 12
        assert [r.p0 for r in records[:4]] == [0.0] * 4
        np.testing.assert_allclose([r.eta for r in records[:4]], np.linspace(0, 1, 4))
        assert records[4].p0 == 0.5

    def test_completely_mixed_balanced_row(self):
        spec = SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 101), EnvironmentState([0.5, 0.5]))
        records = [r for r in run_sweep(spec) if r.p0 == 0.5]
        assert len(records) == 101
        for r in records:
            assert abs(r.perr_c - (0.5 - r.eta / 4.0)) <= 1e-12

    def test_degenerate_prior_rows(self):
        spec = SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 5), EnvironmentState(SKEW3))
        records = run_sweep(spec)
        for r in records:
            if r.p0 in (0.0, 1.0):
                assert r.perr_c == 0.0 and r.perr_q == 0.0
                assert r.region_c == ("I" if r.p0 == 0.0 else "II")

    def test_completely_mixed_d10_region_two_boundary(self):
        env = EnvironmentState.completely_mixed(10)
        spec = SweepSpec((0.55, 0.95, 9), (0.0, 0.1, 41), env)
        for r in run_sweep(spec):
            threshold = (r.p0 / (1.0 - r.p0) - 1.0) / 9.0
            expected = "II" if r.eta < threshold - 1e-12 else "III"
            assert r.region_c == expected

    def test_quantum_ordering_everywhere(self):
        # grid cells can land exactly on a region boundary, where the two
        # formulas agree analytically but may differ by an ulp; the spec's
        # ordering tolerance is 1e-12
        spec = SweepSpec((0.0, 1.0, 21), (0.0, 1.0, 21), EnvironmentState(SKEW3))
        for r in run_sweep(spec):
            assert r.perr_q <= r.perr_c + 1e-12
            assert r.advantage == r.perr_c - r.perr_q

    def test_quantum_region_two_inside_conventional(self):
        spec = SweepSpec((0.0, 1.0, 51), (0.0, 0.3, 31), EnvironmentState(SKEW3))
        for r in run_sweep(spec):
            if r.region_q == "II":
                assert r.region_c == "II"

    def test_region_three_monotone_along_eta(self):
        spec = SweepSpec((0.3, 0.7, 3), (0.0, 1.0, 101), EnvironmentState(SKEW3))
        records = list(run_sweep(spec))
        for i in range(3):
            row = records[i * 101:(i + 1) * 101]
            inside = [r for r in row if r.region_c == "III"]
            for a, b in zip(inside, inside[1:]):
                assert b.perr_c < a.perr_c + 1e-15

    @pytest.mark.parametrize("oracle", [None, SearchConfig()])
    def test_rows_equal_columns_bit_for_bit(self, search_budget, oracle):
        search_budget(2, 50)
        spec = SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 4), EnvironmentState(SKEW3), oracle=oracle)
        table = run_sweep(spec)
        g = table.grid
        columns = {"p0": np.repeat(table.p0, 4), "eta": np.tile(table.eta, 3),
                   "perr_c": g.perr_c, "perr_q": g.perr_q, "advantage": g.perr_c - g.perr_q}
        records = list(table)
        for name, column in columns.items():
            values = [getattr(r, name) for r in records]
            assert all(type(v) is float for v in values)
            assert np.array(values).tobytes() == np.ravel(column).tobytes()
        for name in ("region_c", "region_q"):
            assert [getattr(r, name) for r in records] == [
                REGIONS[k] for k in getattr(g, name).ravel()]
        # a record is the seven analytic fields; the oracle values are the table's columns
        fields = dataclasses.fields(SweepRecord)
        assert tuple(f.name for f in fields) == CSV_FIELDS
        assert all(f.default is dataclasses.MISSING for f in fields)
        assert all(len(dataclasses.astuple(r)) == len(CSV_FIELDS) for r in records)
        if oracle is None:
            assert table.oracle_perr_c is None and table.oracle_perr_q is None
        else:
            for column in (table.oracle_perr_c, table.oracle_perr_q):
                assert column.dtype == np.float64 and column.shape == g.perr_c.shape

    def test_peak_memory_of_a_201_squared_sweep(self):
        # columns only: about 40 bytes a cell, where a record per cell took about 260
        spec = SweepSpec((0.0, 1.0, 201), (0.0, 1.0, 201), EnvironmentState(SKEW3))
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_oracle_columns_match_analytic(self, search_budget):
        search_budget(6, 600)
        cfg = SearchConfig(seed=2)
        spec = SweepSpec(
            (0.3, 0.7, 3), (0.2, 1.0, 3), EnvironmentState([0.5, 0.5]), oracle=cfg,
        )
        table = run_sweep(spec)
        for r, oracle_c, oracle_q in zip(table, table.oracle_perr_c.ravel(),
                                         table.oracle_perr_q.ravel()):
            assert abs(oracle_c - r.perr_c) <= 1e-5
            assert abs(oracle_q - r.perr_q) <= 1e-5

    def test_oracle_columns_equal_per_cell_searches(self, search_budget):
        search_budget(4, 300)
        cfg = SearchConfig(seed=4)
        env = EnvironmentState(SKEW3)
        spec = SweepSpec((0.4, 0.6, 2), (0.3, 0.9, 3), env, oracle=cfg)
        table = run_sweep(spec)
        assert [(r.p0, r.eta) for r in table] == [
            (p0, eta) for p0 in np.linspace(0.4, 0.6, 2) for eta in np.linspace(0.3, 0.9, 3)]
        for r, oracle_c, oracle_q in zip(table, table.oracle_perr_c.ravel(),
                                         table.oracle_perr_q.ravel()):
            s = Scenario(r.p0, r.eta, env)
            assert oracle_c == maximize_trace_norm(s, CONVENTIONAL, cfg).perr
            assert oracle_q == maximize_trace_norm(s, QUANTUM, cfg).perr

    def test_budget_stops_sum_the_cells_searches(self, search_budget):
        search_budget(3, 2)
        cfg = SearchConfig(seed=1)
        env = EnvironmentState(SKEW3)
        table = run_sweep(SweepSpec((0.3, 0.6, 2), (0.2, 0.9, 3), env, oracle=cfg))
        stops = {mode: sum(maximize_trace_norm(Scenario(p0, eta, env), mode, cfg).budget_stops
                           for p0 in table.p0.tolist() for eta in table.eta.tolist())
                 for mode in (CONVENTIONAL, QUANTUM)}
        assert table.oracle_budget_stops == stops and stops[QUANTUM] > 0
        assert run_sweep(SweepSpec((0.3, 0.6, 2), (0.2, 0.9, 3), env)).oracle_budget_stops is None

    def test_oracle_dimension_cap(self):
        env = EnvironmentState.completely_mixed(17)
        with pytest.raises(ValueError, match="dimension"):
            SweepSpec((0.0, 1.0, 2), (0.0, 1.0, 2), env, oracle=SearchConfig())
        SweepSpec((0.0, 1.0, 2), (0.0, 1.0, 2), env)  # the analytic sweep has no such cap

    def test_spec_stores_parsed_ranges(self):
        spec = SweepSpec([np.int64(0), 1, 3], (np.float32(0.5), 1, np.int64(2)),
                         EnvironmentState([0.5, 0.5]))
        assert spec.p0_range == (0.0, 1.0, 3) and spec.eta_range == (0.5, 1.0, 2)
        assert all(type(x) is float for x in (*spec.p0_range[:2], *spec.eta_range[:2]))

    def test_spec_validation(self):
        env = EnvironmentState([0.5, 0.5])
        with pytest.raises(ValueError, match="steps"):
            SweepSpec((0.0, 1.0, 1), (0.0, 1.0, 5), env)
        with pytest.raises(ValueError, match="0 <= min <= max <= 1"):
            SweepSpec((0.0, 1.2, 5), (0.0, 1.0, 5), env)
        with pytest.raises(ValueError, match=r"eta_range must be a \(min, max, steps\) triple"):
            SweepSpec((0.0, 1.0, 5), (0.0, 1.0), env)
        with pytest.raises(ValueError, match=r"p0_range must be a \(min, max, steps\) triple"):
            region_boundaries(env, 0.5)

    @pytest.mark.parametrize("steps", [2.7, 4.0, "4", True, None])
    def test_rejects_non_integer_steps(self, steps):
        env = EnvironmentState([0.5, 0.5])
        with pytest.raises(ValueError, match="p0_range steps must be an integer"):
            SweepSpec((0.0, 1.0, steps), (0.0, 1.0, 3), env)
        with pytest.raises(ValueError, match="eta_range steps must be an integer"):
            SweepSpec((0.0, 1.0, 3), (0.0, 1.0, steps), env)
        with pytest.raises(ValueError, match="steps must be an integer"):
            region_boundaries(env, (0.0, 1.0, steps))
        assert len(run_sweep(SweepSpec((0.0, 1.0, np.int64(2)), (0.0, 1.0, 3), env))) == 6

    @pytest.mark.parametrize("bounds", [("0", 1.0), (0.0, "1"), (False, True), (0.0, 10**400)])
    def test_rejects_non_number_bounds(self, bounds):
        env = EnvironmentState([0.5, 0.5])
        with pytest.raises(ValueError, match="p0_range bounds must be numbers"):
            SweepSpec((*bounds, 3), (0.0, 1.0, 3), env)
        with pytest.raises(ValueError, match="bounds must be numbers"):
            region_boundaries(env, (*bounds, 3))
        spec = SweepSpec((np.float64(0.0), np.int64(1), 2), (np.float32(0.5), 1, 2), env)
        assert [r.eta for r in run_sweep(spec)] == [0.5, 1.0, 0.5, 1.0]

    def test_grid_size_limit(self):
        env = EnvironmentState([0.5, 0.5])
        SweepSpec((0.0, 1.0, 2000), (0.0, 1.0, MAX_GRID_CELLS // 2000), env)
        with pytest.raises(ValueError, match="cells"):
            SweepSpec((0.0, 1.0, 2000), (0.0, 1.0, MAX_GRID_CELLS // 2000 + 1), env)

    def test_oracle_grid_size_limit(self):
        env = EnvironmentState([0.5, 0.5])
        n = MAX_ORACLE_CELLS // 64
        SweepSpec((0.0, 1.0, 64), (0.0, 1.0, n), env, oracle=SearchConfig())
        with pytest.raises(ValueError, match="oracle sweep grid has .* cells"):
            SweepSpec((0.0, 1.0, 64), (0.0, 1.0, n + 1), env, oracle=SearchConfig())
        SweepSpec((0.0, 1.0, 64), (0.0, 1.0, n + 1), env)  # the same grid without the oracle

    @pytest.mark.parametrize("d, accepted, rejected", [
        (4, [(16, 16), (2, 128)], [(16, 17), (2, 129)]),
        # 17 cells is no grid (both axes need 2 steps), so 18 is the first above 16
        (8, [(4, 4), (2, 8)], [(2, 9), (3, 6)]),
    ])
    def test_oracle_cap_scales_with_dimension(self, d, accepted, rejected):
        env = EnvironmentState.completely_mixed(d)
        for n_p0, n_eta in accepted:
            SweepSpec((0.0, 1.0, n_p0), (0.0, 1.0, n_eta), env, oracle=SearchConfig())
        for n_p0, n_eta in rejected:
            with pytest.raises(ValueError, match=f"oracle sweep grid has {n_p0 * n_eta} cells"):
                SweepSpec((0.0, 1.0, n_p0), (0.0, 1.0, n_eta), env, oracle=SearchConfig())

    @pytest.mark.parametrize("d", range(1, 17))
    @pytest.mark.parametrize("restarts", [1, 16, 32, 33, 10**9])
    def test_oracle_cap_bounds_cells_times_search_cost(self, search_budget, d, restarts):
        # admitted iff cells <= MAX_ORACLE_CELLS and cells * 32 * d^4 <= the
        # budget of 32 restarts on a MAX_ORACLE_CELLS grid at d = 2: the rule
        # of the default search, which no restart count set in a test moves
        env = EnvironmentState.completely_mixed(d)
        search_budget(restarts)
        budget = MAX_ORACLE_CELLS * 32 * 2**4
        limits = {1: 4096, 2: 4096, 3: 809, 4: 256, 6: 50, 8: 16, 16: 1}
        if d in limits:
            assert min(MAX_ORACLE_CELLS, budget // (32 * d**4)) == limits[d]
        for n_p0, n_eta in [(2, 2), (2, 8), (2, 9), (3, 6), (4, 4), (4, 8), (3, 11), (2, 25),
                            (2, 26), (16, 16), (16, 17), (2, 128), (2, 129), (64, 64), (64, 65),
                            (29, 27), (30, 27), (5, 10), (3, 17)]:
            cells = n_p0 * n_eta
            admitted = cells <= MAX_ORACLE_CELLS and cells * 32 * d**4 <= budget
            try:
                SweepSpec((0.0, 1.0, n_p0), (0.0, 1.0, n_eta), env, oracle=SearchConfig())
            except ValueError as exc:
                assert not admitted and str(exc).startswith(f"oracle sweep grid has {cells} cells")
            else:
                assert admitted

    def test_oversized_grid_rejected_before_allocation(self):
        env = EnvironmentState([0.5, 0.5])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cells"):
                SweepSpec((0.0, 1.0, 100_000), (0.0, 1.0, 100_000), env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=300, deadline=None)
    @given(spec=sweep_specs())
    @example(spec=SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 3), EnvironmentState([1.0])))  # d = 1, p0 = p1
    def test_rows_equal_scalar_path(self, spec):
        records = run_sweep(spec)
        p0s = np.linspace(*spec.p0_range)
        etas = np.linspace(*spec.eta_range)
        assert len(records) == p0s.size * etas.size
        for k, r in enumerate(records):
            assert (r.p0, r.eta) == (p0s[k // etas.size], etas[k % etas.size])
            s = Scenario(r.p0, r.eta, spec.env)
            assert (r.region_c, r.region_q) == classify(s)
            assert r.perr_c == perr_conventional(s)
            assert r.perr_q == perr_quantum(s)
            assert r.advantage == r.perr_c - r.perr_q


class TestCsv:
    def test_header_and_formatting(self):
        spec = SweepSpec((0.0, 1.0, 2), (0.0, 1.0, 3), EnvironmentState([0.5, 0.5]))
        text = records_to_csv(run_sweep(spec))
        lines = text.splitlines()
        assert lines[0] == "p0,eta,region_c,region_q,perr_c,perr_q,advantage"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] in ("I", "II", "III")

    def test_twelve_significant_digits(self):
        spec = SweepSpec((1 / 3, 1 / 3, 2), (0.5, 0.5, 2), EnvironmentState(SKEW3))
        text = records_to_csv(run_sweep(spec))
        assert text.splitlines()[1].startswith("0.333333333333,")

    def test_byte_identical_reruns(self, tmp_path):
        spec = SweepSpec((0.0, 1.0, 11), (0.0, 1.0, 11), EnvironmentState(SKEW3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(spec), a)
        write_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    # sha256 of each CSV as rendered by the per-cell scalar implementation
    # this sweep replaced; any byte drift in values, labels or formatting fails.
    @pytest.mark.parametrize("spec, digest", [
        (SweepSpec((0.0, 1.0, 201), (0.0, 1.0, 201), EnvironmentState(SKEW3)),
         "afdcbe026fd653d72a6a00a9e54568a2cd14728c7e812285c6eeeaa5e41e8dca"),
        (SweepSpec((0.35, 1.0, 131), (0.0, 0.3, 61), EnvironmentState.completely_mixed(10)),
         "077ec527b24cc0cf13ece1b44223646c9cff30a478edef9601c0fe9628f39651"),
        # rows of CSV_BLOCK_CELLS + 1 cells, rendered in two tiles each; the digest
        # is that of the renderer before chunking, which formatted cell by cell
        (SweepSpec((0.2, 0.8, 3), (0.0, 1.0, 2049), EnvironmentState([0.6, 0.3, 0.1])),
         "895e3022d586c7466b15baa9955e0839775aacbd80f0164c3bc0f11524122fa3"),
        # region-II-heavy: 31% (I, I), 31% (II, II) and 10% (II, III) cells, whose
        # errors are written as row constants; the digests are the renderer's
        # before it did so, which formatted every number
        (SweepSpec((0.0, 1.0, 201), (0.0, 1.0, 201), EnvironmentState([0.5, 0.5])),
         "915d30326760f743dac0cdfa67f61fc8898fa58dabad51ee75a6d175adb70367"),
        # the same regions on 2049-wide rows, whose runs of one region pair
        # cross the CSV_BLOCK_CELLS tile edge
        (SweepSpec((0.0, 1.0, 41), (0.0, 1.0, 2049), EnvironmentState([0.5, 0.5])),
         "24d9c6217c7f933d921cfc3a34209056087cb143664b3a69541971419fabedac"),
    ])
    def test_golden_bytes(self, spec, digest):
        text = records_to_csv(run_sweep(spec))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_block_size(self):
        # 201-wide rows render 10 to a tile and 1001-wide rows 2; the 2049-wide
        # golden rows are split
        assert 1001 <= CSV_BLOCK_CELLS < 2049

    @settings(max_examples=200, deadline=None)
    @given(spec=sweep_specs(), block=st.sampled_from([1, 2, 3, 4, 6, 9, CSV_BLOCK_CELLS]))
    @example(spec=SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 3), EnvironmentState([1.0])),  # d = 1
             block=CSV_BLOCK_CELLS)
    @example(spec=MIXED2_7X7, block=1)
    @example(spec=MIXED2_7X7, block=2)
    @example(spec=MIXED2_7X7, block=3)
    @example(spec=MIXED2_NARROW, block=4)
    @example(spec=MIXED2_NARROW, block=6)
    @example(spec=MIXED2_NARROW, block=9)
    def test_equals_per_cell_rendering(self, spec, block):
        # blocks of 1-3 cells split the 2-7 wide rows, as CSV_BLOCK_CELLS splits wider
        # ones; blocks of 4-9 cells hold 2-4 of the 2-wide rows, the last tile partial
        table = run_sweep(spec)
        with mock.patch.object(sweep_module, "CSV_BLOCK_CELLS", block):
            assert records_to_csv(table) == per_cell_csv(table)

    @pytest.mark.parametrize("p0_range, eta_range, spectrum", [
        ((0.2, 0.8, 2), (0.0, 1.0, 3), SKEW3),
        ((0.1, 0.9, 3), (0.1, 0.7, 2), [0.7, 0.3]),
        ((0.0, 1.0, 2), (0.0, 1.0, 2), [1.0]),
        # completely mixed d = 2: (I, I), (II, II), (II, III) and (III, III) cells,
        # so oracle slots follow the baked guess-cell text
        ((0.0, 1.0, 4), (0.0, 1.0, 4), [0.5, 0.5]),
    ])
    def test_oracle_csv_equals_per_cell_rendering(self, search_budget, p0_range, eta_range,
                                                  spectrum):
        search_budget(2, 50)
        spec = SweepSpec(p0_range, eta_range, EnvironmentState(spectrum), oracle=SearchConfig(seed=1))
        table = run_sweep(spec)
        for block in (1, 2, 3, 4, 6, 9, CSV_BLOCK_CELLS):
            with mock.patch.object(sweep_module, "CSV_BLOCK_CELLS", block):
                text = records_to_csv(table)
            assert text == per_cell_csv(table)
            assert all(len(line.split(",")) == 9 for line in text.splitlines())

    def test_oracle_header(self, search_budget):
        search_budget(2, 50)
        cfg = SearchConfig(seed=1)
        spec = SweepSpec((0.5, 0.5, 2), (0.5, 0.5, 2), EnvironmentState([0.5, 0.5]), oracle=cfg)
        text = records_to_csv(run_sweep(spec))
        header = text.splitlines()[0]
        assert header == "p0,eta,region_c,region_q,perr_c,perr_q,advantage,oracle_perr_c,oracle_perr_q"
        assert all(len(line.split(",")) == 9 for line in text.splitlines()[1:])

    @pytest.mark.parametrize("oracle", [None, SearchConfig()])
    def test_streamed_file_equals_rendered_text(self, tmp_path, search_budget, oracle):
        search_budget(2, 50)
        spec = SweepSpec((0.2, 0.8, 2), (0.0, 1.0, 3), EnvironmentState(SKEW3), oracle=oracle)
        table = run_sweep(spec)
        write_csv(table, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == records_to_csv(table).encode("utf-8")

    @staticmethod
    def write_peak(spec, path) -> int:
        table = run_sweep(spec)
        tracemalloc.start()
        try:
            write_csv(table, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_streamed_peak_memory_does_not_grow_with_p0_steps(self, tmp_path):
        # the CSV is written one tile at a time, 40 rows of 51 cells, so 8 times
        # the rows (3 and 24 full tiles) must not raise the write's own
        # allocation peak. The peak is the heaviest tile's, which over (0, 1)
        # lies just above p0 = 0.5, where 40-row tiles fall only at fine p0
        # steps: there the peak rises from 406 KB at 64 rows to 507 KB at 512
        # and 511 KB at 4,096. The band (0.4, 0.6) holds such tiles at both
        # sizes (513 and 511 KB).
        peaks = [self.write_peak(SweepSpec((0.4, 0.6, steps), (0.0, 1.0, 51), EnvironmentState(SKEW3)),
                                 tmp_path / "grid.csv") for steps in (120, 960)]
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("p0_steps, eta_steps", [(201, 201), (41, 1001)])
    def test_streamed_peak_memory_is_one_tile(self, tmp_path, p0_steps, eta_steps):
        # the write holds one tile: 10 rows of 201 cells or 2 rows of 1001 (420
        # and 460 KB; 1001 x 1001, the same tiles, read 496 KB in 15-27 s traced)
        spec = SweepSpec((0.0, 1.0, p0_steps), (0.0, 1.0, eta_steps), EnvironmentState(SKEW3))
        assert self.write_peak(spec, tmp_path / "grid.csv") <= 2**20

    def test_streamed_peak_memory_is_bounded_at_wide_rows(self, tmp_path):
        # eta-width twin of the test above: a row is rendered CSV_BLOCK_CELLS
        # cells at a time, and only the chunk column being rendered holds its
        # eta strings, so a wide row adds little (about 2 bytes an eta step).
        # tracemalloc peaks of the write at 2 x 2,000 and 2 x 200,000: 0.28
        # and 0.73 MB; with every eta string formatted once per table they
        # were 0.28 and 15.0 MB (74 bytes an eta step), and the renderer
        # before chunking, with a list per column per row, read 0.65 and
        # 64.5 MB. Both rows are all (I, I) or all (II, II), so each chunk is
        # one run.
        peaks = []
        for steps in (2_000, 200_000):
            table = run_sweep(SweepSpec((0.0, 1.0, 2), (0.0, 1.0, steps), EnvironmentState(SKEW3)))
            tracemalloc.start()
            try:
                write_csv(table, tmp_path / "grid.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2e6
        assert (peaks[1] - peaks[0]) / 198_000 <= 10


class TestRegionBoundaries:
    def test_eta_star_value(self):
        curves = region_boundaries(EnvironmentState([0.5, 0.5]), (0.25, 0.25, 2))
        assert curves.eta_star_raw[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_skew3_thresholds(self):
        curves = region_boundaries(EnvironmentState(SKEW3), (0.6, 0.6, 2))
        assert curves.eta_c_raw[0] == pytest.approx(0.125, abs=1e-15)
        assert curves.eta_q_raw[0] == pytest.approx(3 / 56, abs=1e-15)

    def test_zero_eigenvalue_kills_region_two(self):
        curves = region_boundaries(EnvironmentState([0.7, 0.3, 0.0]), (0.05, 0.95, 19))
        np.testing.assert_array_equal(curves.eta_c_raw, 0.0)
        np.testing.assert_array_equal(curves.eta_q_raw, 0.0)

    def test_clamping_preserves_raw(self):
        curves = region_boundaries(EnvironmentState([0.5, 0.5]), (0.0, 1.0, 21))
        assert np.all(curves.eta_star <= 1.0) and np.all(curves.eta_star >= 0.0)
        assert np.all(curves.eta_c <= 1.0) and np.all(curves.eta_c >= 0.0)
        # raw eta* is negative where p0 > p1; raw eta_c explodes near p0 = 1
        assert curves.eta_star_raw[-6] < 0.0
        assert not np.isfinite(curves.eta_c_raw[-1]) or curves.eta_c_raw[-1] > 1.0

    @settings(max_examples=200, deadline=None)
    @given(spec=sweep_specs())
    @example(spec=SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 3), EnvironmentState([1.0])))  # d = 1, p0 = p1
    def test_equal_scalar_formulas(self, spec):
        env = spec.env
        curves = region_boundaries(env, spec.p0_range)
        p0s = curves.p0.tolist()
        assert p0s == np.linspace(*spec.p0_range).tolist()
        assert curves.eta_star_raw.tolist() == [eta_star(p0, 1.0 - p0) for p0 in p0s]
        assert curves.eta_c_raw.tolist() == [
            eta_guess_absent(p0, 1.0 - p0, env.lambda_min) for p0 in p0s]
        assert curves.eta_q_raw.tolist() == [
            eta_guess_absent(p0, 1.0 - p0, env.lambda_harmonic) for p0 in p0s]
