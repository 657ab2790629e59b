import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illume import (
    CONVENTIONAL,
    QUANTUM,
    EnvironmentState,
    Scenario,
    SearchConfig,
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
from illume.sweep import MAX_GRID_CELLS, MAX_ORACLE_CELLS
from illume.tolerances import BOUNDARY_TOL

SKEW3 = [0.5, 0.3, 0.2]

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


class TestRunSweep:
    def test_row_major_ordering_and_count(self):
        spec = SweepSpec((0.0, 1.0, 3), (0.0, 1.0, 4), EnvironmentState([0.5, 0.5]))
        records = run_sweep(spec)
        assert len(records) == 12
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
        records = run_sweep(spec)
        for i in range(3):
            row = records[i * 101:(i + 1) * 101]
            inside = [r for r in row if r.region_c == "III"]
            for a, b in zip(inside, inside[1:]):
                assert b.perr_c < a.perr_c + 1e-15

    def test_oracle_columns_match_analytic(self):
        cfg = SearchConfig(restarts=6, steps_per_restart=600, seed=2, tolerance=1e-6)
        spec = SweepSpec(
            (0.3, 0.7, 3), (0.2, 1.0, 3), EnvironmentState([0.5, 0.5]), oracle=cfg,
        )
        for r in run_sweep(spec):
            assert abs(r.oracle_perr_c - r.perr_c) <= 1e-5
            assert abs(r.oracle_perr_q - r.perr_q) <= 1e-5

    def test_oracle_columns_equal_per_cell_searches(self):
        cfg = SearchConfig(restarts=4, steps_per_restart=300, seed=4, tolerance=1e-5)
        env = EnvironmentState(SKEW3)
        spec = SweepSpec((0.4, 0.6, 2), (0.3, 0.9, 3), env, oracle=cfg)
        records = run_sweep(spec)
        assert [(r.p0, r.eta) for r in records] == [
            (p0, eta) for p0 in np.linspace(0.4, 0.6, 2) for eta in np.linspace(0.3, 0.9, 3)]
        for r in records:
            s = Scenario(r.p0, r.eta, env)
            assert r.oracle_perr_c == maximize_trace_norm(s, CONVENTIONAL, cfg).perr
            assert r.oracle_perr_q == maximize_trace_norm(s, QUANTUM, cfg).perr

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

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("restarts", [1, 16, 32, 33, 10**9])
    def test_oracle_cap_bounds_cells_times_search_cost(self, d, restarts):
        # admitted iff cells <= MAX_ORACLE_CELLS and cells * restarts * d^4 <= the
        # budget of the default 32 restarts on a MAX_ORACLE_CELLS grid at d = 2
        env = EnvironmentState.completely_mixed(d)
        cfg = SearchConfig(restarts=restarts)
        budget = MAX_ORACLE_CELLS * 32 * 2**4
        for n_p0, n_eta in [(2, 2), (2, 8), (2, 9), (3, 6), (4, 4), (4, 8), (3, 11), (2, 25),
                            (2, 26), (16, 16), (16, 17), (2, 128), (2, 129), (64, 64), (64, 65)]:
            cells = n_p0 * n_eta
            admitted = cells <= MAX_ORACLE_CELLS and cells * restarts * d**4 <= budget
            try:
                SweepSpec((0.0, 1.0, n_p0), (0.0, 1.0, n_eta), env, oracle=cfg)
            except ValueError as exc:
                assert not admitted and f"oracle sweep grid has {cells} cells" in str(exc)
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
    ])
    def test_golden_bytes(self, spec, digest):
        text = records_to_csv(run_sweep(spec))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_oracle_header(self):
        cfg = SearchConfig(restarts=2, steps_per_restart=50, seed=1, tolerance=1e-4)
        spec = SweepSpec((0.5, 0.5, 2), (0.5, 0.5, 2), EnvironmentState([0.5, 0.5]), oracle=cfg)
        text = records_to_csv(run_sweep(spec))
        header = text.splitlines()[0]
        assert header == "p0,eta,region_c,region_q,perr_c,perr_q,advantage,oracle_perr_c,oracle_perr_q"
        assert all(len(line.split(",")) == 9 for line in text.splitlines()[1:])

    def test_empty_records_render_the_header_only(self):
        assert records_to_csv([]) == "p0,eta,region_c,region_q,perr_c,perr_q,advantage\n"


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
