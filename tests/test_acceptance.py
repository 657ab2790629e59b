"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import dataclasses
import time

import numpy as np

from illume import (
    CONVENTIONAL,
    QUANTUM,
    EnvironmentState,
    Scenario,
    SearchConfig,
    SweepSpec,
    bundled_scenarios,
    classify,
    derived_params,
    maximize_trace_norm,
    omega_q,
    optimal_probe_quantum,
    perr_conventional,
    perr_quantum,
    run_sweep,
    simulate_measurement,
    trace_norm,
)
from conftest import random_scenario

SKEW3 = [0.5, 0.3, 0.2]


def _criterion(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_completely_mixed_binary_benchmark():
    start = time.perf_counter()
    env = EnvironmentState([0.5, 0.5])

    worst_analytic = 0.0
    for eta in np.linspace(0.0, 1.0, 101):
        value = perr_conventional(Scenario(0.5, float(eta), env))
        worst_analytic = max(worst_analytic, abs(value - (0.5 - eta / 4.0)))

    worst_oracle = 0.0
    for eta in np.linspace(0.0, 1.0, 11):
        s = Scenario(0.5, float(eta), env)
        result = maximize_trace_norm(s, CONVENTIONAL, SearchConfig(seed=5))
        worst_oracle = max(worst_oracle, abs(result.perr - (0.5 - eta / 4.0)))

    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "completely-mixed binary benchmark",
        worst_analytic <= 1e-12 and worst_oracle <= 1e-6 and elapsed < 10.0,
        f"analytic {worst_analytic:.2e} <= 1e-12, oracle {worst_oracle:.2e} <= 1e-6, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_2_quantum_optimum_achievability():
    start = time.perf_counter()
    s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
    target = 0.5 - 0.3 * (28.0 / 31.0)

    direct = (1.0 - trace_norm(omega_q(s, optimal_probe_quantum(s)))) / 2.0
    formula_gap = abs(direct - target)
    assert abs(perr_quantum(s) - target) <= 1e-12

    result = maximize_trace_norm(s, QUANTUM, SearchConfig(restarts=64, seed=11))
    search_gap = result.perr - target  # negative would mean a better state exists

    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "quantum optimum achievability",
        formula_gap <= 1e-10 and search_gap >= -1e-6 and abs(search_gap) <= 1e-6
        and elapsed < 120.0,
        f"state-vs-formula {formula_gap:.2e} <= 1e-10, search gap {search_gap:+.2e}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_3_region_boundary_correctness():
    spectra = [(0.5, 0.5), tuple(SKEW3), tuple([0.1] * 10)]
    ok = True
    details = []
    for spectrum in spectra:
        env = EnvironmentState(list(spectrum))
        records = run_sweep(SweepSpec((0.0, 1.0, 201), (0.0, 1.0, 201), env))
        for r in records:
            if r.region_q == "II" and r.region_c != "II":
                ok = False
            if r.region_c == "I":
                ok = ok and r.perr_c == r.p0 and r.region_q == "I" and r.perr_q == r.p0
            if r.region_c == "II":
                ok = ok and r.perr_c == 1.0 - r.p0
            if r.region_q == "II":
                ok = ok and r.perr_q == 1.0 - r.p0

        # continuity when a boundary is approached within 1e-6 in eta
        from illume import eta_guess_absent, eta_star

        worst_jump = 0.0
        for p0 in (0.2, 0.35, 0.6, 0.75, 0.9):
            p1 = 1.0 - p0
            boundaries = (
                eta_star(p0, p1),
                eta_guess_absent(p0, p1, env.lambda_min),
                eta_guess_absent(p0, p1, env.lambda_harmonic),
            )
            for eta_b in boundaries:
                if not 1e-5 < eta_b < 1.0 - 1e-5:
                    continue
                for perr in (perr_conventional, perr_quantum):
                    lo = perr(Scenario(p0, eta_b - 1e-6, env))
                    hi = perr(Scenario(p0, eta_b + 1e-6, env))
                    worst_jump = max(worst_jump, abs(hi - lo))
        ok = ok and worst_jump <= 1e-5
        details.append(f"d={env.dim} jump {worst_jump:.1e}")

    _criterion(3, "region-boundary correctness on 201x201 grids", ok, "; ".join(details))


def test_criterion_4_appendix_lemma_suite(lemma_suite_2026):
    # 10^4 rank-one trials and 10^3 each of the bipartite bound, the error
    # linearity and the convexity reduction, through the check_* margins
    checks = lemma_suite_2026["checks"]
    assert [c["trials"] for c in checks] == [10_000, 1_000, 1_000, 1_000]
    _criterion(
        4,
        "appendix lemma suite",
        all(c["violations"] == 0 for c in checks),
        ", ".join(f"{c['name']} {c['trials'] - c['violations']}/{c['trials']}" for c in checks),
    )


def test_criterion_5_global_bounds_and_monotonicity():
    rng = np.random.default_rng(17)
    ok_bounds = True
    ok_advantage = True
    for _ in range(1000):
        s = random_scenario(rng, int(rng.integers(2, 7)))
        pc, pq = perr_conventional(s), perr_quantum(s)
        ok_bounds = ok_bounds and pq <= pc <= min(s.p0, s.p1) + 1e-12 and pq >= 0.0
        if classify(s) == ("III", "III"):
            dp = derived_params(s)
            expected = abs(dp.gamma) * (dp.lambda_d - dp.lambda_h)
            ok_advantage = ok_advantage and abs((pc - pq) - expected) <= 1e-12

    ok_monotone = True
    etas = np.linspace(0.0, 1.0, 41)
    for _ in range(100):
        base = random_scenario(rng, int(rng.integers(2, 5)))
        for perr in (perr_conventional, perr_quantum):
            chain = [perr(Scenario(base.p0, float(e), base.env)) for e in etas]
            ok_monotone = ok_monotone and all(
                b <= a + 1e-12 for a, b in zip(chain, chain[1:])
            )

    _criterion(
        5,
        "global bounds, monotonicity, advantage identity",
        ok_bounds and ok_monotone and ok_advantage,
        "1000 scenarios, 100 eta chains",
    )


def test_criterion_6_monte_carlo_consistency():
    cases = bundled_scenarios()
    assert len(cases) == 20
    seed = 20260811
    trials = 100_000

    def run_all():
        outcomes = []
        for i, case in enumerate(cases):
            stats = simulate_measurement(
                case.scenario, case.optimal_probe(), case.mode, trials, seed=seed + i
            )
            outcomes.append(stats)
        return outcomes

    first = run_all()
    second = run_all()
    reproducible = all(
        dataclasses.asdict(a) == dataclasses.asdict(b) for a, b in zip(first, second)
    )
    within = sum(
        abs(stats.empirical_perr - case.analytic_perr()) <= 4.0 * stats.std_error
        for case, stats in zip(cases, first)
    )
    _criterion(
        6,
        "Monte-Carlo consistency over 20 bundled scenarios",
        within >= 19 and reproducible,
        f"{within}/20 within 4 std errors, reproducible={reproducible}",
    )


def test_criterion_7_vanishing_smallest_eigenvalue_limit():
    ok = True
    worst = 0.0
    for spectrum in ([1.0, 0.0], [0.7, 0.3, 0.0], [0.5, 0.5, 0.0, 0.0]):
        env = EnvironmentState(spectrum)
        for p0 in np.linspace(0.0, 1.0, 21):
            for eta in np.linspace(0.0, 1.0, 21):
                s = Scenario(float(p0), float(eta), env)
                pc, pq = perr_conventional(s), perr_quantum(s)
                ok = ok and pc == pq and (pc - pq) == 0.0
                ok = ok and classify(s)[0] == classify(s)[1]
                if classify(s)[0] == "III":
                    gap = abs(pc - s.p1 * (1.0 - s.eta))
                    worst = max(worst, gap)
                    ok = ok and gap <= 1e-15
    _criterion(
        7,
        "zero smallest eigenvalue: modes coincide at p1(1-eta), advantage exactly 0",
        ok,
        f"worst region-III gap {worst:.1e} <= 1e-15",
    )
