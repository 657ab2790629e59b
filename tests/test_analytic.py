import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import random_scenario, random_unitary
from illume import (
    CONVENTIONAL,
    REGION_I,
    REGION_II,
    REGION_III,
    EnvironmentState,
    Scenario,
    binary_trace_norm,
    classify,
    derived_params,
    eta_guess_absent,
    eta_star,
    haar_random_state,
    omega_c,
    omega_q,
    optimal_probe_conventional,
    optimal_probe_quantum,
    perr_conventional,
    perr_quantum,
    projector,
    report,
    schmidt_squares,
    trace_norm,
)

SKEW3 = [0.5, 0.3, 0.2]


def nelder_mead_best_perr(s, mode, starts=6, seed=0):
    """Brute-force pure-state search, independent of both solver and hill climber."""
    d = s.env.dim if mode == CONVENTIONAL else s.env.dim ** 2
    build = omega_c if mode == CONVENTIONAL else None

    def neg_norm(x):
        v = x[:d] + 1j * x[d:]
        psi = v / np.linalg.norm(v)
        omega = build(s, projector(psi)) if build else omega_q(s, psi)
        return -trace_norm(omega)

    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(starts):
        res = minimize(
            neg_norm,
            rng.standard_normal(2 * d),
            method="Nelder-Mead",
            options={"maxiter": 6000, "xatol": 1e-10, "fatol": 1e-13},
        )
        best = max(best, -res.fun)
    return (1.0 - best) / 2.0


class TestBoundaries:
    def test_eta_star_values(self):
        assert eta_star(0.25, 0.75) == pytest.approx(2 / 3, abs=1e-15)
        assert eta_star(0.3, 0.7) == pytest.approx(4 / 7, abs=1e-15)

    def test_guess_absent_thresholds(self):
        env = EnvironmentState(SKEW3)
        assert eta_guess_absent(0.6, 0.4, env.lambda_min) == pytest.approx(0.125, abs=1e-15)
        assert eta_guess_absent(0.6, 0.4, env.lambda_harmonic) == pytest.approx(3 / 56, abs=1e-15)

    def test_vanishes_with_zero_eigenvalue(self):
        env = EnvironmentState([1.0, 0.0])
        assert eta_guess_absent(0.8, 0.2, env.lambda_min) == 0.0
        assert eta_guess_absent(0.8, 0.2, env.lambda_harmonic) == 0.0


class TestClassify:
    def test_region_one(self):
        for spectrum in ([0.5, 0.5], SKEW3):
            s = Scenario(0.3, 0.5, EnvironmentState(spectrum))
            assert classify(s) == (REGION_I, REGION_I)

    def test_mixed_two_three(self):
        s = Scenario(0.6, 0.08, EnvironmentState(SKEW3))
        assert classify(s) == (REGION_II, REGION_III)

    def test_balanced_priors_are_region_three(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        assert classify(s) == (REGION_III, REGION_III)

    def test_boundary_equality_labels_three(self):
        env = EnvironmentState([0.5, 0.5])
        s = Scenario(0.3, eta_star(0.3, 0.7), env)
        assert classify(s) == (REGION_III, REGION_III)
        s2 = Scenario(0.6, eta_guess_absent(0.6, 0.4, 0.5), env)
        assert classify(s2)[0] == REGION_III

    def test_degenerate_priors(self):
        env = EnvironmentState(SKEW3)
        assert classify(Scenario(0.0, 0.5, env)) == (REGION_I, REGION_I)
        assert classify(Scenario(1.0, 0.5, env)) == (REGION_II, REGION_II)
        assert perr_conventional(Scenario(0.0, 0.5, env)) == 0.0
        assert perr_quantum(Scenario(1.0, 0.5, env)) == 0.0


class TestPerrConventional:
    def test_completely_mixed_pair(self):
        env = EnvironmentState([0.5, 0.5])
        for eta in np.linspace(0.0, 1.0, 101):
            s = Scenario(0.5, float(eta), env)
            assert abs(perr_conventional(s) - (0.5 - eta / 4.0)) <= 1e-12

    def test_zero_eigenvalue_region_three(self):
        env = EnvironmentState([0.6, 0.4, 0.0])
        s = Scenario(0.4, 0.8, env)
        assert classify(s)[0] == REGION_III
        assert perr_conventional(s) == pytest.approx(s.p1 * (1.0 - s.eta), abs=1e-15)

    def test_skew3_against_brute_force(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        assert perr_conventional(s) == pytest.approx(0.26, abs=1e-15)
        assert abs(nelder_mead_best_perr(s, CONVENTIONAL) - 0.26) <= 1e-6


class TestPerrQuantum:
    def test_completely_mixed_pair(self):
        env = EnvironmentState([0.5, 0.5])
        for eta in np.linspace(0.0, 1.0, 21):
            s = Scenario(0.5, float(eta), env)
            assert perr_quantum(s) == pytest.approx(0.5 - 3.0 * eta / 8.0, abs=1e-12)
            # 4x4 first-principles route
            direct = (1.0 - trace_norm(omega_q(s, optimal_probe_quantum(s)))) / 2.0
            assert direct == pytest.approx(0.5 - 3.0 * eta / 8.0, abs=1e-10)

    def test_skew3_frozen_value(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        assert perr_quantum(s) == pytest.approx(0.5 - 0.3 * (28 / 31), abs=1e-12)

    def test_zero_eigenvalue_matches_conventional(self):
        env = EnvironmentState([0.6, 0.4, 0.0])
        for eta in (0.1, 0.5, 0.9):
            s = Scenario(0.45, eta, env)
            assert perr_quantum(s) == perr_conventional(s)

    def test_never_exceeds_conventional(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            s = random_scenario(rng, int(rng.integers(2, 6)))
            assert perr_quantum(s) <= perr_conventional(s) + 1e-15


class TestOptimalProbeConventional:
    def test_diagonal_environment(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        np.testing.assert_array_equal(optimal_probe_conventional(s), [0.0, 0.0, 1.0])

    def test_degenerate_minimum_achieves_value(self):
        s = Scenario(0.5, 0.6, EnvironmentState([0.4, 0.3, 0.3]))
        probe = optimal_probe_conventional(s)
        achieved = (1.0 - trace_norm(omega_c(s, projector(probe)))) / 2.0
        assert achieved == pytest.approx(perr_conventional(s), abs=1e-12)

    def test_tracks_permuted_basis(self):
        basis = np.eye(3)[[2, 0, 1]].astype(complex)
        env = EnvironmentState(SKEW3, basis=basis)
        s = Scenario(0.5, 0.6, env)
        probe = optimal_probe_conventional(s)
        overlap = probe.conj() @ env.density() @ probe
        assert overlap.real == pytest.approx(env.lambda_min, abs=1e-14)


class TestOptimalProbeQuantum:
    def test_completely_mixed_is_maximally_entangled(self):
        s = Scenario(0.5, 0.6, EnvironmentState.completely_mixed(3))
        psi = optimal_probe_quantum(s)
        np.testing.assert_allclose(schmidt_squares(s.env), np.full(3, 1 / 3), atol=1e-14)
        expected = sum(np.kron(np.eye(3)[i], np.eye(3)[i]) for i in range(3)) / np.sqrt(3)
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_skew3_schmidt_squares(self):
        mu_sq = schmidt_squares(EnvironmentState(SKEW3))
        np.testing.assert_allclose(mu_sq, [6 / 31, 10 / 31, 15 / 31], atol=1e-14)
        assert mu_sq.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_eigenvalue_limit(self):
        s = Scenario(0.5, 0.6, EnvironmentState([1.0, 0.0]))
        psi = optimal_probe_quantum(s)
        expected = np.kron([0.0, 1.0], [0.0, 1.0])
        np.testing.assert_allclose(psi, expected, atol=1e-14)

    def test_unit_norm_always(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_scenario(rng, int(rng.integers(2, 6)))
            assert np.linalg.norm(optimal_probe_quantum(s)) == pytest.approx(1.0, abs=1e-12)


class TestReport:
    def test_no_signal_limit(self):
        s = Scenario(0.3, 0.0, EnvironmentState(SKEW3))
        r = report(s)
        assert r.perr_c == pytest.approx(0.3, abs=1e-15)
        assert r.perr_q == pytest.approx(0.3, abs=1e-15)
        assert r.advantage == pytest.approx(0.0, abs=1e-15)

    def test_perfect_reflection_orthogonal_support(self):
        s = Scenario(0.5, 1.0, EnvironmentState([1.0, 0.0]))
        r = report(s)
        assert r.perr_c == pytest.approx(0.0, abs=1e-15)
        assert r.perr_q == pytest.approx(0.0, abs=1e-15)

    def test_skew3_advantage(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        r = report(s)
        assert r.advantage == pytest.approx(0.3 * (0.2 - 3 / 31), abs=1e-12)
        # both oracle routes agree with the reported errors
        oracle_c = (1.0 - trace_norm(omega_c(s, projector(r.optimal_probe_c)))) / 2.0
        oracle_q = (1.0 - trace_norm(omega_q(s, r.optimal_probe_q))) / 2.0
        assert (oracle_c - oracle_q) == pytest.approx(r.advantage, abs=1e-10)

    def test_json_payload(self):
        s = Scenario(0.6, 0.08, EnvironmentState(SKEW3))
        data = report(s).to_dict()
        assert data["schema"] == 1
        assert set(data) == {
            "schema", "region_c", "region_q", "perr_c", "perr_q",
            "advantage", "eta_star", "eta_c", "eta_q", "mu_sq",
        }
        assert data["region_c"] == "II" and data["region_q"] == "III"
        assert data["eta_c"] == pytest.approx(0.125)
        assert data["eta_q"] == pytest.approx(3 / 56)

    def test_degenerate_prior_serializes_null_boundaries(self):
        data = report(Scenario(1.0, 0.5, EnvironmentState([0.5, 0.5]))).to_dict()
        assert data["eta_c"] is None and data["eta_q"] is None


class TestClosedFormCrossChecks:
    def test_binary_closed_form_matches_eigenvalues(self):
        # spec instance: completely mixed pair probed with a basis state
        s = Scenario(0.5, 0.6, EnvironmentState([0.5, 0.5]))
        probe = np.array([1.0, 0.0], dtype=complex)
        assert abs(
            binary_trace_norm(s, probe) - trace_norm(omega_c(s, projector(probe)))
        ) <= 1e-12

    def test_binary_closed_form_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = random_scenario(rng, 2)
            probe = haar_random_state(2, rng)
            two_ways = (
                binary_trace_norm(s, probe),
                trace_norm(omega_c(s, projector(probe))),
            )
            assert abs(two_ways[0] - two_ways[1]) <= 1e-12

    def test_completely_mixed_closed_form(self):
        # |p1 eta + gamma/d| + (d-1)/d |gamma| for any pure probe of I/d
        rng = np.random.default_rng(13)
        for d in (2, 3, 5):
            env = EnvironmentState.completely_mixed(d)
            for _ in range(10):
                s = Scenario(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0, 1)), env)
                psi = haar_random_state(d, rng)
                gamma = derived_params(s).gamma
                expected = abs(s.p1 * s.eta + gamma / d) + (d - 1) / d * abs(gamma)
                assert trace_norm(omega_c(s, projector(psi))) == pytest.approx(
                    expected, abs=1e-12
                )


class TestInvariants:
    def test_monotone_in_reflectivity(self):
        rng = np.random.default_rng(14)
        etas = np.linspace(0.0, 1.0, 201)
        for _ in range(20):
            base = random_scenario(rng, int(rng.integers(2, 5)))
            for perr in (perr_conventional, perr_quantum):
                values = [perr(Scenario(base.p0, float(e), base.env)) for e in etas]
                assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_upper_bound_min_prior(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            s = random_scenario(rng, int(rng.integers(1, 6)))
            bound = min(s.p0, s.p1) + 1e-12
            assert perr_conventional(s) <= bound
            assert perr_quantum(s) <= bound

    def test_continuity_across_boundaries(self):
        for spectrum, p0 in [([0.5, 0.5], 0.3), (SKEW3, 0.25), (SKEW3, 0.7), ([0.5, 0.5], 0.8)]:
            env = EnvironmentState(spectrum)
            p1 = 1.0 - p0
            candidates = [
                eta_star(p0, p1),
                eta_guess_absent(p0, p1, env.lambda_min),
                eta_guess_absent(p0, p1, env.lambda_harmonic),
            ]
            for eta_b in candidates:
                if not 1e-5 < eta_b < 1.0 - 1e-5:
                    continue
                for perr in (perr_conventional, perr_quantum):
                    lo = perr(Scenario(p0, eta_b - 1e-6, env))
                    hi = perr(Scenario(p0, eta_b + 1e-6, env))
                    assert abs(hi - lo) <= 1e-5

    def test_basis_independence(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            s = random_scenario(rng, 3)
            basis = random_unitary(rng, 3).T
            rotated = Scenario(s.p0, s.eta, EnvironmentState(s.env.spectrum, basis=basis))
            assert abs(perr_conventional(rotated) - perr_conventional(s)) <= 1e-10
            assert abs(perr_quantum(rotated) - perr_quantum(s)) <= 1e-10

    def test_advantage_structure(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = random_scenario(rng, int(rng.integers(2, 6)))
            r = report(s)
            assert r.advantage >= -1e-12
            dp = derived_params(s)
            if r.region_c == REGION_III and r.region_q == REGION_III:
                expected = abs(dp.gamma) * (dp.lambda_d - dp.lambda_h)
                assert r.advantage == pytest.approx(expected, abs=1e-12)
            elif r.region_q != REGION_III:
                assert r.advantage == 0.0

    def test_optimal_quantum_probe_achieves_formula(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            s = random_scenario(rng, int(rng.integers(2, 5)), gamma_negative=True)
            achieved = (1.0 - trace_norm(omega_q(s, optimal_probe_quantum(s)))) / 2.0
            assert abs(achieved - perr_quantum(s)) <= 1e-10
