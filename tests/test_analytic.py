import hashlib
import json

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import random_scenario, random_spectrum, random_unitary
from illume import (
    CONVENTIONAL,
    QUANTUM,
    REGION_I,
    REGION_II,
    REGION_III,
    EnvironmentState,
    Scenario,
    classify,
    eta_guess_absent,
    eta_star,
    haar_random_state,
    omega,
    optimal_probe_conventional,
    optimal_probe_quantum,
    perr_conventional,
    perr_quantum,
    projector,
    region_boundaries,
    report,
    schmidt_squares,
    trace_norm,
)
from illume.analytic import solve_grid
from illume.tolerances import BOUNDARY_TOL

SKEW3 = [0.5, 0.3, 0.2]


def direct_perr(s, psi, mode):
    """Error of a pure probe from the trace norm of the model's hypothesis difference."""
    return (1.0 - trace_norm(omega(s, projector(psi), mode))) / 2.0


def nelder_mead_best_perr(s, mode, starts=6, seed=0):
    """Brute-force pure-state search, independent of both solver and hill climber.

    The objective does not see the norm or the global phase of ``x``, so a
    simplex may stay spread along them: only the function values stop a
    start, at 1e-11, well above their rounding noise.
    """
    d = s.env.dim if mode == CONVENTIONAL else s.env.dim ** 2

    def neg_norm(x):
        v = x[:d] + 1j * x[d:]
        psi = v / np.linalg.norm(v)
        return -trace_norm(omega(s, projector(psi), mode))

    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(starts):
        res = minimize(
            neg_norm,
            rng.standard_normal(2 * d),
            method="Nelder-Mead",
            options={"maxiter": 6000, "xatol": np.inf, "fatol": 1e-11},
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

    def test_single_level_balanced_priors(self):
        # d = 1 has lambda_d = lambda_h = 1, so 1 - lambda = 0: at p0 = p1 the
        # guess-absent boundary is 0 (no region II), on the scalar and grid paths alike
        env = EnvironmentState([1.0])
        assert env.lambda_min == env.lambda_harmonic == 1.0
        assert eta_guess_absent(0.5, 0.5, 1.0) == 0.0
        r = report(Scenario(0.5, 0.3, env))
        assert (r.eta_c, r.eta_q) == (0.0, 0.0)
        assert solve_grid([0.5], [0.3], env.lambda_min, env.lambda_harmonic).eta_c.tolist() == [0.0]
        curves = region_boundaries(env, (0.0, 1.0, 3))
        assert curves.eta_c_raw.tolist() == [-np.inf, 0.0, np.inf]


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
            direct = direct_perr(s, optimal_probe_quantum(s), QUANTUM)
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
        achieved = direct_perr(s, probe, CONVENTIONAL)
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

    @pytest.mark.parametrize("d", range(1, 9))
    def test_equals_explicit_schmidt_sum(self, d):
        # sum_i mu_i |theta_i>|theta_i> term by term, normalized, in complex Haar
        # bases: a generic spectrum, one with a zero eigenvalue, one with ties
        rng = np.random.default_rng(70 + d)
        tied = np.repeat(random_spectrum(rng, (d + 1) // 2), 2)[:d]
        spectra = [random_spectrum(rng, d), tied / tied.sum()]
        if d > 1:
            spectra.append(np.append(random_spectrum(rng, d - 1), 0.0))
        for spectrum in spectra:
            env = EnvironmentState(spectrum, basis=random_unitary(rng, d).T)
            psi = optimal_probe_quantum(Scenario(0.5, 0.6, env))
            np.testing.assert_allclose(psi, _explicit_probe(env), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spectrum", [[1.0], SKEW3, [0.2, 0.3, 0.5], [0.3, 0.2, 0.3, 0.2],
                                          [0.6, 0.0, 0.4], [0.125] * 8])
    def test_computational_basis_is_bit_identical(self, spectrum):
        env = EnvironmentState(spectrum)
        psi = optimal_probe_quantum(Scenario(0.5, 0.6, env))
        np.testing.assert_array_equal(psi, _explicit_probe(env))


def _explicit_probe(env):
    mu = np.sqrt(schmidt_squares(env))
    psi = sum(mu[i] * np.kron(env.basis[i], env.basis[i]) for i in range(env.dim))
    return psi / np.linalg.norm(psi)


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
        oracle_c = direct_perr(s, optimal_probe_conventional(s), CONVENTIONAL)
        oracle_q = direct_perr(s, optimal_probe_quantum(s), QUANTUM)
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

    def test_leaves_the_default_basis_unbuilt(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        report(s).to_dict()
        assert "basis" not in s.env.__dict__
        optimal_probe_quantum(s)
        assert "basis" in s.env.__dict__

    def test_degenerate_prior_serializes_null_boundaries(self):
        data = report(Scenario(1.0, 0.5, EnvironmentState([0.5, 0.5]))).to_dict()
        assert data["eta_c"] is None and data["eta_q"] is None

    def test_golden_payloads(self):
        # sha256 of the `solve` payloads of a seeded batch, computed with the
        # earlier scalar implementation: every field is pinned bit for bit.
        payloads = [report(s).to_dict() for s in _payload_batch()]
        digest = hashlib.sha256(json.dumps(payloads, allow_nan=False).encode()).hexdigest()
        assert digest == (
            "5aae273482652bf3868a4bf0a09bf40cd3fbdf162607f503afb50feff02135fb"
        )


def _payload_batch():
    """Seeded scenarios covering every limit and boundary rule of the closed forms.

    Dimensions 1 to 8, zero eigenvalues, complex bases, p0 in {0, 1/2, 1},
    and eta on each boundary and BOUNDARY_TOL either side of it.
    """
    rng = np.random.default_rng(5)
    out = []
    for t in range(240):
        d = int(rng.integers(1, 9))
        spectrum = rng.exponential(size=d)
        if d > 1 and t % 4 == 0:
            spectrum[int(rng.integers(d))] = 0.0
        spectrum /= spectrum.sum()
        basis = random_unitary(rng, d).T if t % 3 == 0 else None
        env = EnvironmentState(spectrum, basis=basis)
        p0 = float(rng.uniform())
        if t % 8 < 3:
            p0 = (0.0, 0.5, 1.0)[t % 8]
        p1 = 1.0 - p0
        etas = [float(rng.uniform())]
        edges = (eta_star(p0, p1), eta_guess_absent(p0, p1, env.lambda_min),
                 eta_guess_absent(p0, p1, env.lambda_harmonic))
        for edge in edges:
            for eta in (edge - BOUNDARY_TOL, edge, edge + BOUNDARY_TOL):
                if 0.0 <= eta <= 1.0:
                    etas.append(eta)
        out.extend(Scenario(p0, eta, env) for eta in etas)
    return out


class TestClosedFormCrossChecks:
    def test_completely_mixed_closed_form(self):
        # |p1 eta + gamma/d| + (d-1)/d |gamma| for any pure probe of I/d
        rng = np.random.default_rng(13)
        for d in (2, 3, 5):
            env = EnvironmentState.completely_mixed(d)
            for _ in range(10):
                s = Scenario(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0, 1)), env)
                psi = haar_random_state(d, rng)
                gamma = s.gamma
                expected = abs(s.p1 * s.eta + gamma / d) + (d - 1) / d * abs(gamma)
                assert trace_norm(omega(s, projector(psi), CONVENTIONAL)) == pytest.approx(
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
            if r.region_c == REGION_III and r.region_q == REGION_III:
                expected = abs(s.gamma) * (s.env.lambda_min - s.env.lambda_harmonic)
                assert r.advantage == pytest.approx(expected, abs=1e-12)
            elif r.region_q != REGION_III:
                assert r.advantage == 0.0

    def test_optimal_quantum_probe_achieves_formula(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            s = random_scenario(rng, int(rng.integers(2, 5)), gamma_negative=True)
            achieved = direct_perr(s, optimal_probe_quantum(s), QUANTUM)
            assert abs(achieved - perr_quantum(s)) <= 1e-10
