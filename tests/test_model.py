import numpy as np
import pytest

from conftest import random_density, random_scenario, random_spectrum, random_unitary
from illume import (
    EnvironmentState,
    Scenario,
    channel_absent,
    channel_absent_bipartite,
    channel_present,
    derived_params,
    environment_from_dict,
    haar_random_state,
    omega_c,
    omega_q,
    omega_q_density,
    projector,
    scenario_from_dict,
    trace_norm,
)

SKEW3 = [0.5, 0.3, 0.2]


class TestEnvironmentState:
    def test_sorts_descending_and_permutes_basis(self):
        env = EnvironmentState([0.2, 0.5, 0.3], basis=np.eye(3))
        np.testing.assert_array_equal(env.spectrum, [0.5, 0.3, 0.2])
        # eigenvector pairing must follow the sort
        np.testing.assert_array_equal(env.eigenvector(0), [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(env.eigenvector(2), [1.0, 0.0, 0.0])

    def test_density_in_rotated_basis(self):
        rng = np.random.default_rng(0)
        basis = random_unitary(rng, 3).T  # rows orthonormal
        env = EnvironmentState(SKEW3, basis=basis)
        rho = env.density()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        w = np.linalg.eigvalsh(rho)[::-1]
        np.testing.assert_allclose(w, SKEW3, atol=1e-12)

    def test_rejects_unnormalized_spectrum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EnvironmentState([0.6, 0.6])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            EnvironmentState([1.2, -0.2])

    def test_rejects_non_orthonormal_basis(self):
        bad = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            EnvironmentState([0.5, 0.5], basis=bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_spectrum(self, value):
        with pytest.raises(ValueError, match="finite"):
            EnvironmentState([value, 0.5, 0.5])

    def test_rejects_non_finite_basis(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EnvironmentState([0.5, 0.5], basis=bad)

    def test_completely_mixed(self):
        env = EnvironmentState.completely_mixed(4)
        np.testing.assert_allclose(env.spectrum, 0.25)
        np.testing.assert_allclose(env.density(), np.eye(4) / 4)

    def test_harmonic_balanced_pair(self):
        assert EnvironmentState([0.5, 0.5]).lambda_harmonic == pytest.approx(0.25, abs=1e-15)

    def test_harmonic_skew3(self):
        # 1 / (2 + 10/3 + 5) = 3/31
        assert EnvironmentState(SKEW3).lambda_harmonic == pytest.approx(3 / 31, abs=1e-15)

    def test_harmonic_zero_eigenvalue_convention(self):
        assert EnvironmentState([1.0, 0.0]).lambda_harmonic == 0.0
        assert EnvironmentState([0.7, 0.3 - 1e-13, 1e-13]).lambda_harmonic == 0.0

    def test_harmonic_below_minimum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            env = EnvironmentState(random_spectrum(rng, int(rng.integers(1, 7))))
            assert env.lambda_harmonic <= env.lambda_min
            if env.dim >= 2 and env.spectrum[-1] > 1e-12:
                assert env.lambda_harmonic < env.lambda_min


class TestScenario:
    def test_p1_derived(self):
        s = Scenario(0.3, 0.5, EnvironmentState([0.5, 0.5]))
        assert s.p1 == 0.7

    @pytest.mark.parametrize("p0,eta", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 1.01)])
    def test_rejects_out_of_range(self, p0, eta):
        with pytest.raises(ValueError):
            Scenario(p0, eta, EnvironmentState([0.5, 0.5]))


class TestDerivedParams:
    def test_gamma_closed_arithmetic(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        dp = derived_params(s)
        assert dp.gamma == s.p1 * (1.0 - s.eta) - s.p0
        assert dp.gamma == pytest.approx(-0.3, abs=1e-15)

    def test_alpha_only_for_negative_gamma(self):
        env = EnvironmentState(SKEW3)
        assert derived_params(Scenario(0.3, 0.1, env)).alpha is None
        dp = derived_params(Scenario(0.5, 0.6, env))
        assert dp.alpha == pytest.approx(0.6 * 0.5 / 0.3, abs=1e-12)

    def test_lambda_fields(self):
        dp = derived_params(Scenario(0.5, 0.6, EnvironmentState(SKEW3)))
        assert dp.lambda_d == 0.2
        assert dp.lambda_h == pytest.approx(3 / 31, abs=1e-15)


class TestChannels:
    def test_absent_ignores_probe(self):
        env = EnvironmentState([0.5, 0.5])
        s = Scenario(0.4, 0.9, env)
        for probe in (np.eye(2) / 2, np.diag([1.0, 0.0]), projector(env.eigenvector(1))):
            np.testing.assert_allclose(channel_absent(s, probe), np.eye(2) / 2, atol=1e-14)
            assert np.trace(channel_absent(s, probe)).real == pytest.approx(1.0)

    def test_present_limits(self):
        env = EnvironmentState(SKEW3)
        probe = np.diag([0.0, 0.0, 1.0]).astype(complex)
        s0 = Scenario(0.5, 0.0, env)
        np.testing.assert_allclose(channel_present(s0, probe), env.density(), atol=1e-14)
        s1 = Scenario(0.5, 1.0, env)
        np.testing.assert_allclose(channel_present(s1, probe), probe, atol=1e-14)

    def test_present_convex_combination(self):
        s = Scenario(0.5, 0.5, EnvironmentState([0.5, 0.5]))
        out = channel_present(s, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-14)

    def test_present_is_cptp_on_random_probes(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = random_scenario(rng, 3)
            out = channel_present(s, random_density(rng, 3))
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_dimension_mismatch(self):
        s = Scenario(0.5, 0.5, EnvironmentState([0.5, 0.5]))
        with pytest.raises(ValueError, match="probe"):
            channel_present(s, np.eye(3) / 3)


class TestOmegaC:
    def test_eta_zero_channels_coincide(self):
        rng = np.random.default_rng(3)
        s = Scenario(0.3, 0.0, EnvironmentState(SKEW3))
        omega = omega_c(s, random_density(rng, 3))
        np.testing.assert_allclose(omega, (s.p1 - s.p0) * s.env.density(), atol=1e-12)
        assert trace_norm(omega) == pytest.approx(abs(s.p1 - s.p0), abs=1e-12)

    def test_balanced_full_reflection(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        s = Scenario(0.5, 1.0, EnvironmentState(SKEW3))
        np.testing.assert_allclose(
            omega_c(s, rho), (rho - s.env.density()) / 2, atol=1e-12
        )

    def test_trace_is_prior_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_scenario(rng, 4)
            omega = omega_c(s, random_density(rng, 4))
            assert np.trace(omega).real == pytest.approx(s.p1 - s.p0, abs=1e-10)


class TestOmegaQ:
    def test_product_probe_reduces_to_conventional(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = random_scenario(rng, 3)
            phi = haar_random_state(3, rng)
            chi = haar_random_state(3, rng)
            tq = trace_norm(omega_q(s, np.kron(phi, chi)))
            tc = trace_norm(omega_c(s, projector(phi)))
            assert abs(tq - tc) <= 1e-10

    def test_eta_zero_trace_norm(self):
        rng = np.random.default_rng(7)
        s = Scenario(0.35, 0.0, EnvironmentState(SKEW3))
        psi = haar_random_state(9, rng)
        assert trace_norm(omega_q(s, psi)) == pytest.approx(abs(s.p1 - s.p0), abs=1e-12)

    def test_trace_is_prior_difference(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_scenario(rng, 2)
            omega = omega_q(s, haar_random_state(4, rng))
            assert np.trace(omega).real == pytest.approx(s.p1 - s.p0, abs=1e-10)

    def test_rejects_wrong_dimension(self):
        s = Scenario(0.5, 0.5, EnvironmentState(SKEW3))
        with pytest.raises(ValueError, match="bipartite"):
            omega_q(s, haar_random_state(3, seed=0))

    def test_absent_state_keeps_the_idler(self):
        rng = np.random.default_rng(9)
        s = Scenario(0.4, 0.7, EnvironmentState(SKEW3, basis=random_unitary(rng, 3).T))
        signal, idler = random_density(rng, 3), random_density(rng, 3)
        absent = channel_absent_bipartite(s, np.kron(signal, idler))
        np.testing.assert_allclose(absent, np.kron(s.env.density(), idler), atol=1e-14)
        # the difference operator is p1 eta rho_AB + gamma (absent state)
        rho_ab = random_density(rng, 9)
        gamma = derived_params(s).gamma
        np.testing.assert_allclose(
            omega_q_density(s, rho_ab),
            s.p1 * s.eta * rho_ab + gamma * channel_absent_bipartite(s, rho_ab),
            atol=1e-15,
        )
        with pytest.raises(ValueError, match="shape"):
            channel_absent_bipartite(s, signal)


class TestScenarioJson:
    def test_minimal_scenario(self):
        s = scenario_from_dict({"p0": 0.5, "eta": 0.6, "spectrum": SKEW3})
        assert s.p0 == 0.5 and s.eta == 0.6
        np.testing.assert_array_equal(s.env.spectrum, SKEW3)

    def test_spectrum_sorted_on_load(self):
        env = environment_from_dict({"spectrum": [0.2, 0.3, 0.5]})
        np.testing.assert_array_equal(env.spectrum, [0.5, 0.3, 0.2])

    def test_basis_re_im_rows(self):
        inv_sqrt2 = 1 / np.sqrt(2)
        basis = [
            [[inv_sqrt2, 0.0], [0.0, inv_sqrt2]],
            [[inv_sqrt2, 0.0], [0.0, -inv_sqrt2]],
        ]
        env = environment_from_dict({"spectrum": [0.7, 0.3], "basis": basis})
        np.testing.assert_allclose(env.eigenvector(0), [inv_sqrt2, 1j * inv_sqrt2])

    def test_rejects_bad_basis_shape(self):
        with pytest.raises(ValueError, match="basis"):
            environment_from_dict({"spectrum": [0.5, 0.5], "basis": [[1, 0], [0, 1]]})

    def test_rejects_non_orthonormal_basis(self):
        basis = [
            [[1.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 0.0]],
        ]
        with pytest.raises(ValueError, match="orthonormal"):
            environment_from_dict({"spectrum": [0.5, 0.5], "basis": basis})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing or malformed"):
            scenario_from_dict({"p0": 0.5, "spectrum": [1.0]})
        with pytest.raises(ValueError):
            scenario_from_dict({"p0": 0.5, "eta": 0.1})
