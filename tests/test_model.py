import numpy as np
import pytest

from conftest import (
    random_density,
    random_scenario,
    random_spectrum,
    random_unitary,
)
from illume import (
    CONVENTIONAL,
    MODES,
    QUANTUM,
    EnvironmentState,
    Scenario,
    absent_state,
    environment_from_dict,
    haar_random_state,
    omega,
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

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            EnvironmentState([])

    def test_rejects_basis_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"basis shape \(3, 3\) does not match dimension 2"):
            EnvironmentState([0.5, 0.5], basis=np.eye(3))

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

    @pytest.mark.parametrize("spectrum", ["1", 1.0, [[0.5], [0.5]], [[0.5, 0.5]]])
    def test_rejects_non_flat_spectrum(self, spectrum):
        with pytest.raises(ValueError, match="one-dimensional"):
            EnvironmentState(spectrum)

    @pytest.mark.parametrize("spectrum", [[1.0], SKEW3, [0.2, 0.5, 0.3], [0.25] * 4,
                                          [0.3, 0.2, 0.3, 0.2], [0.0, 0.6, 0.0, 0.4],
                                          [0.05, 0.125, 0.075] * 4])
    def test_default_basis_is_the_sorted_identity(self, spectrum):
        env = EnvironmentState(spectrum)
        assert "basis" not in env.__dict__  # built on first use
        expected = np.eye(len(spectrum))[np.argsort(-np.asarray(spectrum), kind="stable")]
        np.testing.assert_array_equal(env.basis, expected)
        assert env.basis.dtype == np.complex128
        assert env.basis is env.basis

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
        assert s.gamma == s.p1 * (1.0 - s.eta) - s.p0
        assert s.gamma == pytest.approx(-0.3, abs=1e-15)

    def test_alpha_only_for_negative_gamma(self):
        env = EnvironmentState(SKEW3)
        assert Scenario(0.3, 0.1, env).alpha is None
        assert Scenario(0.5, 0.6, env).alpha == pytest.approx(0.6 * 0.5 / 0.3, abs=1e-12)

    def test_lambda_fields(self):
        env = Scenario(0.5, 0.6, EnvironmentState(SKEW3)).env
        assert env.lambda_min == 0.2
        assert env.lambda_harmonic == pytest.approx(3 / 31, abs=1e-15)


class TestChannels:
    def test_absent_ignores_probe(self):
        env = EnvironmentState([0.5, 0.5])
        for probe in (np.eye(2) / 2, np.diag([1.0, 0.0]), projector(env.eigenvector(1))):
            np.testing.assert_allclose(
                absent_state(env, probe, CONVENTIONAL), np.eye(2) / 2, atol=1e-14)
            assert np.trace(absent_state(env, probe, CONVENTIONAL)).real == pytest.approx(1.0)

    def test_present_limits(self):
        # eta = 0: omega is (p1 - p0) E0; eta = 1: p1 rho - p0 E0
        env = EnvironmentState(SKEW3)
        probe = np.diag([0.0, 0.0, 1.0]).astype(complex)
        s0 = Scenario(0.5, 0.0, env)
        np.testing.assert_allclose(
            omega(s0, probe, CONVENTIONAL), (s0.p1 - s0.p0) * env.density(), atol=1e-14)
        s1 = Scenario(0.5, 1.0, env)
        np.testing.assert_allclose(
            omega(s1, probe, CONVENTIONAL), s1.p1 * probe - s1.p0 * env.density(), atol=1e-14)

    def test_present_convex_combination(self):
        # the target-present state eta rho + (1 - eta) E0 is diag(0.75, 0.25)
        s = Scenario(0.5, 0.5, EnvironmentState([0.5, 0.5]))
        out = omega(s, np.diag([1.0, 0.0]), CONVENTIONAL)
        np.testing.assert_allclose(
            out, s.p1 * np.diag([0.75, 0.25]) - s.p0 * np.eye(2) / 2, atol=1e-14)

    def test_present_is_cptp_on_random_probes(self):
        # the target-present state (omega + p0 E0) / p1 is a density matrix
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = random_scenario(rng, 3)
            rho = random_density(rng, 3)
            absent = absent_state(s.env, rho, CONVENTIONAL)
            out = (omega(s, rho, CONVENTIONAL) + s.p0 * absent) / s.p1
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_dimension_mismatch(self):
        s = Scenario(0.5, 0.5, EnvironmentState([0.5, 0.5]))
        with pytest.raises(ValueError, match="probe"):
            omega(s, np.eye(3) / 3, CONVENTIONAL)


class TestOmegaC:
    def test_eta_zero_channels_coincide(self):
        rng = np.random.default_rng(3)
        s = Scenario(0.3, 0.0, EnvironmentState(SKEW3))
        w = omega(s, random_density(rng, 3), CONVENTIONAL)
        np.testing.assert_allclose(w, (s.p1 - s.p0) * s.env.density(), atol=1e-12)
        assert trace_norm(w) == pytest.approx(abs(s.p1 - s.p0), abs=1e-12)

    def test_balanced_full_reflection(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        s = Scenario(0.5, 1.0, EnvironmentState(SKEW3))
        np.testing.assert_allclose(
            omega(s, rho, CONVENTIONAL), (rho - s.env.density()) / 2, atol=1e-12
        )

    def test_trace_is_prior_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_scenario(rng, 4)
            w = omega(s, random_density(rng, 4), CONVENTIONAL)
            assert np.trace(w).real == pytest.approx(s.p1 - s.p0, abs=1e-10)


class TestOmegaQ:
    def test_product_probe_reduces_to_conventional(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = random_scenario(rng, 3)
            phi = haar_random_state(3, rng)
            chi = haar_random_state(3, rng)
            tq = trace_norm(omega(s, projector(np.kron(phi, chi)), QUANTUM))
            tc = trace_norm(omega(s, projector(phi), CONVENTIONAL))
            assert abs(tq - tc) <= 1e-10

    def test_eta_zero_trace_norm(self):
        rng = np.random.default_rng(7)
        s = Scenario(0.35, 0.0, EnvironmentState(SKEW3))
        psi = haar_random_state(9, rng)
        assert trace_norm(omega(s, projector(psi), QUANTUM)) == pytest.approx(
            abs(s.p1 - s.p0), abs=1e-12)

    def test_trace_is_prior_difference(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_scenario(rng, 2)
            w = omega(s, projector(haar_random_state(4, rng)), QUANTUM)
            assert np.trace(w).real == pytest.approx(s.p1 - s.p0, abs=1e-10)

    def test_rejects_wrong_dimension(self):
        s = Scenario(0.5, 0.5, EnvironmentState(SKEW3))
        with pytest.raises(ValueError, match="bipartite"):
            omega(s, projector(haar_random_state(3, seed=0)), QUANTUM)

    def test_absent_state_keeps_the_idler(self):
        rng = np.random.default_rng(9)
        s = Scenario(0.4, 0.7, EnvironmentState(SKEW3, basis=random_unitary(rng, 3).T))
        signal, idler = random_density(rng, 3), random_density(rng, 3)
        absent = absent_state(s.env, np.kron(signal, idler), QUANTUM)
        np.testing.assert_allclose(absent, np.kron(s.env.density(), idler), atol=1e-14)
        # the difference operator is p1 eta rho_AB + gamma (absent state)
        rho_ab = random_density(rng, 9)
        np.testing.assert_allclose(
            omega(s, rho_ab, QUANTUM),
            s.p1 * s.eta * rho_ab + s.gamma * absent_state(s.env, rho_ab, QUANTUM),
            atol=1e-15,
        )
        with pytest.raises(ValueError, match="shape"):
            absent_state(s.env, signal, QUANTUM)


def _channel_absent(env, rho, mode):
    """The target-absent state written out independently of the builder."""
    if mode == CONVENTIONAL:
        return env.density()
    d = env.dim
    idler = np.trace(rho.reshape(d, d, d, d), axis1=0, axis2=2)
    return np.kron(env.density(), idler)


class TestBuilder:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_channel_definition(self, mode):
        # omega = p1 (eta rho + (1 - eta) E0) - p0 E0, E0 the target-absent state
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            base = random_scenario(rng, d)
            env = EnvironmentState(base.env.spectrum, basis=random_unitary(rng, d).T)
            s = Scenario(base.p0, base.eta, env)
            rho = random_density(rng, d if mode == CONVENTIONAL else d * d)
            e0 = _channel_absent(env, rho, mode)
            expected = s.p1 * (s.eta * rho + (1.0 - s.eta) * e0) - s.p0 * e0
            assert np.max(np.abs(omega(s, rho, mode) - expected)) <= 1e-14
            assert np.max(np.abs(absent_state(env, rho, mode) - e0)) <= 1e-14

    @pytest.mark.parametrize("mode", MODES)
    def test_eta_limits(self, mode):
        rng = np.random.default_rng(11)
        env = EnvironmentState(SKEW3, basis=random_unitary(rng, 3).T)
        rho = random_density(rng, 3 if mode == CONVENTIONAL else 9)
        e0 = _channel_absent(env, rho, mode)
        s0, s1 = Scenario(0.3, 0.0, env), Scenario(0.3, 1.0, env)
        assert np.max(np.abs(omega(s0, rho, mode) - (s0.p1 - s0.p0) * e0)) <= 1e-14
        assert np.max(np.abs(omega(s1, rho, mode) - (s1.p1 * rho - s1.p0 * e0))) <= 1e-14

    @pytest.mark.parametrize("mode", MODES)
    def test_stack_equals_its_slices(self, mode):
        rng = np.random.default_rng(12)
        s = random_scenario(rng, 3)
        n = 3 if mode == CONVENTIONAL else 9
        stack = np.array([[random_density(rng, n) for _ in range(3)] for _ in range(2)])
        w = omega(s, stack, mode)
        b = absent_state(s.env, stack, mode)
        assert w.shape == b.shape == stack.shape
        for i in range(2):
            for j in range(3):
                assert w[i, j].tobytes() == omega(s, stack[i, j], mode).tobytes()
                assert b[i, j].tobytes() == absent_state(s.env, stack[i, j], mode).tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_rejects_wrong_trailing_shape(self, mode):
        s = Scenario(0.5, 0.5, EnvironmentState(SKEW3))
        n = 3 if mode == CONVENTIONAL else 9
        for shape in ((n,), (n, n + 1), (2, n + 1, n + 1), (12 - n, 12 - n)):
            for pattern in ("dimension", "shape", "bipartite" if mode == QUANTUM else "probe"):
                with pytest.raises(ValueError, match=pattern):
                    omega(s, np.zeros(shape), mode)
                with pytest.raises(ValueError, match=pattern):
                    absent_state(s.env, np.zeros(shape), mode)

    def test_rejects_unknown_mode(self):
        s = Scenario(0.5, 0.5, EnvironmentState(SKEW3))
        with pytest.raises(ValueError, match="mode"):
            omega(s, np.eye(3) / 3, "classical")


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

    def test_numpy_reals_pass(self):
        s = scenario_from_dict({"p0": np.float64(0.5), "eta": np.int64(1),
                                "spectrum": [np.float32(0.5), 0.5]})
        assert (s.p0, s.eta) == (0.5, 1.0)
        np.testing.assert_array_equal(s.env.spectrum, [0.5, 0.5])

    @pytest.mark.parametrize("field, value", [
        ("p0", True), ("eta", "0.5"), ("p0", 10**400), ("spectrum", "1"), ("spectrum", [True]),
        ("spectrum", {"0.5": 0, "0.50": 1}), ("spectrum", (1.0,)), ("basis", [[["1", 0.0]]]),
    ])
    def test_rejects_non_numbers(self, field, value):
        data = {"p0": 0.5, "eta": 0.5, "spectrum": [1.0], field: value}
        with pytest.raises(ValueError, match="malformed|must be numbers"):
            scenario_from_dict(data)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing or malformed"):
            scenario_from_dict({"p0": 0.5, "spectrum": [1.0]})
        with pytest.raises(ValueError):
            scenario_from_dict({"p0": 0.5, "eta": 0.1})
