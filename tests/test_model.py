import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from illume.model import ScenarioStack
from illume.tolerances import ZERO_EIGENVALUE_TOL

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

    @pytest.mark.parametrize("entry", [1e308 + 1e308j, 1e200])
    def test_rejects_overflowing_basis_without_warning(self, entry):
        # a Gram matrix that overflows, to NaN (1e308 + 1e308j) or to inf,
        # fails the orthonormality check and raises no RuntimeWarning first
        bad = np.diag([1.0, entry])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="orthonormal"):
                EnvironmentState([0.5, 0.5], basis=bad)
        assert caught == []

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


def _reference_environment(spectrum, basis):
    """Spectrum, basis rows and lambdas by the constructor's formulas, written out step by step."""
    x = np.clip(np.asarray(spectrum, dtype=float), 0.0, None)
    order = np.argsort(-x, kind="stable")
    x = x[order]
    lam_min = float(x[-1])
    lam_h = 0.0 if lam_min <= ZERO_EIGENVALUE_TOL else min(1.0 / float(np.sum(1.0 / x)), lam_min)
    rows = np.eye(x.size, dtype=np.complex128) if basis is None else np.asarray(basis, np.complex128)
    return x, rows[order], lam_min, lam_h


@st.composite
def _valid_spectra(draw):
    """Dimension 1 to 64: tied weights, exact zeros, -0.0, and negatives within tolerance."""
    d = draw(st.integers(1, 64))
    n_small = draw(st.sampled_from([0, 0, min(1, d - 1), d // 2, d - 1]))
    weights = draw(st.lists(st.sampled_from([1, 2, 8]) | st.integers(1, 10**6),
                            min_size=d - n_small, max_size=d - n_small))
    small = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-13, -1e-13, -ZERO_EIGENVALUE_TOL]),
                          min_size=n_small, max_size=n_small))
    return draw(st.permutations((np.asarray(weights) / math.fsum(weights)).tolist() + small))


class TestEnvironmentConstruction:
    @settings(max_examples=100, deadline=None)
    @given(spectrum=_valid_spectra(), basis_seed=st.none() | st.integers(0, 2**32 - 1),
           as_array=st.booleans())
    def test_matches_the_reference_bit_for_bit(self, spectrum, basis_seed, as_array):
        basis = None
        if basis_seed is not None:
            basis = random_unitary(np.random.default_rng(basis_seed), len(spectrum)).T
        given_spectrum = np.array(spectrum) if as_array else list(spectrum)
        env = EnvironmentState(given_spectrum, basis)
        x, rows, lam_min, lam_h = _reference_environment(spectrum, basis)
        assert env.spectrum.tobytes() == x.tobytes()
        assert env.basis.tobytes() == rows.tobytes()
        assert (env.lambda_min.hex(), env.lambda_harmonic.hex()) == (lam_min.hex(), lam_h.hex())
        assert np.asarray(given_spectrum).tobytes() == np.array(spectrum).tobytes()  # untouched

    @pytest.mark.parametrize("spectrum, message", [
        ([float("nan"), 1.0], "spectrum must be finite, got [nan, 1.0]"),
        ([float("inf"), float("-inf")], "spectrum must be finite, got [inf, -inf]"),
        ([float("nan"), -1.0, 2.0], "spectrum must be finite, got [nan, -1.0, 2.0]"),
        ([1e308, 1e308], "spectrum must sum to 1, got inf"),
        ([1.1, -0.1], "spectrum has a negative eigenvalue: -0.1"),
        ([2.0, -0.5], "spectrum has a negative eigenvalue: -0.5"),
        ([0.5, 0.5 + 1e-9], "spectrum must sum to 1, got 1.000000001"),
    ])
    def test_first_failing_check_names_the_error(self, spectrum, message):
        # finite, then negative, then the sum; the value is printed as a plain float
        with pytest.raises(ValueError) as info:
            EnvironmentState(spectrum)
        assert str(info.value) == message

    def test_negative_zero_is_clipped_to_zero(self):
        env = EnvironmentState([-0.0, 1.0])
        assert env.spectrum.tobytes() == np.array([1.0, 0.0]).tobytes()
        assert (env.lambda_min.hex(), env.lambda_harmonic.hex()) == ("0x0.0p+0", "0x0.0p+0")

    def test_lambdas_are_plain_attributes(self):
        env = EnvironmentState(SKEW3)
        assert {"lambda_min", "lambda_harmonic"} <= env.__dict__.keys()
        assert type(env.lambda_min) is float and type(env.lambda_harmonic) is float


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

    @pytest.mark.parametrize("mode", MODES)
    def test_scenario_stack_rows_equal_scenarios(self, mode):
        # one scenario per row, each with its own spectrum and basis: every
        # row of the stacked omega is the scalar omega of that row's scenario
        rng = np.random.default_rng(13)
        n = 3 if mode == CONVENTIONAL else 9
        scenarios = [
            Scenario(float(rng.uniform()), float(rng.uniform()),
                     EnvironmentState(random_spectrum(rng, 3), random_unitary(rng, 3).T))
            for _ in range(4)
        ]
        stack = ScenarioStack(np.array([s.p0 for s in scenarios]),
                              np.array([s.eta for s in scenarios]),
                              np.array([s.env.density() for s in scenarios]))
        rho = np.array([random_density(rng, n) for _ in scenarios])
        w = omega(stack, rho, mode)
        b = absent_state(stack.env, rho, mode)
        for i, s in enumerate(scenarios):
            assert w[i].tobytes() == omega(s, rho[i], mode).tobytes()
            assert b[i].tobytes() == np.ascontiguousarray(absent_state(s.env, rho[i], mode)).tobytes()
        # a stack (m, 4) of probes against the 4 scenarios: broadcast on the last stack axis
        wide = omega(stack, np.array([rho, rho[::-1]]), mode)
        assert wide.shape == (2, 4, n, n) and wide[0].tobytes() == w.tobytes()

    def test_scenario_stack_derived_params(self):
        stack = ScenarioStack(np.array([0.3, 0.6, 0.5]), np.array([0.5, 0.9, 0.0]),
                              np.broadcast_to(np.eye(2) / 2, (3, 2, 2)))
        for i, (p0, eta) in enumerate(zip(stack.p0, stack.eta)):
            s = Scenario(float(p0), float(eta), EnvironmentState([0.5, 0.5]))
            assert (stack.p1[i], stack.gamma[i]) == (s.p1, s.gamma)
            np.testing.assert_equal(stack.alpha[i], np.nan if s.alpha is None else s.alpha)


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
