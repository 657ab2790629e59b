import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_scenario, random_unitary
from illume import (
    CONVENTIONAL,
    QUANTUM,
    REGION_I,
    REGION_III,
    EnvironmentState,
    Scenario,
    SearchConfig,
    SweepSpec,
    bundled_scenarios,
    check_convexity_reduction,
    check_eigenvalue_lower_bound,
    check_perr_linear_in_min_eigenvalue,
    check_single_negative_eigenvalue,
    classify,
    haar_random_state,
    maximize_trace_norm,
    omega,
    partial_trace_first,
    optimal_probe_conventional,
    optimal_probe_quantum,
    perr_conventional,
    perr_of_state,
    perr_quantum,
    projector,
    run_lemma_suite,
    run_montecarlo_suite,
    run_oracle_suite,
    run_sweep,
    simulate_measurement,
)

SKEW3 = [0.5, 0.3, 0.2]
# 2x2 matrices that are not density matrices, with the error each must raise
NOT_DENSITY = [
    ([[0.5, 9.0], [0.0, 0.5]], "Hermitian"),
    (np.diag([1.5, -0.5]), "negative eigenvalue"),
    (np.diag([0.5, 0.6]), "unit trace"),
]
CHEAP = SearchConfig(restarts=6, steps_per_restart=600, seed=3, tolerance=1e-6)


class TestPerrOfState:
    def test_no_signal_gives_min_prior(self):
        rng = np.random.default_rng(0)
        s = Scenario(0.3, 0.0, EnvironmentState(SKEW3))
        for _ in range(5):
            probe = haar_random_state(3, rng)
            assert perr_of_state(s, probe, CONVENTIONAL) == pytest.approx(0.3, abs=1e-12)
            assert perr_of_state(s, haar_random_state(9, rng), QUANTUM) == pytest.approx(
                0.3, abs=1e-12
            )

    def test_probe_orthogonal_to_environment_support(self):
        env = EnvironmentState([0.6, 0.4, 0.0])
        probe = env.eigenvector(2)
        # gamma >= 0: always guessing "present" is as good as measuring
        s = Scenario(0.2, 0.5, env)
        assert perr_of_state(s, probe, CONVENTIONAL) == pytest.approx(s.p0, abs=1e-12)
        # gamma <= 0: the miss probability p1 (1 - eta) remains
        s = Scenario(0.5, 0.8, env)
        assert perr_of_state(s, probe, CONVENTIONAL) == pytest.approx(
            s.p1 * (1.0 - s.eta), abs=1e-12
        )

    def test_entangled_optimum_frozen_value(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        value = perr_of_state(s, optimal_probe_quantum(s), QUANTUM)
        assert value == pytest.approx(0.5 - 0.3 * (28 / 31), abs=1e-12)

    def test_dimension_and_mode_validation(self):
        s = Scenario(0.5, 0.5, EnvironmentState(SKEW3))
        with pytest.raises(ValueError, match="dimension"):
            perr_of_state(s, haar_random_state(9, seed=0), CONVENTIONAL)
        with pytest.raises(ValueError, match="mode"):
            perr_of_state(s, haar_random_state(3, seed=0), "classical")


class TestMaximizeTraceNorm:
    def test_region_one_is_flat(self):
        rng = np.random.default_rng(1)
        s = Scenario(0.3, 0.5, EnvironmentState([0.5, 0.5]))
        assert classify(s) == (REGION_I, REGION_I)
        result = maximize_trace_norm(s, CONVENTIONAL, CHEAP)
        assert abs(result.perr - s.p0) <= CHEAP.tolerance
        # flat landscape: every sampled state already achieves the bound
        for _ in range(100):
            psi = haar_random_state(2, rng)
            assert perr_of_state(s, psi, CONVENTIONAL) == pytest.approx(s.p0, abs=1e-12)

    def test_conventional_search_finds_optimum(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        result = maximize_trace_norm(s, CONVENTIONAL, SearchConfig(seed=7))
        assert abs(result.perr - 0.26) <= 1e-6
        overlap = abs(np.vdot(s.env.eigenvector(2), result.best_state)) ** 2
        assert overlap >= 1.0 - 1e-4

    def test_quantum_search_matches_formula(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        result = maximize_trace_norm(s, QUANTUM, SearchConfig(seed=7))
        target = perr_quantum(s)
        assert abs(result.perr - target) <= 1e-6
        assert result.perr >= target - 1e-6  # search never beats the claimed optimum

    def test_result_internal_consistency(self):
        s = Scenario(0.5, 0.4, EnvironmentState([0.5, 0.5]))
        result = maximize_trace_norm(s, CONVENTIONAL, CHEAP)
        assert result.perr == (1.0 - result.best_value) / 2.0
        assert result.evaluations >= CHEAP.restarts

    def test_deterministic_given_seed(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        a = maximize_trace_norm(s, CONVENTIONAL, CHEAP)
        b = maximize_trace_norm(s, CONVENTIONAL, CHEAP)
        assert a.best_value == b.best_value
        assert a.evaluations == b.evaluations
        np.testing.assert_array_equal(a.best_state, b.best_state)

    def test_analytic_state_is_fixed_point(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        start = optimal_probe_quantum(s)
        start_value = 1.0 - 2.0 * perr_of_state(s, start, QUANTUM)
        cfg = SearchConfig(restarts=1, steps_per_restart=2000, seed=5)
        result = maximize_trace_norm(s, QUANTUM, cfg, initial_state=start)
        assert result.best_value - start_value <= 1e-8

    def test_initial_state_of_wrong_dimension(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        with pytest.raises(ValueError, match="initial state has dimension 3, expected 9"):
            maximize_trace_norm(s, QUANTUM, CHEAP, initial_state=haar_random_state(3, seed=0))

    def test_quantum_dimension_cap(self):
        s = Scenario(0.5, 0.6, EnvironmentState.completely_mixed(17))
        with pytest.raises(ValueError, match="dimension"):
            maximize_trace_norm(s, QUANTUM, CHEAP)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(steps_per_restart=0)
        with pytest.raises(ValueError):
            SearchConfig(tolerance=0.0)

    def test_never_beats_analytic(self):
        rng = np.random.default_rng(2)
        small = SearchConfig(restarts=4, steps_per_restart=300, seed=9)
        for _ in range(6):
            s = random_scenario(rng, int(rng.integers(2, 4)))
            for mode, analytic in (
                (CONVENTIONAL, perr_conventional),
                (QUANTUM, perr_quantum),
            ):
                result = maximize_trace_norm(s, mode, small)
                assert result.perr >= analytic(s) - 1e-6


class TestSeeSawSearch:
    def test_conventional_d16_region_three_converges(self):
        rng = np.random.default_rng(2024)
        env = EnvironmentState(np.sort(rng.dirichlet(np.ones(16)))[::-1])
        s = Scenario(0.5, 0.6, env)
        assert classify(s)[0] == REGION_III
        result = maximize_trace_norm(s, CONVENTIONAL, SearchConfig(restarts=8, seed=0))
        assert abs(result.perr - perr_conventional(s)) <= 1e-9
        assert result.budget_stops == 0

    def test_quantum_d16_region_three_converges(self):
        # a 256-dimensional probe on the conventional d = 16 test's spectrum
        rng = np.random.default_rng(2024)
        env = EnvironmentState(np.sort(rng.dirichlet(np.ones(16)))[::-1])
        s = Scenario(0.5, 0.6, env)
        assert classify(s)[1] == REGION_III
        result = maximize_trace_norm(s, QUANTUM, SearchConfig(restarts=4, seed=0))
        assert result.budget_stops == 0
        assert abs(result.perr - perr_quantum(s)) <= 1e-9

    def test_quantum_d8_completely_mixed_converges(self):
        s = Scenario(0.5, 0.6, EnvironmentState.completely_mixed(8))
        assert classify(s)[1] == REGION_III
        result = maximize_trace_norm(s, QUANTUM, SearchConfig(restarts=8, seed=3))
        assert abs(result.perr - perr_quantum(s)) <= 1e-9
        assert result.budget_stops == 0

    def test_ill_conditioned_quantum_d5_converges(self):
        # a near-zero eigenvalue next to a dominant one: the plain see-saw
        # crawls here and stops on its iteration cap
        spectrum = np.array([0.91282, 0.0403, 0.03108, 0.01566, 0.00015])
        s = Scenario(0.2, 0.98, EnvironmentState(spectrum / spectrum.sum()))
        assert classify(s)[1] == REGION_III
        result = maximize_trace_norm(s, QUANTUM, SearchConfig(restarts=4, seed=1))
        assert abs(result.perr - perr_quantum(s)) <= 1e-9
        assert result.budget_stops == 0

    @pytest.mark.parametrize("mode", [CONVENTIONAL, QUANTUM])
    def test_single_restart_is_monotone(self, mode):
        rng = np.random.default_rng(12)
        s = random_scenario(rng, 3, gamma_negative=True)
        dim = 3 if mode == CONVENTIONAL else 9
        for _ in range(3):
            start = haar_random_state(dim, rng)
            start_value = 1.0 - 2.0 * perr_of_state(s, start, mode)
            previous = -np.inf
            for cap in (1, 2, 3, 5, 8, 40):
                cfg = SearchConfig(restarts=1, steps_per_restart=cap, seed=1)
                value = maximize_trace_norm(s, mode, cfg, initial_state=start).best_value
                assert value >= start_value - 1e-14
                assert value >= previous  # a longer run extends the same trajectory
                previous = value
            assert previous > start_value + 1e-6

    @pytest.mark.parametrize("mode", [CONVENTIONAL, QUANTUM])
    def test_move_maximizes_the_see_saw_form(self, mode):
        # psi' is a top eigenvector of the form phi -> tr(S omega(phi)), S =
        # sign(omega(psi)), over unit vectors; its matrix is built here from
        # the model's omega builder: Q_ij = tr(S [omega(|j><i|) - omega(0)])
        from illume.oracle import _see_saw_maps

        rng = np.random.default_rng(21)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            base = random_scenario(rng, d, gamma_negative=True)
            env = EnvironmentState(base.env.spectrum, random_unitary(rng, d).T)
            s = Scenario(base.p0, base.eta, env)
            dim, _, targets = _see_saw_maps(s, mode)
            psi = haar_random_state(dim, rng)
            sign = _dense_sign(omega(s, projector(psi), mode))
            basis = np.eye(dim)
            offset = omega(s, np.zeros((dim, dim)), mode)
            q = np.array([[np.trace(sign @ (omega(s, np.outer(basis[j], basis[i]), mode) - offset))
                           for j in range(dim)] for i in range(dim)])
            move = targets(psi[None])[0]
            assert np.vdot(move, q @ move).real >= np.linalg.eigvalsh(q)[-1] - 1e-12

    def test_iterations_and_budget_stops(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        capped = maximize_trace_norm(s, QUANTUM, SearchConfig(restarts=5, steps_per_restart=1))
        assert capped.iterations == [1] * 5
        assert capped.budget_stops == 5
        full = maximize_trace_norm(s, QUANTUM, SearchConfig(restarts=5, seed=2))
        assert full.budget_stops == 0
        assert len(full.iterations) == 5 and min(full.iterations) >= 1
        # every iteration evaluates between one and six extrapolation candidates
        assert 5 + sum(full.iterations) <= full.evaluations <= 5 + 6 * sum(full.iterations)

    @pytest.mark.parametrize("field, value", [
        ("restarts", 2.5), ("restarts", True), ("restarts", "4"),
        ("steps_per_restart", -5), ("steps_per_restart", 2.0), ("steps_per_restart", None),
        ("seed", -1), ("seed", 1.5), ("seed", "x"),
        ("tolerance", float("nan")), ("tolerance", "a"), ("tolerance", True),
    ])
    def test_rejects_malformed_budget(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            SearchConfig(**{field: value})

    def test_bit_identical_reruns(self):
        s = Scenario(0.45, 0.7, EnvironmentState(SKEW3))
        cfg = SearchConfig(restarts=6, seed=8)
        for mode in (CONVENTIONAL, QUANTUM):
            a = maximize_trace_norm(s, mode, cfg)
            b = maximize_trace_norm(s, mode, cfg)
            assert (a.best_value, a.evaluations, a.iterations) == (
                b.best_value, b.evaluations, b.iterations)
            assert a.best_state.tobytes() == b.best_state.tobytes()

    def test_sweep_rerun_is_bit_identical(self):
        cfg = SearchConfig(restarts=4, seed=6)
        spec = SweepSpec((0.3, 0.6, 3), (0.4, 0.9, 3), EnvironmentState(SKEW3), oracle=cfg)
        assert [dataclasses.astuple(r) for r in run_sweep(spec)] == [
            dataclasses.astuple(r) for r in run_sweep(spec)]


def _dense_sign(w_op: np.ndarray) -> np.ndarray:
    """sign(w_op) from a dense eigh, with eigenvalues within 1e-12 of zero mapped to 0."""
    w, v = np.linalg.eigh(w_op)
    return (v * np.where(np.abs(w) <= 1e-12, 0.0, np.sign(w))) @ v.conj().T


def _dense_see_saw(s: Scenario, psi: np.ndarray, mode: str):
    """Dense reference: ``||omega(psi)||_1`` and the matrix of phi -> tr(S omega(phi)).

    The form is ``p1 eta S`` in conventional mode and ``p1 eta S + gamma (I
    (x) tr_A[(rho_E (x) I) S])`` in quantum mode (the adjoint of
    ``absent_state``), up to a constant.
    """
    w_op = omega(s, projector(psi), mode)
    value = float(np.abs(np.linalg.eigvalsh(w_op)).sum())
    sign = _dense_sign(w_op)
    if mode == CONVENTIONAL:
        return value, s.p1 * s.eta * sign
    d = s.env.dim
    idler = np.einsum("ba,acbd->cd", s.env.density(), sign.reshape(d, d, d, d))
    return value, s.p1 * s.eta * sign + s.gamma * np.kron(np.eye(d), idler)


@st.composite
def see_saw_instances(draw):
    """A scenario and a probe for the structured-versus-dense property.

    Spectra: random, with exact zeros, degenerate or uniform, in the
    computational basis (exact zero coordinates) or a complex one. gamma
    of either sign, eta = 0, 1e-200 and 1 included. Probes: Haar, product,
    Schmidt-rank deficient with coefficients >= 0.05, or with exact zero
    coordinates on some environment eigenvectors (deflation), or with a
    faint share, 1e-3 to 0.3 of the amplitude, on some of them. Knife edges,
    eigenvalues near but not at 1e-12, are kept out.
    """
    mode = draw(st.sampled_from([CONVENTIONAL, QUANTUM]))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = rng.uniform(0.1, 1.0, size=d)
    kind = draw(st.sampled_from(["random", "zeros", "degenerate", "uniform"]))
    if kind == "zeros" and d > 1:
        spectrum[rng.choice(d, size=int(rng.integers(1, d)), replace=False)] = 0.0
    elif kind == "degenerate" and d > 1:
        spectrum[rng.choice(d, size=int(rng.integers(2, d + 1)), replace=False)] = spectrum[0]
    elif kind == "uniform":
        spectrum[:] = 1.0
    basis = random_unitary(rng, d).T if draw(st.booleans()) else None
    env = EnvironmentState(spectrum / spectrum.sum(), basis)
    eta = draw(st.sampled_from([None, 0.0, 1e-200, 1.0]))
    negative = eta == 1.0 or draw(st.booleans())  # at eta = 1, gamma = -p0
    while True:
        s = Scenario(float(rng.uniform(0.01, 0.99)),
                     float(rng.uniform(0.0, 1.0)) if eta is None else eta, env)
        if (s.gamma < -1e-3) == negative and abs(s.gamma) > 1e-3:
            break

    theta = env.basis  # rows are the environment eigenvectors
    probe = draw(st.sampled_from(["haar", "product", "schmidt", "deflated", "faint"]))
    if mode == CONVENTIONAL:
        coeff = haar_random_state(d, rng)
        if probe in ("deflated", "faint") and d > 1:
            coeff[rng.choice(d, size=int(rng.integers(1, d)), replace=False)] *= (
                0.0 if probe == "deflated" else 10.0 ** rng.uniform(-3.0, -0.5))
        psi = coeff / np.linalg.norm(coeff) @ theta
        return s, psi, mode
    if probe == "haar":
        return s, haar_random_state(d * d, rng), mode
    rank = 1 if probe == "product" else int(rng.integers(1, d + 1))
    weights = rng.uniform(0.05, 1.0, size=rank)
    x = random_unitary(rng, d)[:, :rank] @ np.diag(np.sqrt(weights / weights.sum()))
    x = x @ random_unitary(rng, d)[:, :rank].T  # signal rows, idler columns
    if probe in ("deflated", "faint") and d > 1:
        frame = theta.conj() @ x  # rows on the environment eigenvectors
        frame[rng.choice(d, size=int(rng.integers(1, d)), replace=False)] *= (
            0.0 if probe == "deflated" else 10.0 ** rng.uniform(-3.0, -0.5))
        x = theta.T @ frame
    return s, (x / np.linalg.norm(x)).reshape(-1), mode


class TestStructuredSeeSaw:
    """The secular-equation search maps equal the dense eigendecomposition."""

    @settings(max_examples=500, deadline=None)
    @given(see_saw_instances())
    def test_structured_equals_dense(self, instance):
        from illume.oracle import _see_saw_maps

        s, psi, mode = instance
        dim, values, targets = _see_saw_maps(s, mode)
        value, form = _dense_see_saw(s, psi, mode)
        assert abs(values(psi[None])[0] - value) <= 1e-12
        move = targets(psi[None])[0]
        assert np.isfinite(move).all() and abs(np.linalg.norm(move) - 1.0) <= 1e-10
        assert np.vdot(move, form @ move).real >= np.linalg.eigvalsh(form)[-1] - 1e-12

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("zero_share", [0.0, 0.01])
    def test_low_rank_probes_on_zero_eigenvalues(self, rank, zero_share):
        # sign(omega) is 0 on the Schmidt kernel and on the zero-eigenvalue
        # rows off z; with two such rows a direction there orthogonal to
        # z's can carry the top of the form
        from illume.oracle import _see_saw_maps

        s = Scenario(0.6, 0.55, EnvironmentState([0.6, 0.4, 0.0, 0.0]))
        _, _, targets = _see_saw_maps(s, QUANTUM)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = haar_random_state(4 * rank, rng).reshape(4, rank)
            x = x @ haar_random_state(4 * rank, rng).reshape(rank, 4)
            x[2:] *= zero_share
            psi = (x / np.linalg.norm(x)).reshape(-1)
            form = _dense_see_saw(s, psi, QUANTUM)[1]
            move = targets(psi[None])[0]
            assert np.vdot(move, form @ move).real >= np.linalg.eigvalsh(form)[-1] - 1e-12

    def test_stack_equals_its_rows(self):
        from illume.oracle import _see_saw_maps

        rng = np.random.default_rng(4)
        env = EnvironmentState([0.5, 0.3, 0.2, 0.0], random_unitary(rng, 4).T)
        s = Scenario(0.4, 0.7, env)
        for mode, dim in ((CONVENTIONAL, 4), (QUANTUM, 16)):
            _, values, targets = _see_saw_maps(s, mode)
            stack = np.array([haar_random_state(dim, rng) for _ in range(5)])
            for i, psi in enumerate(stack):
                assert abs(values(stack)[i] - values(psi[None])[0]) <= 1e-15
                np.testing.assert_allclose(targets(stack)[i], targets(psi[None])[0], atol=1e-13)


class TestSingleNegativeEigenvalue:
    def test_zero_shift_is_trivially_true(self):
        rng = np.random.default_rng(3)
        assert check_single_negative_eigenvalue(
            random_density(rng, 4), 0.0, haar_random_state(4, rng)
        )

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for t in range(500):
            d = (2, 3, 4, 6)[t % 4]
            ok = check_single_negative_eigenvalue(
                random_density(rng, d),
                float(rng.uniform(1e-3, 2.0)),
                haar_random_state(d, rng),
            )
            assert ok

    def test_eigenvector_probe_explicit_spectrum(self):
        env = EnvironmentState(SKEW3)
        rho = env.density()
        psi = env.eigenvector(2)  # eigenvalue 0.2
        for alpha, expect_negative in ((0.1, False), (0.5, True)):
            w = np.linalg.eigvalsh(rho - alpha * projector(psi))
            assert (w[0] < -1e-10) == expect_negative
            assert check_single_negative_eigenvalue(rho, alpha, psi)

    def test_one_dimensional_is_trivially_true(self):
        # a 1x1 shift has a single eigenvalue, so at most one is negative
        assert check_single_negative_eigenvalue([[1.0]], 5.0, [1.0])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="mismatch"):
            check_single_negative_eigenvalue(
                random_density(rng, 3), 1.0, haar_random_state(4, rng)
            )

    @pytest.mark.parametrize("rho, message", NOT_DENSITY)
    def test_rejects_non_density_matrix(self, rho, message):
        with pytest.raises(ValueError, match=message):
            check_single_negative_eigenvalue(rho, 0.5, np.array([1.0, 0.0]))


class TestEigenvalueLowerBound:
    def test_optimal_state_saturates(self):
        env = EnvironmentState(SKEW3)
        s = Scenario(0.5, 0.6, env)
        psi = optimal_probe_quantum(s)
        rho_ab = projector(psi)
        h = np.kron(env.density(), partial_trace_first(rho_ab, 3, 3)) - s.alpha * rho_ab
        e_g = float(np.linalg.eigvalsh(h)[0])
        assert e_g == pytest.approx(env.lambda_harmonic - s.alpha, abs=1e-12)
        assert check_eigenvalue_lower_bound(env, s.alpha, psi)

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for t in range(200):
            d = 2 + (t % 2)
            env = EnvironmentState(np.sort(rng.dirichlet(np.ones(d)))[::-1])
            alpha = float(rng.exponential(0.5))
            assert check_eigenvalue_lower_bound(env, alpha, haar_random_state(d * d, rng))

    def test_small_alpha_keeps_positivity(self):
        rng = np.random.default_rng(7)
        env = EnvironmentState(SKEW3)
        for _ in range(100):
            alpha = float(rng.uniform(0.0, env.lambda_harmonic))
            psi = haar_random_state(9, rng)
            rho_ab = projector(psi)
            h = np.kron(env.density(), partial_trace_first(rho_ab, 3, 3)) - alpha * rho_ab
            assert np.linalg.eigvalsh(h)[0] >= -1e-10
            assert check_eigenvalue_lower_bound(env, alpha, psi)


    def test_rejects_probe_of_wrong_size(self):
        env = EnvironmentState(SKEW3)
        with pytest.raises(ValueError, match=r"bipartite probe has shape \(3, 3\)"):
            check_eigenvalue_lower_bound(env, 0.1, haar_random_state(3, seed=0))


class TestPerrLinearInMinEigenvalue:
    def test_optimal_probe_equals_region_three_value(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        psi = optimal_probe_conventional(s)
        assert check_perr_linear_in_min_eigenvalue(s, psi)
        lam_d = s.env.lambda_min
        predicted = 0.5 * (1.0 - abs(s.gamma) * (1.0 - s.alpha - 2.0 * (lam_d - s.alpha)))
        assert predicted == pytest.approx(s.p0 + s.gamma * (1.0 - lam_d), abs=1e-12)

    def test_random_probes_d4(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = random_scenario(rng, 4, gamma_negative=True)
            assert check_perr_linear_in_min_eigenvalue(s, haar_random_state(4, rng))

    def test_positive_ground_level_passes_vacuously(self):
        # tiny alpha keeps rho_E - alpha |psi><psi| positive definite
        s = Scenario(0.9, 0.01, EnvironmentState([0.7, 0.3]))
        assert s.alpha < 0.3
        psi = haar_random_state(2, seed=0)
        e_d = np.linalg.eigvalsh(s.env.density() - s.alpha * projector(psi))[0]
        assert e_d > 0
        assert check_perr_linear_in_min_eigenvalue(s, psi)

    def test_rejects_probe_of_wrong_size(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        with pytest.raises(ValueError, match="probe has dimension 2, expected 3"):
            check_perr_linear_in_min_eigenvalue(s, haar_random_state(2, seed=0))

    def test_requires_negative_gamma(self):
        s = Scenario(0.2, 0.1, EnvironmentState([0.5, 0.5]))
        with pytest.raises(ValueError, match="gamma"):
            check_perr_linear_in_min_eigenvalue(s, haar_random_state(2, seed=0))


class TestConvexityReduction:
    def test_pure_probe_is_equality(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        assert check_convexity_reduction(s, projector(haar_random_state(3, seed=1)), CONVENTIONAL)

    def test_environment_as_probe(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_scenario(rng, 3)
            assert check_convexity_reduction(s, s.env.density(), CONVENTIONAL)

    def test_random_mixed_probes_both_modes(self):
        rng = np.random.default_rng(10)
        for t in range(100):
            d = 2 + (t % 2)
            s = random_scenario(rng, d)
            mode = CONVENTIONAL if t % 2 == 0 else QUANTUM
            probe_dim = d if mode == CONVENTIONAL else d * d
            assert check_convexity_reduction(s, random_density(rng, probe_dim), mode)

    @pytest.mark.parametrize("rho, message", NOT_DENSITY)
    def test_rejects_non_density_matrix(self, rho, message):
        s = Scenario(0.5, 0.6, EnvironmentState([0.5, 0.5]))
        with pytest.raises(ValueError, match=message):
            check_convexity_reduction(s, rho, CONVENTIONAL)


class TestSimulateMeasurement:
    def test_no_signal(self):
        s = Scenario(0.3, 0.0, EnvironmentState([0.5, 0.5]))
        stats = simulate_measurement(s, [1.0, 0.0], CONVENTIONAL, 100_000, seed=5)
        assert abs(stats.empirical_perr - 0.3) <= 4.0 * max(stats.std_error, 1e-4)

    def test_completely_mixed_pair(self):
        s = Scenario(0.5, 0.6, EnvironmentState([0.5, 0.5]))
        stats = simulate_measurement(
            s, optimal_probe_conventional(s), CONVENTIONAL, 100_000, seed=6
        )
        assert abs(stats.empirical_perr - 0.35) <= 4.0 * stats.std_error

    def test_entangled_optimum(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        stats = simulate_measurement(s, optimal_probe_quantum(s), QUANTUM, 100_000, seed=7)
        assert abs(stats.empirical_perr - perr_quantum(s)) <= 4.0 * stats.std_error

    def test_statistics_fields(self):
        s = Scenario(0.4, 0.3, EnvironmentState([0.5, 0.5]))
        stats = simulate_measurement(s, [0.0, 1.0], CONVENTIONAL, 5000, seed=8)
        assert stats.trials == 5000
        assert stats.empirical_perr == stats.errors / stats.trials
        p = stats.empirical_perr
        assert stats.std_error == pytest.approx(np.sqrt(p * (1 - p) / 5000), abs=1e-15)

    def test_deterministic_given_seed(self):
        s = Scenario(0.5, 0.6, EnvironmentState(SKEW3))
        probe = optimal_probe_conventional(s)
        a = simulate_measurement(s, probe, CONVENTIONAL, 20_000, seed=9)
        b = simulate_measurement(s, probe, CONVENTIONAL, 20_000, seed=9)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_rejects_zero_trials(self):
        s = Scenario(0.5, 0.6, EnvironmentState([0.5, 0.5]))
        with pytest.raises(ValueError, match="trials"):
            simulate_measurement(s, [1.0, 0.0], CONVENTIONAL, 0, seed=0)

    def test_empirical_monotonicity_in_reflectivity(self):
        env = EnvironmentState([0.5, 0.5])
        stats = []
        for i, eta in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            s = Scenario(0.5, eta, env)
            stats.append(
                simulate_measurement(s, optimal_probe_conventional(s), CONVENTIONAL,
                                     50_000, seed=100 + i)
            )
        for a, b in zip(stats, stats[1:]):
            noise = 4.0 * np.hypot(a.std_error, b.std_error)
            assert b.empirical_perr <= a.empirical_perr + noise


class TestSignStructure:
    def test_one_positive_eigenvalue_at_optimum(self):
        # measurement regime: the bipartite difference operator has exactly
        # one positive eigenvalue at the optimal entangled probe
        rng = np.random.default_rng(11)
        found = 0
        while found < 20:
            s = random_scenario(rng, int(rng.integers(2, 4)), gamma_negative=True)
            if classify(s)[1] != REGION_III:
                continue
            found += 1
            w = np.linalg.eigvalsh(omega(s, projector(optimal_probe_quantum(s)), QUANTUM))
            assert int(np.sum(w > 1e-12)) == 1


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestSuites:
    def test_lemma_suite_clean(self):
        result = run_lemma_suite(seed=7, trials=400)
        assert result["violations"] == 0
        names = [c["name"] for c in result["checks"]]
        assert names == [
            "single_negative_eigenvalue",
            "bipartite_ground_level_bound",
            "perr_linear_in_ground_level",
            "convexity_reduction",
        ]
        assert result["checks"][0]["trials"] == 400
        assert all(c["worst_margin"] >= 0.0 for c in result["checks"])

    def test_oracle_suite_clean_with_cheap_config(self):
        result = run_oracle_suite(seed=5, cfg=SearchConfig(restarts=8, steps_per_restart=800,
                                                           seed=5, tolerance=1e-5))
        assert result["violations"] == 0
        assert len(result["checks"]) == 20

    def test_oracle_suite_default_config_hits_1e6(self):
        # the default 32x2000 search pins every bundled scenario to 1e-6.
        # The search evaluates ||omega||_1 from the secular equation instead
        # of a dense eigvalsh, so its last bits and its evaluation counts
        # moved (flat scenarios now stop after one round of 64): the digest
        # went from b4e6d25b... to b63db5bc..., regenerated once every check
        # had no violation, a margin >= 0 and no budget stop.
        result = run_oracle_suite(seed=7)
        assert result["violations"] == 0
        assert min(c["worst_margin"] for c in result["checks"]) >= 0.0
        assert [c["budget_stops"] for c in result["checks"]] == [0] * 20
        assert _digest(result) == (
            "b63db5bc7436792cfcb3a7768a06a37f843280fa26afdce21a2cc85a0468c933")

    # sha256 of each suite payload: any drift in the draws, the arithmetic
    # or the reported margins fails. The conventional hypothesis difference
    # is built as p1 eta rho + gamma rho_E (model.omega), not as
    # p1 E1 - p0 E0; that rounding moved worst_margin of
    # perr_linear_in_ground_level (and, at seed 2026, of
    # convexity_reduction) by at most 1.2e-16, every other field is
    # unchanged, so these digests were regenerated. The payloads carry raw
    # eigenvalues, so the digests hold for one LAPACK build (computed with
    # numpy 2.4.6 / OpenBLAS on x86-64).
    @pytest.mark.parametrize("seed, trials, digest", [
        (0, 400, "19ada9e00950763d9525c3b558621c58527c7b50e5b78675e508c318d9db4da3"),
        (7, 2000, "6c8598ca714619bea0533ffe556371d676a7b1c9e12fa2805297e1c9107c263c"),
    ])
    def test_lemma_suite_golden_payload(self, seed, trials, digest):
        assert _digest(run_lemma_suite(seed=seed, trials=trials)) == digest

    def test_lemma_suite_golden_payload_full_size(self, lemma_suite_2026):
        assert _digest(lemma_suite_2026) == (
            "7aa2b61dfdbc2a19c1cc23cd08895cf5c62cd1de12190767289ba87d08ef8878")

    def test_montecarlo_suite_golden_payload(self):
        assert _digest(run_montecarlo_suite(seed=0, trials=2000)) == (
            "34d5d56db040a6f9ee570d989bedc6e2fe4b1b3d73994eb24fc4de8f551787b1")

    def test_oracle_suite_reports_budget_stops(self):
        result = run_oracle_suite(seed=3)
        assert result["violations"] == 0
        assert [c["budget_stops"] for c in result["checks"]] == [0] * 20
        capped = run_oracle_suite(seed=3, cfg=SearchConfig(restarts=2, steps_per_restart=1))
        assert {c["budget_stops"] for c in capped["checks"]} <= {0, 1, 2}
        assert sum(c["budget_stops"] for c in capped["checks"]) > 0

    def test_montecarlo_suite_clean(self):
        result = run_montecarlo_suite(seed=11, trials=20_000)
        assert result["violations"] == 0
        assert len(result["checks"]) == 20

    def test_bundled_scenarios_shape(self):
        cases = bundled_scenarios()
        assert len(cases) == 20
        assert len({c.name for c in cases}) == 20
        for case in cases:
            assert case.mode in (CONVENTIONAL, QUANTUM)
            assert case.analytic_perr() <= min(case.scenario.p0, case.scenario.p1) + 1e-12
