import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, random_unitary
from illume import (
    EigenSolverError,
    eig,
    haar_random_state,
    partial_trace_first,
    projector,
    require_density_matrix,
    require_hermitian,
    require_state_vector,
    trace_norm,
)
from illume.model import QUANTUM, EnvironmentState, absent_state


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            require_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_accepts_tolerant_hermitian(self):
        a = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 1e-12j, 2.0]])
        require_hermitian(a)

    def test_state_vector_norm(self):
        require_state_vector([1.0, 0.0])
        with pytest.raises(ValueError, match="normalized"):
            require_state_vector([1.0, 1.0])
        with pytest.raises(ValueError, match="dimension >= 1"):
            require_state_vector([])

    def test_density_checks(self):
        require_density_matrix(np.eye(3) / 3)
        with pytest.raises(ValueError, match="trace"):
            require_density_matrix(np.eye(3))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            require_density_matrix(np.diag([1.5, -0.5]))


    # NaN compares False with everything, so each validator must reject it
    # explicitly rather than by a failed "> tol" test.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hermitian_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian([[0.5, bad], [bad, 0.5]])

    @pytest.mark.parametrize("entry", [1e308, 1e308 + 1e308j])
    def test_hermitian_rejects_overflowing_residual_without_warning(self, entry):
        # A - A^dagger overflows to inf on a huge finite antisymmetric entry:
        # the check rejects it and warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="Hermitian"):
                require_hermitian([[0.0, entry], [-entry, 0.0]])
        assert caught == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_state_vector_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="normalized"):
            require_state_vector([bad, 0.0])
        with pytest.raises(ValueError, match="normalized"):
            require_state_vector([1.0, bad])

    @pytest.mark.parametrize("entry", [1e200, 1e308 + 1e308j])
    def test_state_vector_rejects_overflowing_norm_without_warning(self, entry):
        # a norm that overflows to inf fails the check and warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="normalized"):
                require_state_vector([entry, 0.0])
        assert caught == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="Hermitian"):
            require_density_matrix([[bad, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            require_density_matrix([[0.5, bad], [bad, 0.5]])


class TestEig:
    def test_diagonal_input(self):
        decomp = eig(np.diag([0.5, 0.3, 0.2]))
        np.testing.assert_allclose(decomp.eigenvalues, [0.5, 0.3, 0.2], atol=1e-14)
        # standard-basis eigenvectors, up to phase
        np.testing.assert_allclose(np.abs(decomp.eigenvectors), np.eye(3), atol=1e-14)

    def test_rank_one_projector(self):
        decomp = eig([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 0.0], atol=1e-14)

    def test_descending_order(self):
        rng = np.random.default_rng(1)
        values = eig(random_hermitian(rng, 6)).eigenvalues
        assert np.all(np.diff(values) <= 0)

    def test_reconstruction_random_4x4(self):
        rng = np.random.default_rng(7)
        op = random_hermitian(rng, 4)
        values, vectors = eig(op)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - op)) <= 1e-8

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(8)
        vectors = eig(random_hermitian(rng, 5)).eigenvectors
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-8

    def test_basis_consistency_under_rotation(self):
        rng = np.random.default_rng(9)
        op = random_hermitian(rng, 5)
        u = random_unitary(rng, 5)
        rotated = u @ op @ u.conj().T
        np.testing.assert_allclose(
            eig(rotated).eigenvalues, eig(op).eigenvalues, atol=1e-8
        )


class TestSolverFailure:
    @pytest.mark.parametrize("solve, lapack", [(eig, "eigh"), (trace_norm, "eigvalsh")])
    def test_non_convergence_raises_eigen_solver_error(self, monkeypatch, solve, lapack):
        def fail(op):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, lapack, fail)
        op = np.array([[1.0, 1e-12], [0.0, 2.0]])
        with pytest.raises(EigenSolverError, match="dim=2.*: Eigenvalues did not converge") as exc:
            solve(op)
        assert (exc.value.dim, exc.value.residual) == (2, 1e-12)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


class TestTraceNorm:
    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(2)
        assert trace_norm(random_density(rng, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_sum_of_absolute_eigenvalues(self):
        assert trace_norm(np.diag([0.3, -0.7])) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
    def test_dominates_absolute_trace(self, seed, dim):
        rng = np.random.default_rng(seed)
        op = random_hermitian(rng, dim)
        tn = trace_norm(op)
        tr = abs(float(np.trace(op).real))
        assert tn >= tr - 1e-12
        # equality exactly when the spectrum has a single sign
        w = np.linalg.eigvalsh(op)
        if w[0] * w[-1] >= -1e-10:
            assert tn == pytest.approx(tr, abs=1e-10)
        else:
            assert tn > tr + 1e-10


class TestTensor:
    # rho_E (x) rho_B, built by absent_state, with index (i_E, i_B) -> i_E * d + i_B:
    # the layout partial_trace_first inverts
    def test_identity(self):
        mixed = EnvironmentState.completely_mixed(2)
        np.testing.assert_array_equal(
            absent_state(mixed, np.eye(4) / 4, QUANTUM), np.eye(4) / 4)

    def test_basis_bookkeeping(self):
        pure = EnvironmentState([1.0, 0.0])
        out = absent_state(pure, np.kron(np.eye(2) / 2, np.diag([0.0, 1.0])), QUANTUM)
        np.testing.assert_array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_trace_multiplicative(self):
        # tr(rho_E) tr(tr_A op) = tr(op), also for a non-density operator
        rng = np.random.default_rng(3)
        env = EnvironmentState([0.5, 0.3, 0.2], basis=random_unitary(rng, 3).T)
        op = random_hermitian(rng, 9)
        assert np.trace(absent_state(env, op, QUANTUM)) == pytest.approx(
            np.trace(op), abs=1e-12
        )


class TestPartialTraceFirst:
    def test_product_state(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        sigma = random_density(rng, 4)
        out = partial_trace_first(np.kron(rho, sigma), 3, 4)
        np.testing.assert_allclose(out, sigma, atol=1e-12)

    def test_maximally_entangled(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        out = partial_trace_first(projector(bell), 2, 2)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        op = random_hermitian(rng, 6)
        out = partial_trace_first(op, 2, 3)
        assert np.trace(out) == pytest.approx(np.trace(op), abs=1e-12)

    def test_recovers_second_factor_scaled(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        out = partial_trace_first(np.kron(a, b), 2, 3)
        assert np.max(np.abs(out - np.trace(a) * b)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            partial_trace_first(np.eye(5), 2, 3)
        with pytest.raises(ValueError, match="shape"):
            partial_trace_first(np.zeros((4, 5, 5)), 2, 3)

    def test_stack_equals_its_slices(self):
        rng = np.random.default_rng(7)
        stack = np.array([[random_hermitian(rng, 6) for _ in range(3)] for _ in range(2)])
        out = partial_trace_first(stack, 2, 3)
        assert out.shape == (2, 3, 3, 3)
        for i in range(2):
            for j in range(3):
                assert out[i, j].tobytes() == partial_trace_first(stack[i, j], 2, 3).tobytes()


class TestHaarRandomState:
    def test_dim_one_is_a_phase(self):
        psi = haar_random_state(1, seed=0)
        assert abs(abs(psi[0]) - 1.0) <= 1e-14

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(
            haar_random_state(5, seed=42), haar_random_state(5, seed=42)
        )

    def test_unit_norm(self):
        psi = haar_random_state(7, seed=1)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_first_component_moment(self):
        # E|<e_0|psi>|^2 = 1/dim for Haar states; Monte-Carlo at dim 4
        rng = np.random.default_rng(123)
        n = 100_000
        acc = 0.0
        for _ in range(n):
            acc += abs(haar_random_state(4, rng)[0]) ** 2
        assert acc / n == pytest.approx(0.25, abs=0.01)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            haar_random_state(0, seed=0)

    def test_one_state_draws_are_pinned(self):
        # a stack shape was added; the draws of one state, which seeded tests
        # and the oracle-search restarts depend on, keep every bit
        h = hashlib.sha256()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for d in (1, 2, 3, 4, 9, 16):
                h.update(haar_random_state(d, rng).tobytes())
            h.update(haar_random_state(5, seed=seed).tobytes())
        assert h.hexdigest() == (
            "98a82aefb5c7a4ec5bc5001ab4102884de6a6aba01e8350a932c841a0387c8bb")

    def test_stack_of_unit_vectors(self):
        stack = haar_random_state(6, np.random.default_rng(3), (2, 5))
        assert stack.shape == (2, 5, 6)
        np.testing.assert_allclose(np.linalg.norm(stack, axis=-1), 1.0, atol=1e-14)
        assert len({row.tobytes() for row in stack.reshape(-1, 6)}) == 10


class TestProjector:
    def test_stack_rows_equal_outer_products(self):
        stack = haar_random_state(4, np.random.default_rng(5), (3,))
        out = projector(stack)
        assert out.shape == (3, 4, 4)
        for psi, p in zip(stack, out):
            assert p.tobytes() == np.outer(psi, psi.conj()).tobytes()
            assert p.tobytes() == projector(psi).tobytes()
