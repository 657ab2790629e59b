"""Dense complex linear algebra for Hermitian operators and normalized state vectors.

Everything here works on plain ``numpy`` arrays: operators are square
``complex128`` matrices, states are 1-D ``complex128`` vectors. The
``require_*`` helpers validate the corresponding invariants and return the
input coerced to ``complex128``; they are the construction points for the
operator/state values the rest of the package passes around.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tolerances import (
    DENSITY_EIG_TOL,
    DENSITY_TRACE_TOL,
    HERMITICITY_TOL,
    STATE_NORM_TOL,
)


class EigenSolverError(RuntimeError):
    """Dense Hermitian eigensolver failed to converge.

    Carries the matrix dimension and the Hermiticity residual of the input
    as diagnostics.
    """

    def __init__(self, dim: int, residual: float, message: str = ""):
        self.dim = dim
        self.residual = residual
        detail = f"eigensolver did not converge (dim={dim}, hermiticity residual={residual:.3e})"
        if message:
            detail += f": {message}"
        super().__init__(detail)


class EigenDecomposition(NamedTuple):
    """Spectral decomposition of a Hermitian operator.

    ``eigenvalues`` is sorted descending; column ``k`` of ``eigenvectors``
    is the (orthonormal) eigenvector paired with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_hermitian(a) -> np.ndarray:
    """Validate that ``a`` is a square Hermitian matrix and return it as complex128."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails below
        residual = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if not residual <= HERMITICITY_TOL:  # also rejects NaN entries
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dagger| = {residual:.3e} > {HERMITICITY_TOL:.1e}")
    return a


def require_state_vector(v) -> np.ndarray:
    """Validate that ``v`` is a unit-norm complex vector and return it as complex128."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size < 1:
        raise ValueError("state vector must have dimension >= 1")
    with np.errstate(over="ignore"):  # a norm overflowed to inf fails the check below
        norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= STATE_NORM_TOL:  # also rejects NaN entries
        raise ValueError(f"state vector is not normalized: ||psi|| = {norm!r}")
    return v


def require_density_matrix(a) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite."""
    a = require_hermitian(a)
    tr = complex(np.trace(a))
    if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr!r}")
    smallest = float(np.linalg.eigvalsh(a)[0])
    if not smallest >= -DENSITY_EIG_TOL:
        raise ValueError(f"density matrix has a negative eigenvalue: {smallest:.3e}")
    return a


def _hermitian_solve(solver, op):
    # LAPACK non-convergence of ``solver`` on a validated ``op`` raises EigenSolverError
    op = require_hermitian(op)
    try:
        return solver(op)
    except np.linalg.LinAlgError as exc:
        residual = float(np.max(np.abs(op - op.conj().T)))
        raise EigenSolverError(op.shape[0], residual, str(exc)) from exc


def eig(op) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending.

    Backed by the LAPACK dense Hermitian solver. Non-convergence raises
    :class:`EigenSolverError` with the dimension and Hermiticity residual.
    """
    values, vectors = _hermitian_solve(np.linalg.eigh, op)
    order = np.argsort(values)[::-1]
    return EigenDecomposition(values[order], vectors[:, order])


def trace_norm(op) -> float:
    """Trace norm of a Hermitian operator: the sum of absolute eigenvalues."""
    return float(np.sum(np.abs(_hermitian_solve(np.linalg.eigvalsh, op))))


def partial_trace_first(op, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the first factor of an operator on a ``dim_a x dim_b`` product space.

    ``op`` is one operator or a stack ``(..., n, n)`` with ``n = dim_a *
    dim_b``. For ``op = a (x) b`` this returns ``trace(a) * b``; the total
    trace is preserved for every input.
    """
    op = np.asarray(op, dtype=np.complex128)
    n = dim_a * dim_b
    if op.shape[-2:] != (n, n):
        raise ValueError(f"operator shape {op.shape} does not match dim_a*dim_b = {n}")
    reshaped = op.reshape(*op.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    return np.einsum("...ajak->...jk", reshaped)


def projector(psi) -> np.ndarray:
    """Rank-one projector |psi><psi| of a state vector, or of each row of a stack ``(..., n)``."""
    psi = np.asarray(psi, dtype=np.complex128)
    # the products np.outer forms, so one vector's projector keeps its bits
    return psi[..., :, None] * psi.conj()[..., None, :]


def haar_random_state(dim: int, seed, shape: tuple = ()) -> np.ndarray:
    """Draw a Haar-random pure state of the given dimension, or a stack ``(*shape, dim)`` of them.

    Entries are independent standard complex Gaussians, normalized to unit
    length; a stack draws all real parts in one call, then all imaginary
    parts. ``seed`` may be an integer (deterministic: the same seed gives
    the same state) or an existing :class:`numpy.random.Generator`, which is
    advanced in place.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    size = (*shape, dim)
    raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if not shape:  # one state keeps its whole-vector norm, and so its bits
        return raw / np.linalg.norm(raw)
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)
