"""Domain model for one-shot illumination scenarios.

A scenario is a prior ``p0`` for target absence, a reflectivity ``eta`` and
an environment state. The two hypotheses are quantum channels acting on the
probe: with the target absent the probe is lost and only the environment
returns; with the target present a fraction ``eta`` of the probe survives.
The weighted hypothesis difference operators built here carry all the
detection-error information: the minimal discrimination error is
``(1 - ||omega||_1) / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import partial_trace_first, projector, require_state_vector, tensor
from .tolerances import (
    BOUNDARY_TOL,
    DENSITY_TRACE_TOL,
    ORTHONORMALITY_TOL,
    ZERO_EIGENVALUE_TOL,
)

CONVENTIONAL = "conventional"
QUANTUM = "quantum"
MODES = (CONVENTIONAL, QUANTUM)


class EnvironmentState:
    """Environment (background) state, held as spectrum plus eigenbasis.

    The spectrum is sorted descending on construction, with the basis rows
    permuted alongside; row ``i`` of ``basis`` is the eigenvector paired with
    ``spectrum[i]``. When no basis is given the computational basis is used;
    every analytic quantity downstream depends on the spectrum alone, the
    basis only matters when building explicit operators.
    """

    def __init__(self, spectrum, basis=None):
        spectrum = np.asarray(spectrum, dtype=float).reshape(-1)
        if spectrum.size < 1:
            raise ValueError("spectrum must have at least one eigenvalue")
        if not np.isfinite(spectrum).all():
            raise ValueError(f"spectrum must be finite, got {spectrum.tolist()!r}")
        if np.any(spectrum < -ZERO_EIGENVALUE_TOL):
            raise ValueError(f"spectrum has a negative eigenvalue: {spectrum.min()!r}")
        total = float(spectrum.sum())
        if abs(total - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"spectrum must sum to 1, got {total!r}")
        spectrum = np.clip(spectrum, 0.0, None)

        order = np.argsort(-spectrum, kind="stable")
        d = spectrum.size
        if basis is None:
            basis = np.eye(d, dtype=np.complex128)
        else:
            basis = np.asarray(basis, dtype=np.complex128)
            if basis.shape != (d, d):
                raise ValueError(f"basis shape {basis.shape} does not match dimension {d}")
            if not np.isfinite(basis).all():
                raise ValueError("basis entries must be finite")
            gram = basis @ basis.conj().T
            if np.max(np.abs(gram - np.eye(d))) > ORTHONORMALITY_TOL:
                raise ValueError("basis rows are not orthonormal")

        self.spectrum = spectrum[order]
        self.basis = basis[order]
        self.dim = d

    @classmethod
    def completely_mixed(cls, dim: int) -> "EnvironmentState":
        """Environment I/d."""
        return cls(np.full(dim, 1.0 / dim))

    @cached_property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of the environment (computed once)."""
        return float(self.spectrum[-1])

    @cached_property
    def lambda_harmonic(self) -> float:
        """Inverse of the summed inverse eigenvalues; 0 if any eigenvalue is (numerically) 0.

        Always at most ``lambda_min``, and strictly below it for d >= 2 with a
        fully positive spectrum. Computed once per environment.
        """
        if np.any(self.spectrum <= ZERO_EIGENVALUE_TOL):
            return 0.0
        value = 1.0 / float(np.sum(1.0 / self.spectrum))
        return min(value, self.lambda_min)

    def density(self) -> np.ndarray:
        """Environment density matrix sum_i lambda_i |theta_i><theta_i|."""
        return (self.basis.T * self.spectrum) @ self.basis.conj()

    def eigenvector(self, i: int) -> np.ndarray:
        """Eigenvector |theta_i> (0-based, spectrum order)."""
        return self.basis[i].copy()


@dataclass(frozen=True)
class Scenario:
    """Detection scenario: absence prior, reflectivity, environment."""

    p0: float
    eta: float
    env: EnvironmentState

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must lie in [0, 1], got {self.p0!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")

    @property
    def p1(self) -> float:
        return 1.0 - self.p0


@dataclass(frozen=True)
class DerivedParams:
    """Closed-arithmetic quantities derived from a scenario.

    ``gamma = p1 (1 - eta) - p0``; its sign separates the guess-dominated
    regime (>= 0) from the measurement regime (< 0). ``alpha`` is
    ``eta p1 / |gamma|`` and only meaningful for gamma < 0, else ``None``.
    """

    gamma: float
    alpha: float | None
    lambda_d: float
    lambda_h: float


def derived_params(s: Scenario) -> DerivedParams:
    gamma = s.p1 * (1.0 - s.eta) - s.p0
    alpha = (s.eta * s.p1 / abs(gamma)) if gamma < -BOUNDARY_TOL else None
    return DerivedParams(
        gamma=gamma,
        alpha=alpha,
        lambda_d=s.env.lambda_min,
        lambda_h=s.env.lambda_harmonic,
    )


def _check_probe_dim(s: Scenario, probe: np.ndarray, expect_dim: int) -> np.ndarray:
    probe = np.asarray(probe, dtype=np.complex128)
    if probe.shape != (expect_dim, expect_dim):
        raise ValueError(
            f"probe has shape {probe.shape}, expected ({expect_dim}, {expect_dim}) "
            f"for environment dimension {s.env.dim}"
        )
    return probe


def channel_absent(s: Scenario, probe) -> np.ndarray:
    """Target-absent channel: the probe is lost, only the environment returns."""
    _check_probe_dim(s, probe, s.env.dim)
    return s.env.density()


def channel_present(s: Scenario, probe) -> np.ndarray:
    """Target-present channel: eta * probe + (1 - eta) * environment."""
    probe = _check_probe_dim(s, probe, s.env.dim)
    return s.eta * probe + (1.0 - s.eta) * s.env.density()


def channel_absent_bipartite(s: Scenario, probe_ab) -> np.ndarray:
    """Target-absent state of a signal-idler probe: ``rho_E (x) tr_A rho_AB``.

    The signal is lost, the environment returns and the idler is kept.
    """
    d = s.env.dim
    probe_ab = _check_probe_dim(s, probe_ab, d * d)
    return tensor(s.env.density(), partial_trace_first(probe_ab, d, d))


def omega_c(s: Scenario, probe) -> np.ndarray:
    """Weighted hypothesis difference p1 E1(probe) - p0 E0(probe) for a single signal.

    ``probe`` is a density matrix on the environment space. The result has
    trace ``p1 - p0``.
    """
    probe = _check_probe_dim(s, probe, s.env.dim)
    return s.p1 * channel_present(s, probe) - s.p0 * channel_absent(s, probe)


def omega_q_density(s: Scenario, probe_ab) -> np.ndarray:
    """Bipartite hypothesis difference for a (possibly mixed) signal-idler probe.

    Equals ``p1 eta rho_AB + gamma rho_E (x) rho_B`` with
    ``rho_B = tr_A rho_AB``.
    """
    probe_ab = _check_probe_dim(s, probe_ab, s.env.dim ** 2)
    gamma = s.p1 * (1.0 - s.eta) - s.p0
    return s.p1 * s.eta * probe_ab + gamma * channel_absent_bipartite(s, probe_ab)


def omega_q(s: Scenario, probe) -> np.ndarray:
    """Bipartite hypothesis difference for a pure signal-idler probe state.

    ``probe`` is a state vector of dimension ``d**2`` (signal tensor idler).
    """
    probe = require_state_vector(probe)
    d = s.env.dim
    if probe.size != d * d:
        raise ValueError(
            f"bipartite probe has dimension {probe.size}, expected {d * d} "
            f"(= environment dimension {d} squared)"
        )
    return omega_q_density(s, projector(probe))


def environment_from_dict(data: dict) -> EnvironmentState:
    """Build an environment from JSON fields ``spectrum`` and optional ``basis``.

    The basis is a row-major complex matrix given as rows of ``[re, im]``
    pairs. The spectrum is sorted descending on load; a non-orthonormal
    basis is rejected.
    """
    try:
        spectrum = [float(x) for x in data["spectrum"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"missing or malformed spectrum: {exc}") from exc

    basis = None
    if data.get("basis") is not None:
        try:
            raw = np.asarray(data["basis"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed basis: {exc}") from exc
        d = len(spectrum)
        if raw.shape != (d, d, 2):
            raise ValueError(
                f"basis must be a {d}x{d} matrix of [re, im] pairs, got shape {raw.shape}"
            )
        basis = raw[..., 0] + 1j * raw[..., 1]

    return EnvironmentState(spectrum, basis)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from the JSON schema.

    Expected keys: ``p0`` (real), ``eta`` (real), ``spectrum`` (list of
    reals) and optionally ``basis`` as in :func:`environment_from_dict`.
    """
    if not isinstance(data, dict):
        raise ValueError("scenario input must be a JSON object")
    try:
        p0 = float(data["p0"])
        eta = float(data["eta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"scenario input missing or malformed field: {exc}") from exc

    return Scenario(p0=p0, eta=eta, env=environment_from_dict(data))
