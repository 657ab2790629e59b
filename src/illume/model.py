"""Domain model for one-shot illumination scenarios.

A scenario is a prior ``p0`` for target absence, a reflectivity ``eta`` and
an environment state. With the target absent the probe is lost and only the
environment returns (:func:`absent_state`: ``rho_E``, or ``rho_E (x) tr_A
rho`` when an idler is kept); with the target present a fraction ``eta`` of
the probe survives. The weighted hypothesis difference :func:`omega` carries
all the detection-error information: the minimal discrimination error is
``(1 - ||omega||_1) / 2``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import partial_trace_first
from .tolerances import (
    BOUNDARY_TOL,
    DENSITY_TRACE_TOL,
    ORTHONORMALITY_TOL,
    ZERO_EIGENVALUE_TOL,
)

CONVENTIONAL = "conventional"
QUANTUM = "quantum"
MODES = (CONVENTIONAL, QUANTUM)

# JSON numbers and numpy real scalars, by exact type: bool (a subclass of int)
# is not in the set, and a set lookup per entry keeps long spectra cheap.
_REAL_TYPES = frozenset(
    [float, int] + [np.dtype(c).type for c in np.typecodes["AllInteger"] + np.typecodes["Float"]]
)


class EnvironmentState:
    """Environment (background) state, held as spectrum plus eigenbasis.

    The spectrum is sorted descending on construction, with the basis rows
    permuted alongside; row ``i`` of ``basis`` is the eigenvector paired with
    ``spectrum[i]``. Without a given basis the computational one is built on
    first use: every analytic quantity downstream depends on the spectrum
    alone, the basis only matters when building explicit operators.

    Set on construction: ``lambda_min``, the smallest eigenvalue, and
    ``lambda_harmonic``, the inverse of the summed inverse eigenvalues (0 if
    one is numerically 0, else at most ``lambda_min``, and below it if d >= 2).
    """

    def __init__(self, spectrum, basis=None):
        spectrum = np.asarray(spectrum, dtype=float)
        if spectrum.ndim != 1:
            raise ValueError(f"spectrum must be one-dimensional, got shape {spectrum.shape}")
        if spectrum.size < 1:
            raise ValueError("spectrum must have at least one eigenvalue")
        # sorted first: the ends serve the finiteness, sign and overflow checks
        order = np.argsort(-spectrum, kind="stable")  # NaN sorts last
        ordered = spectrum[order]
        largest, smallest = float(ordered[0]), float(ordered[-1])
        if not (math.isfinite(largest) and math.isfinite(smallest)):
            raise ValueError(f"spectrum must be finite, got {spectrum.tolist()!r}")
        if smallest < -ZERO_EIGENVALUE_TOL:
            raise ValueError(f"spectrum has a negative eigenvalue: {smallest!r}")
        if largest <= 2.0:  # then the sum cannot overflow
            total = float(spectrum.sum())
        else:  # fails the check below; entries near the float limit may sum to inf
            with np.errstate(over="ignore"):
                total = float(spectrum.sum())
        if abs(total - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"spectrum must sum to 1, got {total!r}")
        if smallest <= 0.0:  # clipped, -0.0 included, then sorted again: zeros tie
            spectrum = np.clip(spectrum, 0.0, None)
            order = np.argsort(-spectrum, kind="stable")
            ordered = spectrum[order]

        self.dim = d = spectrum.size
        if basis is not None:
            basis = np.asarray(basis, dtype=np.complex128)
            if basis.shape != (d, d):
                raise ValueError(f"basis shape {basis.shape} does not match dimension {d}")
            if not np.isfinite(basis).all():
                raise ValueError("basis entries must be finite")
            with np.errstate(over="ignore", invalid="ignore"):  # huge rows fail the check below
                gram = basis @ basis.conj().T
                residual = np.max(np.abs(gram - np.eye(d)))
            if not residual <= ORTHONORMALITY_TOL:  # also rejects a Gram overflowed to NaN
                raise ValueError("basis rows are not orthonormal")
            self.basis = basis[order]

        self.spectrum = ordered
        self._order = order
        self.lambda_min = lam = float(ordered[-1])
        self.lambda_harmonic = (min(1.0 / float((1.0 / ordered).sum()), lam)
                                if lam > ZERO_EIGENVALUE_TOL else 0.0)

    @classmethod
    def completely_mixed(cls, dim: int) -> "EnvironmentState":
        """Environment I/d."""
        return cls(np.full(dim, 1.0 / dim))

    @cached_property
    def basis(self) -> np.ndarray:
        """Eigenbasis rows in spectrum order; the computational basis unless one was given."""
        return np.eye(self.dim, dtype=np.complex128)[self._order]

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

    @property
    def gamma(self) -> float:
        """``p1 (1 - eta) - p0``: the guess-dominated regime if >= 0, else the measurement regime."""
        return self.p1 * (1.0 - self.eta) - self.p0

    @property
    def alpha(self) -> float | None:
        """``eta p1 / |gamma|`` in the measurement regime (gamma < -BOUNDARY_TOL), else ``None``."""
        gamma = self.gamma
        return (self.eta * self.p1 / abs(gamma)) if gamma < -BOUNDARY_TOL else None


class ScenarioStack(NamedTuple):
    """Scenarios held row by row as arrays: the stacked form of :class:`Scenario`.

    ``p0`` and ``eta`` share one stack shape; ``env`` holds each row's
    environment density matrix, shape ``(*stack, d, d)``. :func:`omega` takes
    a stack where it takes a scenario and builds every row's hypothesis
    difference at once. Nothing is validated: the builders that draw stacks
    (``oracle.random_scenario``) produce valid rows.
    """

    p0: np.ndarray
    eta: np.ndarray
    env: np.ndarray

    # Scenario's own formulas, elementwise
    p1 = Scenario.p1
    gamma = Scenario.gamma

    @property
    def alpha(self) -> np.ndarray:
        """:attr:`Scenario.alpha` per row, NaN outside the measurement regime."""
        gamma = self.gamma
        return np.divide(self.eta * self.p1, np.abs(gamma), out=np.full(np.shape(gamma), np.nan),
                         where=gamma < -BOUNDARY_TOL)


def require_mode(mode: str) -> str:
    """Validate an illumination mode and return it."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def probe_dim(d: int, mode: str) -> int:
    """Probe dimension at environment dimension ``d``: ``d``, or ``d**2`` (signal tensor idler)."""
    return d if require_mode(mode) == CONVENTIONAL else d * d


def absent_state(env: EnvironmentState | np.ndarray, rho, mode: str) -> np.ndarray:
    """Target-absent state of a probe ``rho``: one density matrix or a stack ``(..., n, n)``.

    Conventional (``n = d``): the probe is lost and only ``rho_E`` returns.
    Quantum (``n = d**2``, signal tensor idler): the signal is lost, the
    environment returns and the idler is kept, ``rho_E (x) tr_A rho``.
    ``env`` is an :class:`EnvironmentState`, or environment density matrices
    ``(..., d, d)`` whose stack broadcasts against the probe stack (one
    environment per row, as in a :class:`ScenarioStack`).
    """
    rho_e = env.density() if isinstance(env, EnvironmentState) else np.asarray(env, np.complex128)
    d = rho_e.shape[-1]
    n = probe_dim(d, mode)
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (n, n):
        what = "probe" if mode == CONVENTIONAL else "bipartite probe"
        raise ValueError(
            f"{what} has shape {rho.shape}, expected (..., {n}, {n}) "
            f"for environment dimension {d}"
        )
    if mode == CONVENTIONAL:
        return np.broadcast_to(rho_e, rho.shape)
    idler = partial_trace_first(rho, d, d)
    return np.einsum("...ab,...cd->...acbd", rho_e, idler).reshape(rho.shape)


def omega(s: Scenario | ScenarioStack, rho, mode: str) -> np.ndarray:
    """Weighted hypothesis difference ``p1 rho_1 - p0 rho_0`` of a probe ``rho`` (or a stack).

    With the target-present state ``rho_1 = eta rho + (1 - eta) rho_0`` this
    is ``p1 eta rho + gamma rho_0``, ``rho_0`` the :func:`absent_state`. The
    minimal error of the probe is ``(1 - ||omega||_1) / 2``. ``s`` is a
    :class:`Scenario`, or a :class:`ScenarioStack` whose stack broadcasts
    against the probe stack.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    c, gamma = s.p1 * s.eta, s.gamma
    if isinstance(s, ScenarioStack):  # one scenario per row of the probe stack
        c, gamma = c[..., None, None], gamma[..., None, None]
    w = gamma * absent_state(s.env, rho, mode)
    w += c * rho  # in place: one stack-sized temporary fewer
    return w


def require_integer(name: str, value, least: int, most: int | None = None) -> None:
    """Reject ``value`` unless it is an integer in ``[least, most]``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be an integer <= {most}, got {value!r}")


def json_object(data, keys: frozenset, what: str) -> dict:
    """``data``, which must be a JSON object with no key outside ``keys``: a typo is no default."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = data.keys() - keys
    if unknown:
        raise ValueError(f"unknown {what} fields: {', '.join(sorted(map(str, unknown)))}")
    return data


def json_reals(values, what: str) -> list[float]:
    """``values`` as floats; each must be a JSON number or a numpy real, not a bool or a string."""
    if not _REAL_TYPES.issuperset(map(type, values)):
        raise ValueError(f"{what} must be numbers, got {values!r}")
    try:
        return [float(x) for x in values]
    except OverflowError as exc:
        raise ValueError(f"{what} must be numbers in the float range: {exc}") from exc


def json_complex(data, shape: tuple, what: str) -> np.ndarray:
    """``data``, nested lists of ``[re, im]`` pairs, as a complex array of ``shape``.

    A ``None`` entry in ``shape`` admits any length on that axis.
    """
    raw = np.asarray(data, dtype=object)
    want = (*shape, 2)
    if raw.ndim != len(want) or any(w not in (None, g) for g, w in zip(raw.shape, want)):
        dims = "x".join("n" if w is None else str(w) for w in shape)
        raise ValueError(f"{what} must be {dims} [re, im] pairs, got shape {raw.shape}")
    raw = np.reshape(json_reals(raw.ravel().tolist(), f"{what} entries"), raw.shape)
    return raw[..., 0] + 1j * raw[..., 1]


# keys of the JSON objects that hold an environment: its own, and a scenario's
ENVIRONMENT_KEYS = frozenset(["spectrum", "basis"])
SCENARIO_KEYS = ENVIRONMENT_KEYS | {"p0", "eta"}


def environment_from_dict(data: dict) -> EnvironmentState:
    """Build an environment from JSON fields ``spectrum`` and optional ``basis``.

    The spectrum is a list of numbers. The basis is a row-major complex
    matrix given as rows of ``[re, im]`` pairs. The spectrum is sorted
    descending on load; a non-orthonormal basis is rejected.
    """
    spectrum = data.get("spectrum")
    if not isinstance(spectrum, list):
        raise ValueError(f"missing or malformed spectrum: expected a list, got {spectrum!r}")
    spectrum = json_reals(spectrum, "spectrum entries")

    basis = None
    if data.get("basis") is not None:
        d = len(spectrum)
        basis = json_complex(data["basis"], (d, d), "basis")
    return EnvironmentState(spectrum, basis)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from the JSON schema.

    Expected keys: ``p0`` (real), ``eta`` (real), ``spectrum`` (list of
    reals) and optionally ``basis`` as in :func:`environment_from_dict`;
    any other key is rejected.
    """
    json_object(data, SCENARIO_KEYS, "scenario")
    try:
        p0, eta = json_reals([data["p0"], data["eta"]], "p0 and eta")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"scenario input missing or malformed field: {exc}") from exc

    return Scenario(p0=p0, eta=eta, env=environment_from_dict(data))
