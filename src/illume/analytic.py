"""Closed-form detection limits: region classification, minimal errors, optimal probes.

The parameter space (p0, eta) splits into three regions per mode. In region
I (target likely present, weak reflection) the best strategy is to always
guess "present"; in region II (target likely absent, weak reflection) to
always guess "absent"; in region III a measurement helps and the minimal
error decreases with the reflectivity. The conventional formulas involve the
smallest environment eigenvalue, the quantum ones its harmonic counterpart,
which is where the entangled probe gains its advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EnvironmentState, Scenario
from .tolerances import BOUNDARY_TOL, ZERO_EIGENVALUE_TOL

REGION_I = "I"
REGION_II = "II"
REGION_III = "III"
REGIONS = (REGION_I, REGION_II, REGION_III)  # indexed by the region codes of solve_grid


def eta_star(p0: float, p1: float) -> float:
    """Reflectivity below which always guessing "present" is optimal (needs p0 < p1)."""
    if p1 <= 0.0:
        return float("-inf")
    return 1.0 - p0 / p1


def eta_guess_absent(p0: float, p1: float, lam: float) -> float:
    """Reflectivity below which always guessing "absent" is optimal (needs p0 > p1).

    ``lam`` is the smallest environment eigenvalue for conventional
    illumination and the harmonic quantity for quantum illumination. The
    value is not clamped; it may be negative (empty region) or exceed 1.
    """
    if p1 <= 0.0:
        return float("inf")
    ratio = p0 / p1 - 1.0
    if 1.0 - lam <= 0.0:
        if ratio == 0.0:
            return 0.0
        return float("inf") if ratio > 0.0 else float("-inf")
    return ratio * lam / (1.0 - lam)


def _solve_mode(s: Scenario, star: float, absent: float, lam: float) -> tuple[str, float]:
    # Region and minimal error in one mode: the scalar form of _grid_mode, line
    # for line. Boundary equalities (within BOUNDARY_TOL in eta) are labeled III;
    # the region-III formula is continuous there, so the reported error agrees.
    # p0 = 1 needs no case of its own: p1 = 0 puts the absent boundary at inf.
    if s.p0 <= 0.0:
        return REGION_I, s.p0
    if s.p0 < s.p1 and s.eta < star - BOUNDARY_TOL:
        return REGION_I, s.p0
    if s.p0 > s.p1 and s.eta < absent - BOUNDARY_TOL:
        return REGION_II, s.p1
    return REGION_III, s.p0 + s.gamma * (1.0 - lam)


def classify(s: Scenario) -> tuple[str, str]:
    """Region labels (conventional, quantum) for a scenario, as :func:`report` gives them.

    The degenerate priors p0 = 0 and p0 = 1 are labeled I and II by limit;
    their minimal error is 0 in both modes.
    """
    r = report(s)
    return r.region_c, r.region_q


def perr_conventional(s: Scenario) -> float:
    """Minimal one-shot error over all single-signal probe states."""
    return report(s).perr_c


def perr_quantum(s: Scenario) -> float:
    """Minimal one-shot error over all entangled signal-idler probe states.

    Never exceeds :func:`perr_conventional` for the same scenario.
    """
    return report(s).perr_q


@dataclass(frozen=True)
class GridSolution:
    """Closed-form answers on the grid ``p0[i] x eta[j]``.

    ``eta_star``, ``eta_c`` and ``eta_q`` are the raw (unclamped) region
    boundaries per ``p0``, shape ``(n,)``. ``region_c``/``region_q`` hold
    region codes (indices into :data:`REGIONS`) and ``perr_c``/``perr_q``
    the minimal errors, shape ``(n, m)``.
    """

    eta_star: np.ndarray
    eta_c: np.ndarray
    eta_q: np.ndarray
    region_c: np.ndarray
    region_q: np.ndarray
    perr_c: np.ndarray
    perr_q: np.ndarray


def _absent_boundary(ratio: np.ndarray, p1: np.ndarray, lam: float) -> np.ndarray:
    # Array form of eta_guess_absent, with the same arithmetic.
    if 1.0 - lam <= 0.0:
        edge = np.where(ratio == 0.0, 0.0, np.copysign(np.inf, ratio))
    else:
        edge = ratio * lam / (1.0 - lam)
    return np.where(p1 > 0.0, edge, np.inf)


def _grid_mode(p0, p1, eta, star, absent, lam: float):
    # Array form of _solve_mode; rows are p0, columns eta.
    code = np.select(
        [
            p0 <= 0.0,
            (p0 < p1) & (eta < star - BOUNDARY_TOL),
            (p0 > p1) & (eta < absent - BOUNDARY_TOL),
        ],
        [0, 0, 1],
        default=2,
    ).astype(np.int8)
    gamma = p1 * (1.0 - eta) - p0
    perr = np.choose(code, [p0, p1, p0 + gamma * (1.0 - lam)])
    return code, perr


def solve_grid(p0, eta, lambda_d: float, lambda_h: float) -> GridSolution:
    """Regions, minimal errors and region boundaries on a whole (p0, eta) grid at once.

    ``p0`` and ``eta`` are 1-D columns of values in [0, 1]; ``lambda_d`` and
    ``lambda_h`` are the environment's :attr:`~EnvironmentState.lambda_min`
    and :attr:`~EnvironmentState.lambda_harmonic`. Every cell equals what
    :func:`classify`, :func:`perr_conventional`, :func:`perr_quantum`,
    :func:`eta_star` and :func:`eta_guess_absent` return for it, bit for bit:
    the same limit labels at p0 in {0, 1}, III within ``BOUNDARY_TOL`` of a
    boundary, and the same floating-point operations in the same order.
    """
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    p1 = 1.0 - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        star = np.where(p1 > 0.0, 1.0 - p0 / p1, -np.inf)
        ratio = p0 / p1 - 1.0
        eta_c = _absent_boundary(ratio, p1, lambda_d)
        eta_q = _absent_boundary(ratio, p1, lambda_h)
    rows = p0[:, None], p1[:, None], eta, star[:, None]
    region_c, perr_c = _grid_mode(*rows, eta_c[:, None], lambda_d)
    region_q, perr_q = _grid_mode(*rows, eta_q[:, None], lambda_h)
    return GridSolution(
        eta_star=star, eta_c=eta_c, eta_q=eta_q,
        region_c=region_c, region_q=region_q, perr_c=perr_c, perr_q=perr_q,
    )


def optimal_probe_conventional(s: Scenario) -> np.ndarray:
    """Optimal single-signal probe: the environment eigenvector of smallest weight.

    In regions I and II any state is optimal; this one is returned uniformly.
    With a degenerate smallest eigenvalue the optimum is non-unique and the
    contract is the achieved error, not the particular vector.
    """
    return s.env.eigenvector(s.env.dim - 1)


def schmidt_squares(env: EnvironmentState) -> np.ndarray:
    """Squared Schmidt coefficients of the optimal entangled probe.

    ``lambda_h / lambda_i`` for a fully positive spectrum — inversely
    proportional to the environment weights — and the continuity limit
    (all weight on the last eigenvector) when the smallest eigenvalue is
    numerically zero.
    """
    if env.lambda_min <= ZERO_EIGENVALUE_TOL:
        out = np.zeros(env.dim)
        out[-1] = 1.0
        return out
    return env.lambda_harmonic / env.spectrum


def optimal_probe_quantum(s: Scenario) -> np.ndarray:
    """Optimal entangled probe sum_i mu_i |theta_i>|theta_i>, unit norm.

    The amplitudes are the square roots of :func:`schmidt_squares`.
    """
    basis = s.env.basis
    psi = ((basis.T * np.sqrt(schmidt_squares(s.env))) @ basis).reshape(-1)
    return psi / np.linalg.norm(psi)


@dataclass(slots=True)
class DetectionReport:
    """Analytic answer for one scenario: what the ``solve`` payload carries, no probe vectors."""

    region_c: str
    region_q: str
    perr_c: float
    perr_q: float
    advantage: float
    eta_star: float
    eta_c: float
    eta_q: float
    mu_sq: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready payload. Non-finite boundaries serialize as null."""

        def _real(x: float):
            return float(x) if math.isfinite(x) else None

        return {
            "schema": 1,
            "region_c": self.region_c,
            "region_q": self.region_q,
            "perr_c": float(self.perr_c),
            "perr_q": float(self.perr_q),
            "advantage": float(self.advantage),
            "eta_star": _real(self.eta_star),
            "eta_c": _real(self.eta_c),
            "eta_q": _real(self.eta_q),
            "mu_sq": self.mu_sq.tolist(),
        }


def report(s: Scenario) -> DetectionReport:
    """Classify, evaluate both minimal errors, boundaries and the Schmidt spectrum."""
    star = eta_star(s.p0, s.p1)
    lam_d, lam_h = s.env.lambda_min, s.env.lambda_harmonic
    eta_c = eta_guess_absent(s.p0, s.p1, lam_d)
    eta_q = eta_guess_absent(s.p0, s.p1, lam_h)
    region_c, perr_c = _solve_mode(s, star, eta_c, lam_d)
    region_q, perr_q = _solve_mode(s, star, eta_q, lam_h)
    return DetectionReport(
        region_c=region_c,
        region_q=region_q,
        perr_c=perr_c,
        perr_q=perr_q,
        advantage=perr_c - perr_q,
        eta_star=star,
        eta_c=eta_c,
        eta_q=eta_q,
        mu_sq=schmidt_squares(s.env),
    )
