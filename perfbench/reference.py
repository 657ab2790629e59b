"""Independent vectorized reference for the README region table.

The benchmark checks every analytic answer it receives against this module
rather than against the library's own code paths. It implements the table
directly from the README, over whole arrays of scenarios at once:

| region | condition                                   | minimal error         |
|--------|---------------------------------------------|-----------------------|
| I      | p0 < p1, eta < eta* = 1 - p0/p1             | p0                    |
| II     | p0 > p1, eta < (p0/p1 - 1) lam / (1 - lam)  | p1                    |
| III    | otherwise                                   | p0 + gamma (1 - lam)  |

with ``gamma = p1 (1 - eta) - p0`` and ``lam`` the smallest environment
eigenvalue (conventional) or ``lambda_h = 1 / sum_i 1/lambda_i``
(quantum, 0 when an eigenvalue is zero). The degenerate priors p0 = 0 and
p0 = 1 are the limits I and II, and an ``eta`` within ``BOUNDARY_TOL`` of a
boundary is labelled III.
"""

from __future__ import annotations

import numpy as np

from illume.tolerances import BOUNDARY_TOL, ZERO_EIGENVALUE_TOL

REGION_NAMES = np.array(["I", "II", "III"])


def spectrum_lambdas(spectrum) -> tuple[float, float]:
    """``(lambda_d, lambda_h)`` of one spectrum; ``lambda_h`` is 0 if an eigenvalue is zero."""
    lam = np.asarray(spectrum, dtype=float)
    lam_d = float(lam.min())
    if lam_d <= ZERO_EIGENVALUE_TOL:
        return lam_d, 0.0
    return lam_d, min(1.0 / float(np.sum(1.0 / lam)), lam_d)


def boundary_etas(p0, lam):
    """Raw ``(eta*, eta_absent)`` boundaries; infinite where p1 = 0."""
    p0 = np.asarray(p0, dtype=float)
    lam = np.asarray(lam, dtype=float)
    p1 = 1.0 - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        star = np.where(p1 > 0.0, 1.0 - p0 / p1, -np.inf)
        ratio = np.where(p1 > 0.0, p0 / p1 - 1.0, np.inf)
        absent = np.where(1.0 - lam > 0.0, ratio * lam / (1.0 - lam), np.sign(ratio) * np.inf)
    absent = np.where(p1 > 0.0, absent, np.inf)
    return star, absent


def _mode(p0, eta, lam):
    p1 = 1.0 - p0
    gamma = p1 * (1.0 - eta) - p0
    star, absent = boundary_etas(p0, lam)
    code = np.select(
        [
            p0 <= 0.0,
            p0 >= 1.0,
            (p0 < p1) & (eta < star - BOUNDARY_TOL),
            (p0 > p1) & (eta < absent - BOUNDARY_TOL),
        ],
        [0, 1, 0, 1],
        default=2,
    )
    perr = np.select([code == 0, code == 1], [p0, p1], default=p0 + gamma * (1.0 - lam))
    return code, perr


def region_table(p0, eta, lam_d, lam_h) -> dict:
    """Regions and minimal errors for arrays of scenarios (arguments broadcast).

    Returns ``region_c``/``region_q`` as arrays of "I"/"II"/"III" and
    ``perr_c``, ``perr_q`` and ``advantage`` as float arrays.
    """
    p0, eta, lam_d, lam_h = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p0, eta, lam_d, lam_h))
    )
    code_c, perr_c = _mode(p0, eta, lam_d)
    code_q, perr_q = _mode(p0, eta, lam_h)
    return {
        "region_c": REGION_NAMES[code_c],
        "region_q": REGION_NAMES[code_q],
        "perr_c": perr_c,
        "perr_q": perr_q,
        "advantage": perr_c - perr_q,
    }


def trace_norm_svd(op) -> float:
    """Trace norm as the sum of singular values, independent of any eigensolver."""
    return float(np.linalg.svd(np.asarray(op), compute_uv=False).sum())


def probe_error(p0: float, eta: float, spectrum, probe, quantum: bool) -> float:
    """Error of a pure probe in the environment eigenbasis, from explicit operators.

    ``(1 - ||p1 rho_1 - p0 rho_0||_1) / 2`` with ``rho_0`` the environment
    (times the idler marginal for an entangled probe) and ``rho_1 = eta P +
    (1 - eta) rho_0`` for the probe projector ``P``.
    """
    probe = np.asarray(probe, dtype=complex)
    rho_e = np.diag(np.asarray(spectrum, dtype=float)).astype(complex)
    proj = np.outer(probe, probe.conj())
    if quantum:
        d = rho_e.shape[0]
        amp = probe.reshape(d, d)
        rho0 = np.kron(rho_e, amp.T @ amp.conj())
    else:
        rho0 = rho_e
    rho1 = eta * proj + (1.0 - eta) * rho0
    return 0.5 * (1.0 - trace_norm_svd((1.0 - p0) * rho1 - p0 * rho0))
