"""First-principles verification, independent of the closed-form solver.

Everything here goes through explicit operators and eigendecompositions:
the error of an arbitrary probe state, a seeded multi-start see-saw
maximization of the trace norm over pure probes (an independent upper bound
on the minimal error), spot checks of the eigenvalue structure the closed
forms rely on, and a Monte-Carlo simulation of the optimal binary
measurement.

The search never forms the dense hypothesis difference. For a pure probe,
``omega = p1 eta psi psi^dagger + gamma B`` is a diagonal matrix plus a
rank-one term in the eigenframe of the absent state ``B`` (the environment
basis, times the idler marginal's eigenbasis in quantum mode), so its trace
norm follows from the top root of a secular equation (the rank-one
eigenvalue update of Bunch, Nielsen and Sorensen) and its see-saw target
from d x d eigendecompositions: O(d^3) per probe where a dense
``eigvalsh`` of the d^2 x d^2 quantum ``omega`` costs O(d^6). The dense
``perr_of_state`` rechecks every search result.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .analytic import optimal_probe_conventional, optimal_probe_quantum, report
from .linalg import (
    eig,
    haar_random_state,
    projector,
    require_density_matrix,
    require_state_vector,
    trace_norm,
)
from .model import (
    CONVENTIONAL,
    QUANTUM,
    EnvironmentState,
    Scenario,
    absent_state,
    omega,
    require_mode,
)
from .tolerances import (
    DENSITY_EIG_TOL,
    LEMMA_MARGIN_TOL,
    MIXTURE_WEIGHT_TOL,
    POSITIVE_PART_TOL,
    SEARCH_CONVERGED_GAIN,
    ZERO_EIGENVALUE_TOL,
)

# Quantum-probe searches run on d^2-dimensional probes; beyond d = 16 only
# the analytic formulas are offered.
MAX_QUANTUM_SEARCH_DIM = 16

# Cap on the secular-equation steps of one root; they converge quadratically
# from the first step, and a handful suffice.
SECULAR_MAX_STEPS = 30

# Step lengths tried along each see-saw move, in order; a longer one is
# tried only while the previous one still improved the trace norm.
EXTRAPOLATION_STEPS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for the see-saw trace-norm maximization."""

    restarts: int = 32
    steps_per_restart: int = 2000
    seed: int = 0
    tolerance: float = 1e-6

    def __post_init__(self):
        for name, least in (("restarts", 1), ("steps_per_restart", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0.0:
            raise ValueError(f"tolerance must be a positive number, got {tol!r}")


@dataclass
class OracleResult:
    """Outcome of a trace-norm maximization."""

    best_value: float
    best_state: np.ndarray
    perr: float
    evaluations: int
    iterations: list[int]  # see-saw iterations run by each restart
    budget_stops: int  # restarts stopped by the iteration cap instead of converging


@dataclass
class MeasurementStats:
    """Tally of a simulated measurement run."""

    trials: int
    errors: int
    empirical_perr: float
    std_error: float


def perr_of_state(s: Scenario, probe, mode: str) -> float:
    """Detection error of a specific pure probe, straight from the trace norm."""
    probe = require_state_vector(probe)
    return (1.0 - trace_norm(omega(s, projector(probe), mode))) / 2.0


def _top_root(poles: np.ndarray, weights: np.ndarray, c: float):
    """Largest root ``mu`` of ``1 = c sum_j weights_j / (mu - poles_j)`` for each row.

    This is the top eigenvalue of ``diag(poles) + c u u^dagger`` with
    ``weights = |u|^2`` and ``c > 0``; entries of zero weight are deflated
    (eigenpairs of the diagonal alone) and do not enter. In the shift
    ``tau = mu - top`` from the top weighted pole the root is at least
    ``c w_top``. Each step solves, as a quadratic, the model that keeps the
    top pole exact and matches the other poles' sum and slope with one pole
    at the nearest of them (the fixed-weight step of LAPACK's ``dlaed4``).
    That model never lies below the secular sum, so from a point right of
    the root its root is again right of it: starting at the model that
    puts all other weight on the nearest pole, ``tau`` falls monotonically
    and quadratically onto the root. A row stops once its residual is
    within rounding of zero or ``tau`` stops falling, and after
    ``SECULAR_MAX_STEPS`` steps at most.

    Returns ``mu`` and the shifted denominators ``mu - poles`` (valid on the
    weighted entries).
    """
    weighted = weights > 0.0
    top = np.max(np.where(weighted, poles, -np.inf), axis=1)
    gaps = top[:, None] - poles
    w_top = np.where(gaps == 0.0, weights, 0.0).sum(axis=1)  # zero weights add nothing
    rest = weighted & (gaps > 0.0)
    w_rest = np.where(rest, weights, 0.0)
    g_rest = np.where(rest, gaps, np.inf)  # an infinite gap carries no weight
    near = np.min(g_rest, axis=1)
    near = np.where(near < np.inf, near, 1.0)  # no other pole: any gap will do
    low, q, inv_c = c * w_top, w_top * near, 1.0 / c

    def model_root(k, b):
        # positive root of k x^2 + b x - q, free of cancellation
        t = np.abs(b) + np.sqrt(b * b + 4.0 * k * q)
        return np.where(b < 0.0, t / (k + k), (q + q) / t)

    # start from the model with all other weight at the nearest pole: an upper bound
    tau = model_root(inv_c, inv_c * near - w_rest.sum(axis=1) - w_top)
    active = np.ones(tau.shape, dtype=bool)
    for _ in range(SECULAR_MAX_STEPS):
        denom = tau[:, None] + g_rest
        terms = w_rest / denom
        psi = terms.sum(axis=1)
        phi = w_top / tau
        active &= np.abs(inv_c - phi - psi) > 8.0 * np.finfo(float).eps * (inv_c + phi + psi)
        if not active.any():
            break
        far = tau + near
        tilt = far * (terms / denom).sum(axis=1)
        k = np.maximum(inv_c - psi + tilt, phi)
        step = np.minimum(np.maximum(model_root(k, k * near - far * tilt - w_top), low), tau)
        active &= step < tau
        tau = np.where(active, step, tau)
    return top + tau, tau[:, None] + gaps


def _quantum_target(s: Scenario, kernel, mu, z, w):
    """Top eigenvector of the quantum see-saw form, in the eigenframe of ``B``.

    ``kernel`` marks the idler levels of zero weight; ``mu``, ``z`` (not
    normalized) and ``w = |u|^2`` come from the eigenpair step of
    :func:`_see_saw_maps`, with ``u`` zeroed on the kernel (rows
    ``theta_i``, columns ``v_k``). ``sign(omega)`` is exactly 0 on ``C^d
    (x) ker rho_B`` and on the rows of zero environment eigenvalue, bar the
    direction ``uhat`` along which ``u`` meets those rows. So up to a
    constant the form is ``D + 2c z z^dagger - c uhat uhat^dagger``, with
    ``D = I (x) G`` on the other rows, ``G = 2 gamma M_z + (c + gamma)
    P_ker``, ``M_z = z^T diag(lambda) z*``, and ``I (x) (G + c (I -
    P_ker))`` on the zero rows. In the eigenbasis of each block's ``G``,
    ``z`` and ``uhat`` meet one row direction per idler level, and with two
    or more zero rows a second, orthogonal one is an eigenvector on its
    own; the form is diagonalized on those directions (``d`` of them per
    direction kind). Returns the target coordinates and the probes whose
    form is flat at ``psi``'s level, which keep their state.
    """
    lam, c, gamma = s.env.spectrum, s.p1 * s.eta, s.gamma
    d = lam.size
    eye = np.eye(d)
    zero = lam <= ZERO_EIGENVALUE_TOL
    coupled = c * w[:, zero].sum(axis=(1, 2)) > POSITIVE_PART_TOL
    z[:, zero] *= coupled[:, None, None]
    pos = mu > POSITIVE_PART_TOL
    z *= (pos / np.linalg.norm(z, axis=(1, 2)))[:, None, None]

    g = 2.0 * gamma * np.swapaxes(z, 1, 2) @ (lam[:, None] * z.conj())
    g += (c + gamma) * kernel[:, :, None] * eye
    parts = []  # (rows, levels, level basis, row direction per level, z and uhat along it)
    for rows, shift in ((~zero, 0.0), (zero, c)):
        if not rows.any():
            continue
        level, frame = np.linalg.eigh(g + shift * ~kernel[:, :, None] * eye)
        part = z[:, rows] @ frame.conj()
        size = np.linalg.norm(part, axis=1)
        dirs = part / np.where(size > 0.0, size, 1.0)[:, None]
        dirs[:, 0] += size == 0.0  # z has nothing at this level: any row will do
        along = np.linalg.norm(size, axis=1, keepdims=True)
        uhat = np.divide(size, along, out=np.zeros_like(size), where=(along > 0.0) & (shift > 0.0))
        parts.append((rows, level, frame, dirs, size, uhat))
        if shift and np.count_nonzero(rows) >= 2:
            j = np.argmin(np.abs(dirs), axis=1)[:, None, :]
            other = -dirs * np.take_along_axis(dirs, j, axis=1).conj()
            np.put_along_axis(other, j, np.take_along_axis(other, j, axis=1) + 1.0, axis=1)
            other /= np.linalg.norm(other, axis=1, keepdims=True)
            parts.append((rows, level, frame, other, np.zeros_like(size), np.zeros_like(size)))

    zeta = np.concatenate([p[4] for p in parts], axis=1)
    eta = np.concatenate([p[5] for p in parts], axis=1)
    h = np.concatenate([p[1] for p in parts], axis=1)[:, :, None] * np.eye(zeta.shape[1])
    h += 2.0 * c * zeta[:, :, None] * zeta[:, None, :] - c * eta[:, :, None] * eta[:, None, :]
    top, vec = np.linalg.eigh(h)
    x = np.zeros_like(z)
    for i, (rows, _, frame, dirs, _, _) in enumerate(parts):
        x[:, rows] += (dirs * vec[:, None, i * d:(i + 1) * d, -1]) @ np.swapaxes(frame, 1, 2)
    return x, ~pos & (top[:, -1] <= 0.0)


def _see_saw_maps(s: Scenario, mode: str):
    """Probe dimension, batched trace norms ``||omega(psi)||_1`` and see-saw targets.

    Both work in the eigenframe of the absent state ``B`` (``omega = c psi
    psi^dagger + gamma B``, ``c = p1 eta``), where ``omega`` is ``A + c u
    u^dagger`` with ``A`` diagonal and ``u`` the probe's coordinates: the
    environment basis in conventional mode, the products ``theta_i (x)
    v_k`` of the environment basis and the eigenvectors of the idler
    marginal ``rho_B`` in quantum mode. For ``gamma < 0``, ``A <= 0`` and
    ``omega`` has at most its top eigenvalue ``mu`` (:func:`_top_root`)
    above zero, so ``||omega||_1 = 2 max(mu, 0) - tr omega``; for ``gamma >=
    0`` (or ``c`` below ``gamma``'s rounding) every probe gives ``|c +
    gamma|``.

    The target is a top eigenvector of the form ``phi -> tr(S omega(phi))``
    with ``S = sign(omega(psi))``: ``+1`` on ``omega``'s top eigenvector
    ``z ~ (mu - A)^-1 u``, exactly ``0`` on its kernel (eigenvalues within
    ``POSITIVE_PART_TOL``) and ``-1`` elsewhere. In conventional mode the
    form is ``c S``, so the target is ``z``. In quantum mode it is ``c S +
    gamma (I (x) M_S)``, ``M_S = tr_A[(rho_E (x) I) S]``; see
    :func:`_quantum_target`. Where the form is flat, the probe itself is
    the target.
    """
    d = s.env.dim
    lam = s.env.spectrum
    basis = s.env.basis
    c = s.p1 * s.eta
    gamma = s.gamma
    # omega >= 0, or its rank-one term is below the rounding of gamma B
    flat = gamma >= 0.0 or c <= np.finfo(float).eps * -gamma
    zero_rows = np.flatnonzero(lam <= ZERO_EIGENVALUE_TOL)

    def frame(states: np.ndarray):
        """``u``, the poles of ``A``, and in quantum mode the idler spectra and bases."""
        if mode == CONVENTIONAL:
            return states @ basis.conj().T, np.broadcast_to(gamma * lam, states.shape), None, None
        x = states.reshape(-1, d, d)
        m, v = np.linalg.eigh(np.swapaxes(x, 1, 2) @ x.conj())  # rho_B = X^T X*
        m = np.maximum(m, 0.0)
        u = basis.conj() @ x @ v.conj()
        poles = gamma * lam[:, None] * m[:, None, :]
        return u.reshape(len(states), -1), poles.reshape(len(states), -1), m, v

    def values(states: np.ndarray) -> np.ndarray:
        if flat:
            return np.full(len(states), abs(c + gamma))
        u, poles, _, _ = frame(states)
        mu = _top_root(poles, np.abs(u) ** 2, c)[0]
        return 2.0 * np.maximum(mu, 0.0) - (c + gamma)

    def targets(states: np.ndarray) -> np.ndarray:
        if flat:
            return states
        u, poles, m, v = frame(states)
        if mode == QUANTUM:
            # u is rounding noise on the idler kernel, where sign(omega) is exactly 0
            kernel = m <= POSITIVE_PART_TOL
            u = np.where(kernel[:, None, :], 0.0, u.reshape(-1, d, d)).reshape(u.shape)
        w = np.abs(u) ** 2
        mu, denom = _top_root(poles, w, c)
        z = np.divide(u, denom, out=np.zeros_like(u), where=w > 0.0)
        if mode == QUANTUM:
            x, keep = _quantum_target(s, kernel, mu, z.reshape(-1, d, d), w.reshape(-1, d, d))
            x = (basis.T @ x @ np.swapaxes(v, 1, 2)).reshape(len(states), -1)
            return np.where(keep[:, None], states, x)
        z = (z / np.linalg.norm(z, axis=1, keepdims=True)) @ basis
        # no positive eigenvalue: c S is 0 on the rows of zero environment
        # eigenvalue, and -c everywhere if there are none
        rest = basis[zero_rows[0]] if zero_rows.size else states
        return np.where((mu > POSITIVE_PART_TOL)[:, None], z, rest)

    return (d if mode == CONVENTIONAL else d * d), values, targets


def maximize_trace_norm(
    s: Scenario,
    mode: str,
    cfg: SearchConfig,
    initial_state=None,
) -> OracleResult:
    """Maximize the hypothesis-difference trace norm over pure probe states.

    A batched see-saw over the restarts, resting on ``||w||_1 = max tr(S w)``
    over ``-I <= S <= I``: each iteration of a restart at ``psi`` takes
    ``psi'``, the top eigenvector of ``psi -> tr(S omega(psi))`` with
    ``S = sign(omega(psi))`` (0 on its kernel), and aligns its phase to
    ``psi``. Trace norms and targets come from the structured maps of
    :func:`_see_saw_maps`, which use ``omega``'s definition and exact
    linear algebra only: the top root of a secular equation in the
    eigenframe of the absent state, and eigendecompositions no larger than
    d x d (2d or 3d on the rows of zero environment eigenvalues), never the
    dense n x n ``omega`` and never a closed-form quantity. The move
    ``m = (psi' - psi) + beta m_prev`` adds the previous move with a
    Polak-Ribiere weight (``beta >= 0``, a nonlinear conjugate-gradient
    acceleration of the see-saw, which alone crawls on ill-conditioned
    spectra). The search tries ``normalize(psi + t m)`` for ``t`` in
    ``EXTRAPOLATION_STEPS`` and moves to the best only on strict
    improvement, so every restart is monotone. A restart has converged once
    a plain see-saw move (``beta = 0``; a stalled momentum move is retried
    as one) gains at most ``SEARCH_CONVERGED_GAIN``; otherwise it stops
    after ``cfg.steps_per_restart`` iterations (a budget stop).
    ``evaluations`` counts every trace norm computed.

    Restart ``r`` draws its Haar-random start from ``default_rng([cfg.seed,
    r])``, so results are reproducible bit-for-bit given the config. If
    ``initial_state`` is given, restart 0 starts there instead. The returned
    ``perr`` is an upper bound on the true minimal error; ties between
    restarts resolve to the lowest restart index.
    """
    require_mode(mode)
    if mode == QUANTUM and s.env.dim > MAX_QUANTUM_SEARCH_DIM:
        raise ValueError(
            f"quantum search supports environment dimension <= {MAX_QUANTUM_SEARCH_DIM}, "
            f"got {s.env.dim}"
        )
    dim, values_of, targets = _see_saw_maps(s, mode)

    states = np.empty((cfg.restarts, dim), dtype=np.complex128)
    for r in range(cfg.restarts):
        if r == 0 and initial_state is not None:
            start = require_state_vector(initial_state)
            if start.size != dim:
                raise ValueError(f"initial state has dimension {start.size}, expected {dim}")
            states[r] = start
        else:
            states[r] = haar_random_state(dim, np.random.default_rng([cfg.seed, r]))
    values = values_of(states)
    evaluations = cfg.restarts
    iterations = np.zeros(cfg.restarts, dtype=int)
    active = np.ones(cfg.restarts, dtype=bool)
    residuals = np.zeros_like(states)  # last see-saw step psi' - psi; zero restarts the momentum
    moves = np.zeros_like(states)

    for _ in range(cfg.steps_per_restart):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        psi = states[idx]
        target = targets(psi)
        overlap = np.einsum("ni,ni->n", target.conj(), psi)
        residual = target * np.exp(1j * np.angle(overlap))[:, None] - psi
        previous = residuals[idx]
        beta = np.einsum("ni,ni->n", residual.conj(), residual - previous).real
        scale = np.einsum("ni,ni->n", previous.conj(), previous).real
        beta = np.divide(np.maximum(beta, 0.0), scale, out=np.zeros_like(beta), where=scale > 0.0)
        move = residual + beta[:, None] * moves[idx]

        best_states = psi.copy()
        best_values = values[idx]
        live = np.arange(idx.size)
        for t in EXTRAPOLATION_STEPS:
            trial = psi[live] + t * move[live]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            trial_values = values_of(trial)
            evaluations += live.size
            improved = trial_values > best_values[live]
            live = live[improved]
            best_states[live] = trial[improved]
            best_values[live] = trial_values[improved]
            if live.size == 0:
                break

        stalled = best_values - values[idx] <= SEARCH_CONVERGED_GAIN
        active[idx[stalled & (beta == 0.0)]] = False
        residuals[idx] = np.where(stalled[:, None], 0.0, residual)
        moves[idx] = move
        states[idx] = best_states
        values[idx] = best_values

    best = int(np.argmax(values))
    best_value = float(values[best])
    return OracleResult(
        best_value=best_value,
        best_state=states[best].copy(),
        perr=(1.0 - best_value) / 2.0,
        evaluations=evaluations,
        iterations=iterations.tolist(),
        budget_stops=int(np.count_nonzero(active)),
    )


def _single_negative_margin(rho: np.ndarray, alpha: float, psi: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho - alpha * projector(psi))
    if w.size < 2:
        return np.inf  # one eigenvalue: at most one can be negative
    return float(w[1]) + DENSITY_EIG_TOL  # second-smallest must clear -tol


def check_single_negative_eigenvalue(rho, alpha: float, psi) -> bool:
    """A density matrix minus a positive rank-one term has at most one negative eigenvalue."""
    rho = require_density_matrix(rho)
    psi = require_state_vector(psi)
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs psi {psi.size}")
    return _single_negative_margin(rho, alpha, psi) >= 0.0


def _ground_level_margin(env: EnvironmentState, alpha: float, psi: np.ndarray) -> float:
    rho_ab = projector(psi)
    h = absent_state(env, rho_ab, QUANTUM) - alpha * rho_ab
    e_g = float(np.linalg.eigvalsh(h)[0])
    lam_h = env.lambda_harmonic
    if alpha > lam_h:
        return e_g - (lam_h - alpha) + DENSITY_EIG_TOL
    return e_g + DENSITY_EIG_TOL


def check_eigenvalue_lower_bound(env: EnvironmentState, alpha: float, psi) -> bool:
    """Ground level of the bipartite background minus the probe projector is bounded.

    Builds ``rho_E (x) rho_B - alpha |psi><psi|`` with ``rho_B`` the idler
    marginal of ``psi`` and checks its smallest eigenvalue, with 1e-10 slack:
    at least ``lambda_h - alpha`` when ``alpha > lambda_h``, and at least 0
    when ``alpha <= lambda_h``. (The two branches are genuinely distinct: a
    product probe has ground level exactly 0, below ``lambda_h - alpha``
    whenever ``alpha < lambda_h``.)
    """
    return _ground_level_margin(env, alpha, require_state_vector(psi)) >= 0.0


def _linearity_margin(s: Scenario, psi: np.ndarray) -> float:
    alpha = s.alpha
    e_d = float(np.linalg.eigvalsh(s.env.density() - alpha * projector(psi))[0])
    if e_d > 0.0:
        return LEMMA_MARGIN_TOL
    predicted = 0.5 * (1.0 - abs(s.gamma) * (1.0 - alpha - 2.0 * e_d))
    return LEMMA_MARGIN_TOL - abs(predicted - perr_of_state(s, psi, CONVENTIONAL))


def check_perr_linear_in_min_eigenvalue(s: Scenario, psi) -> bool:
    """The probe error is linear in the ground level of the shifted environment.

    Requires ``gamma < 0``. With ``E_d`` the smallest eigenvalue of
    ``rho_E - alpha |psi><psi|`` and ``E_d <= 0``, the error equals
    ``(1 - |gamma| (1 - alpha - 2 E_d)) / 2``; compared against
    :func:`perr_of_state` at 1e-10. States with ``E_d > 0`` are outside the
    identity's precondition and pass vacuously.
    """
    if s.alpha is None:
        raise ValueError("check requires gamma < 0")
    psi = require_state_vector(psi)
    if psi.size != s.env.dim:
        raise ValueError(f"probe has dimension {psi.size}, expected {s.env.dim}")
    return _linearity_margin(s, psi) >= 0.0


def _convexity_margin(s: Scenario, rho: np.ndarray, mode: str) -> float:
    mixed_value = trace_norm(omega(s, rho, mode))
    decomp = eig(rho)
    best_pure = max(
        (
            trace_norm(omega(s, projector(decomp.eigenvectors[:, k]), mode))
            for k, weight in enumerate(decomp.eigenvalues)
            if weight > MIXTURE_WEIGHT_TOL
        ),
        default=0.0,
    )
    return best_pure + LEMMA_MARGIN_TOL - mixed_value


def check_convexity_reduction(s: Scenario, rho, mode: str) -> bool:
    """A mixed probe never out-performs the best eigenstate in its mixture."""
    return _convexity_margin(s, require_density_matrix(rho), mode) >= 0.0


def simulate_measurement(
    s: Scenario,
    probe,
    mode: str,
    trials: int,
    seed: int,
) -> MeasurementStats:
    """Monte-Carlo run of the optimal binary measurement for a given probe.

    The "present" projector collects the eigenvectors of
    ``p1 rho_1 - p0 rho_0`` with eigenvalue above ``POSITIVE_PART_TOL``
    (knife-edge eigenvalues go to the "absent" side; at such degeneracies
    either assignment yields the same error). Each trial draws the
    hypothesis from (p0, p1) and the outcome from the Born probabilities;
    the expected error rate is :func:`perr_of_state`. Fixed seeds reproduce
    identical statistics.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rho = projector(require_state_vector(probe))
    rho0 = absent_state(s.env, rho, mode)
    rho1 = s.eta * rho + (1.0 - s.eta) * rho0  # the target-present state in either mode

    decomp = eig(omega(s, rho, mode))
    plus = decomp.eigenvectors[:, decomp.eigenvalues > POSITIVE_PART_TOL]
    proj_plus = plus @ plus.conj().T
    q_absent = float(np.clip(np.trace(proj_plus @ rho0).real, 0.0, 1.0))
    q_present = float(np.clip(np.trace(proj_plus @ rho1).real, 0.0, 1.0))

    rng = np.random.default_rng(seed)
    present = rng.random(trials) < s.p1
    u = rng.random(trials)
    says_present = np.where(present, u < q_present, u < q_absent)
    errors = int(np.count_nonzero(says_present != present))

    empirical = errors / trials
    return MeasurementStats(
        trials=trials,
        errors=errors,
        empirical_perr=empirical,
        std_error=float(np.sqrt(empirical * (1.0 - empirical) / trials)),
    )


# ---------------------------------------------------------------------------
# Verification suites (the substance behind the `verify` command).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BundledCase:
    """A named scenario/mode pair, with the closed-form error and optimal probe of its mode."""

    name: str
    scenario: Scenario
    mode: str

    def analytic_perr(self) -> float:
        r = report(self.scenario)
        return r.perr_c if self.mode == CONVENTIONAL else r.perr_q

    def optimal_probe(self) -> np.ndarray:
        build = optimal_probe_conventional if self.mode == CONVENTIONAL else optimal_probe_quantum
        return build(self.scenario)


def bundled_scenarios() -> list[BundledCase]:
    """Twenty scenarios spanning regions, spectra and both modes."""

    def case(name, p0, eta, spectrum, mode):
        return BundledCase(name, Scenario(p0, eta, EnvironmentState(spectrum)), mode)

    mixed2 = [0.5, 0.5]
    skew3 = [0.5, 0.3, 0.2]
    return [
        case("mixed2-region3-conv", 0.5, 0.6, mixed2, CONVENTIONAL),
        case("mixed2-region3-quant", 0.5, 0.6, mixed2, QUANTUM),
        case("skew3-region3-conv", 0.5, 0.6, skew3, CONVENTIONAL),
        case("skew3-region3-quant", 0.5, 0.6, skew3, QUANTUM),
        case("region1-conv", 0.3, 0.5, mixed2, CONVENTIONAL),
        case("region1-quant", 0.3, 0.5, skew3, QUANTUM),
        case("region2-conv", 0.6, 0.08, skew3, CONVENTIONAL),
        case("region2c-region3q", 0.6, 0.08, skew3, QUANTUM),
        case("zero-eig-conv", 0.4, 0.7, [0.7, 0.3, 0.0], CONVENTIONAL),
        case("zero-eig-quant", 0.4, 0.7, [0.7, 0.3, 0.0], QUANTUM),
        case("no-signal-conv", 0.45, 0.0, [0.6, 0.4], CONVENTIONAL),
        case("full-reflection-conv", 0.5, 1.0, [0.8, 0.2], CONVENTIONAL),
        case("full-reflection-quant", 0.5, 1.0, [0.8, 0.2], QUANTUM),
        case("degenerate-tail-conv", 0.5, 0.5, [0.4, 0.3, 0.3], CONVENTIONAL),
        case("degenerate-tail-quant", 0.5, 0.5, [0.4, 0.3, 0.3], QUANTUM),
        case("uniform4-conv", 0.35, 0.9, [0.25] * 4, CONVENTIONAL),
        case("eta-star-boundary-conv", 0.4, 1.0 / 3.0, mixed2, CONVENTIONAL),
        case("rare-target-region1", 0.05, 0.2, skew3, CONVENTIONAL),
        case("likely-absent-region2-quant", 0.8, 0.01, mixed2, QUANTUM),
        case("strong-reflection-quant", 0.7, 0.95, [0.6, 0.4], QUANTUM),
    ]


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix ``G G^dagger / tr(G G^dagger)``, ``G`` complex Gaussian."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_scenario(rng: np.random.Generator, dim: int, gamma_negative: bool = False) -> Scenario:
    """Random scenario with a normalized exponential spectrum and a uniform (p0, eta).

    ``p0 ~ U(0.01, 0.99)`` and ``eta ~ U(0, 1)``; with ``gamma_negative`` the
    (p0, eta) draw repeats until ``gamma < -1e-6`` (the measurement regime).
    """
    spectrum = rng.exponential(size=dim)
    env = EnvironmentState(spectrum / spectrum.sum())
    while True:
        s = Scenario(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.0, 1.0)), env)
        if not gamma_negative or s.gamma < -1e-6:
            return s


def _suite_payload(suite: str, seed: int, checks: list[dict]) -> dict:
    # key order is part of the payload: the golden digests hash it
    total = sum(c["violations"] for c in checks)
    return {"suite": suite, "seed": seed, "checks": checks, "violations": total}


def run_lemma_suite(seed: int = 0, trials: int = 10000) -> dict:
    """Random-instance checks of the eigenvalue structure behind the closed forms.

    Each check runs the margin behind its ``check_*`` function and reports
    the worst one; the tolerance is folded in, so a pass means margin >= 0.
    """
    rng = np.random.default_rng([seed, 101])
    dims = (2, 3, 4, 6)

    def single_negative(t: int) -> float:
        d = dims[t % len(dims)]
        rho = random_density(rng, d)
        psi = haar_random_state(d, rng)
        alpha = float(rng.uniform(1e-3, 2.0))
        return _single_negative_margin(rho, alpha, psi)

    def ground_level(t: int) -> float:
        d = 2 + (t % 2)
        env = EnvironmentState(np.sort(rng.dirichlet(np.ones(d)))[::-1])
        psi = haar_random_state(d * d, rng)
        if t % 2 == 0:
            alpha = float(rng.uniform(0.0, 1.0)) * env.lambda_harmonic  # below the harmonic level
        else:
            alpha = env.lambda_harmonic + float(rng.exponential(0.5))
        return _ground_level_margin(env, alpha, psi)

    def linearity(t: int) -> float:
        d = dims[t % len(dims)]
        s = random_scenario(rng, d, gamma_negative=True)
        return _linearity_margin(s, haar_random_state(d, rng))

    def convexity(t: int) -> float:
        d = 2 + (t % 3)
        s = random_scenario(rng, d)
        mode = CONVENTIONAL if t % 2 == 0 else QUANTUM
        probe_dim = d if mode == CONVENTIONAL else d * d
        return _convexity_margin(s, random_density(rng, probe_dim), mode)

    n_small = max(trials // 10, 1)
    checks = []
    for name, n, margin_of in (
        ("single_negative_eigenvalue", trials, single_negative),
        ("bipartite_ground_level_bound", n_small, ground_level),
        ("perr_linear_in_ground_level", n_small, linearity),
        ("convexity_reduction", n_small, convexity),
    ):
        violations = 0
        worst = np.inf
        for t in range(n):
            margin = margin_of(t)
            worst = min(worst, margin)
            if not margin >= 0.0:
                violations += 1
        checks.append({"name": name, "trials": n, "violations": violations, "worst_margin": worst})

    return _suite_payload("lemmas", seed, checks)


def run_oracle_suite(seed: int = 0, cfg: SearchConfig | None = None) -> dict:
    """See-saw search versus the closed forms on the bundled scenarios.

    A case passes when the search error agrees with the analytic error to
    the search tolerance (two-sided: the search must neither beat the
    claimed optimum nor fall short of reaching it). Each check also reports
    ``budget_stops``, the restarts that ended on the iteration cap.
    """
    checks = []
    for case in bundled_scenarios():
        case_cfg = cfg if cfg is not None else SearchConfig(seed=seed)
        result = maximize_trace_norm(case.scenario, case.mode, case_cfg)
        diff = abs(result.perr - case.analytic_perr())
        margin = case_cfg.tolerance - diff
        checks.append(
            {"name": case.name, "trials": result.evaluations,
             "violations": int(margin < 0.0), "worst_margin": margin,
             "budget_stops": result.budget_stops}
        )
    return _suite_payload("oracle", seed, checks)


def run_montecarlo_suite(seed: int = 0, trials: int = 100000) -> dict:
    """Simulated measurements versus the analytic errors on the bundled scenarios.

    Each case must land within four standard errors of the analytic value.
    """
    checks = []
    for i, case in enumerate(bundled_scenarios()):
        stats = simulate_measurement(
            case.scenario, case.optimal_probe(), case.mode, trials, seed=seed + i
        )
        diff = abs(stats.empirical_perr - case.analytic_perr())
        margin = 4.0 * stats.std_error - diff
        checks.append(
            {"name": case.name, "trials": trials,
             "violations": int(margin < 0.0), "worst_margin": margin}
        )
    return _suite_payload("montecarlo", seed, checks)
