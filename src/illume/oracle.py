"""First-principles verification, independent of the closed-form solver.

Everything here goes through explicit operators and eigendecompositions:
the error of an arbitrary probe state, a seeded multi-start quasi-Newton
maximization of the trace norm over pure probes (an independent upper bound
on the minimal error), spot checks of the eigenvalue structure the closed
forms rely on, and a Monte-Carlo simulation of the optimal binary
measurement.

The search never forms the dense hypothesis difference. For a pure probe,
``omega = p1 eta psi psi^dagger + gamma B`` is a diagonal matrix plus a
rank-one term in the eigenframe of the absent state ``B`` (the environment
basis, times the idler marginal's eigenbasis; conventional mode is a probe
with a one-dimensional idler, so both modes share the frame), so its top
eigenvalue ``mu``, and with it the trace norm, follows from the top root of
a secular equation (the rank-one eigenvalue update of Bunch, Nielsen and
Sorensen). Each probe is solved once: the solve that scores it also gives
the top eigenvector, from which the gradient of ``mu`` follows by
Hellmann-Feynman. That is O(d^3) per probe where a dense ``eigvalsh`` of the
d^2 x d^2 quantum ``omega`` costs O(d^6). The search climbs ``mu`` by
Riemannian L-BFGS on the unit sphere (Absil, Mahony and Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, ch. 7-8; Nocedal and Wright,
*Numerical Optimization*, ch. 7), and a plain gradient step certifies where
it stops. The dense ``perr_of_state``, which also scores every simulated
measurement, is the independent recheck that the tests and the benchmark run
on search results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from .analytic import optimal_probe_conventional, optimal_probe_quantum, report
from .linalg import (
    haar_random_state,
    projector,
    require_density_matrix,
    require_state_vector,
    trace_norm,
)
from .model import (
    CONVENTIONAL,
    MODES,
    QUANTUM,
    EnvironmentState,
    Scenario,
    ScenarioStack,
    absent_state,
    omega,
    probe_dim,
    require_integer,
    require_mode,
)
from .tolerances import (
    ACHIEVED_ERROR_TOL,
    DENSITY_EIG_TOL,
    LEMMA_MARGIN_TOL,
    MIXTURE_WEIGHT_TOL,
    ORACLE_AGREEMENT_TOL,
    SEARCH_CONVERGED_GAIN,
)

# Quantum-probe searches run on d^2-dimensional probes; beyond d = 16 only
# the analytic formulas are offered.
MAX_QUANTUM_SEARCH_DIM = 16

# Cap on the Newton steps of one secular root; they rise monotonically and
# quadratically onto it, and in the oracle suite (seed 7) a batch of roots
# takes 3.1 steps on average and at most 11. FLOAT_EPS is their rounding unit.
SECULAR_MAX_STEPS = 30
FLOAT_EPS = float(np.finfo(float).eps)
FLOAT_TINY = float(np.nextafter(0.0, 1.0))  # the least subnormal

# Matrix bytes of one lemma-suite stack; each instance group's stack, in
# trials, follows from its own matrices (see run_lemma_suite). Memory sets
# it: it holds four quantum d = 4 convexity trials of 17 complex matrices
# 16 x 16 each, the largest trial, and larger stacks raise the process's
# peak memory.
LEMMA_STACK_BYTES = 4 * 17 * 16**2 * 16

# Secant pairs (s, y) each restart of the quasi-Newton ascent keeps, and the
# share of the first-order gain an accepted step must reach (Armijo). On the
# ill-conditioned quantum d = 5 test case the slowest restart takes 165
# iterations with 8 pairs and 147 with 10 (138 with 12, 109 with 16); 12 or 16
# pairs ran no faster on the benchmark searches when last timed.
LBFGS_MEMORY = 10
ARMIJO_FRACTION = 1e-4

# Probe-vector bytes of one chunk of (cell, restart) rows in a batched search.
# Each row also keeps 2 LBFGS_MEMORY secant vectors, which count against it:
# a full chunk peaks at 59-62 times that (7.3-7.8 MiB at d = 2, 4, 8), and
# twice as many rows ran at most 10% faster.
SEARCH_BLOCK_BYTES = 1 << 17

MAX_TRIALS = 2**63 - 1  # most trials of a simulation: numpy's binomial takes an int64 count

RESTARTS = 32  # Haar-random starts of every search: the budget the oracle suite validates
STEPS_PER_RESTART = 2000  # iterations of a start before it is a budget stop


@dataclass(frozen=True)
class SearchConfig:
    """Seeding of the trace-norm maximization."""

    seed: int = 0
    tolerance: ClassVar[float] = ORACLE_AGREEMENT_TOL  # not a field: the oracle suite's pass margin

    def __post_init__(self):
        require_integer("seed", self.seed, 0)


@dataclass
class OracleResult:
    """Outcome of a trace-norm maximization."""

    best_value: float
    best_state: np.ndarray
    perr: float
    evaluations: int
    iterations: list[int]  # iterations run by each restart
    stops: list[str]  # why each restart stopped: "converged", or "budget" on the iteration cap
    grad_norms: list[float]  # each restart's final Riemannian gradient norm of mu

    @property
    def budget_stops(self) -> int:
        """Restarts stopped by the iteration cap instead of converging."""
        return self.stops.count("budget")


@dataclass
class MeasurementStats:
    """Tally of a simulated measurement run."""

    trials: int
    errors: int
    empirical_perr: float
    std_error: float
    p_err: float  # one shot's error, the probability the count is drawn at


def _require_probe_size(size: int, d: int, mode: str) -> None:
    """One size rule for every probe: ``d`` entries (conventional) or ``d**2`` (quantum)."""
    n = probe_dim(d, mode)
    if size != n:
        raise ValueError(f"probe has dimension {size}, expected {n} "
                         f"for {mode} mode at environment dimension {d}")


def perr_of_state(s: Scenario, probe, mode: str) -> float:
    """Detection error of a specific pure probe, straight from the trace norm."""
    probe = require_state_vector(probe)
    _require_probe_size(probe.size, s.env.dim, mode)
    return (1.0 - trace_norm(omega(s, projector(probe), mode))) / 2.0


def _top_root(poles: np.ndarray, u: np.ndarray, c: np.ndarray):
    """Top eigenpair of ``diag(poles) + c u u^dagger``, ``c > 0`` per row, for each row.

    The eigenvalue ``mu`` is the largest root of ``F(mu) = 1 / c`` with
    ``F(mu) = sum_j w_j / (mu - poles_j)`` and weights ``w = |u|^2``; entries
    of zero weight are deflated (eigenpairs of the diagonal alone) and do not
    enter. Each row solves ``G(tau) = 1 / F(top + tau) = c`` by Newton's
    method in the shift ``tau`` from its top weighted pole ``top`` (Melman,
    Math. Comp. 1997). ``-F`` maps the upper half-plane into itself, so
    ``1 / F`` does too: it is a Pick function, whose poles are the zeros of
    ``F`` and lie below ``top``. So right of ``top``, ``G`` is increasing and
    concave, its tangent lies above it, and a Newton step from a point left
    of the root lands left of it again: ``tau`` rises monotonically and
    quadratically onto the root. It starts at ``c w_top``, the first Newton
    step off the top pole (or the least subnormal, where that underflows),
    left of the root, as ``F >= w_top / tau = 1 / c`` there. A row stops
    once its residual is within rounding of zero, ``tau`` stops rising or
    its slope overflows (``c^2 w_top`` below about 1e-308), and after
    ``SECULAR_MAX_STEPS`` steps at most; a root cut short is a lower bound
    on ``mu``.

    Returns ``mu`` and the unit top eigenvector ``z ~ (mu - poles)^-1 u``.
    """
    weights = np.abs(u) ** 2
    weighted = weights > 0.0
    top = poles.max(axis=1, initial=-np.inf, where=weighted)
    gaps = np.where(weighted, top[:, None] - poles, np.inf)  # an infinite gap carries no weight
    tau = np.maximum(c * np.vecdot(weights, gaps == 0.0), FLOAT_TINY)
    active = np.ones(tau.shape, dtype=bool)
    with np.errstate(over="ignore"):  # a slope that overflows stops tau, still left of the root
        for _ in range(SECULAR_MAX_STEPS):
            shifted = tau[:, None] + gaps
            terms = weights / shifted
            f = terms.sum(axis=1)
            excess = c * f - 1.0
            # |1/c - F| within rounding, times c: excess > 8 eps (excess + 2)
            active &= excess > 16.0 * FLOAT_EPS / (1.0 - 8.0 * FLOAT_EPS)
            if not np.count_nonzero(active):
                break
            rise = tau + excess * f / (terms / shifted).sum(axis=1)
            active &= rise > tau
            tau = np.where(active, rise, tau)
    # z times a power of two near tau (at least 2^-1000, so that gaps / scale
    # stays finite): exact, and its squares cannot overflow
    scale = np.ldexp(1.0, np.maximum(np.frexp(tau)[1], -1000))
    z = u / ((tau[:, None] + gaps) / scale[:, None])  # zero on the deflated entries
    return top + tau, z / np.sqrt(np.vecdot(z, z).real)[:, None]


def _mu_map(env: EnvironmentState, c: np.ndarray, gamma: np.ndarray, mode: str):
    """Batched top eigenvalues of ``omega(psi)`` and their gradients on the unit sphere.

    Row ``i`` of the stack is a searched cell of :func:`search_cells`, with
    ``c[i] = p1 eta`` and ``gamma[i] < 0``; the map takes each state's row.
    A probe is a d x k matrix ``X`` (signal rows, idler columns), ``k = d``
    in quantum mode and ``k = 1`` in conventional mode: a probe with a
    one-dimensional idler, whose marginal is 1. The map works in the
    eigenframe of the absent state ``B`` (``omega = c psi psi^dagger + gamma
    B``), where ``omega`` is ``A + c u u^dagger`` with ``A <= 0`` diagonal
    and ``u`` the probe's coordinates on the products ``theta_i (x) v_k`` of
    the environment basis and the eigenvectors of the idler marginal
    ``rho_B = X^T X*``. So ``omega`` has at most its top eigenvalue ``mu``
    (:func:`_top_root`) above zero, and ``||omega||_1 = 2 max(mu, 0) - tr
    omega`` (:func:`_trace_norms`). The map returns ``mu`` and its gradient,
    built in the frame it has just solved from the unit top eigenvector ``z
    ~ (mu - A)^-1 u`` by Hellmann-Feynman (``d mu = z^dagger d omega z``):
    ``2 c (z^dagger psi) z + 2 gamma X N``, with ``N = Z^dagger rho_E Z``
    from the d x k reshape ``Z`` of ``z``, less its component along ``psi``
    and ``i psi`` (all of the second term at ``k = 1``).
    """
    d = env.dim
    k = probe_dim(d, mode) // d  # the idler's dimension: 1 without one
    lam = env.spectrum
    basis = env.basis

    def mu_of(states: np.ndarray, rows: np.ndarray):
        n = len(states)
        x = states.reshape(n, d, k)
        m, v = np.linalg.eigh(np.swapaxes(x, 1, 2) @ x.conj())  # rho_B = X^T X*
        u = basis.conj() @ x @ v.conj()
        poles = gamma[rows, None, None] * lam[:, None] * np.maximum(m, 0.0)[:, None, :]
        mu, z = _top_root(poles.reshape(n, -1), u.reshape(n, -1), c[rows])
        # in the frame, psi is u, N = v* (z^dagger diag(lambda) z) v^T and X v* = u
        z = z.reshape(n, d, k)
        inner = np.swapaxes(z.conj(), 1, 2) @ (lam[:, None] * z)
        overlap = np.vecdot(z.reshape(n, -1), u.reshape(n, -1))
        grad = (2.0 * c[rows] * overlap)[:, None, None] * z + 2.0 * gamma[rows, None, None] * u @ inner
        grad = (basis.T @ grad @ np.swapaxes(v, 1, 2)).reshape(n, -1)
        grad -= states * np.vecdot(states, grad)[:, None]
        return mu, grad

    return mu_of


def _trace_norms(mu: np.ndarray, c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``||omega||_1 = 2 max(mu, 0) - (c + gamma)`` from the top eigenvalues ``mu``."""
    return 2.0 * np.maximum(mu, 0.0) - (c + gamma)


def _lbfgs_direction(grad: np.ndarray, pairs: np.ndarray, rho: np.ndarray,
                     scale: np.ndarray) -> np.ndarray:
    """The two-loop recursion: ``H grad`` for the inverse-Hessian model of each row's pairs.

    ``pairs[:, j]`` holds ``(s_j, y_j)``, oldest first, and ``rho[:, j] = 1
    / <s_j, y_j>``; an empty slot has ``rho = 0`` and adds nothing. The
    initial model is ``scale`` times the identity. The metric is ``Re <a,
    b>``, the dot product of the real views.
    """
    s, y = pairs[:, :, 0].view(float), pairs[:, :, 1].view(float)
    q = grad.view(float).copy()
    alpha = np.zeros(rho.shape)
    held = np.flatnonzero(rho.any(axis=0)).tolist()  # slots empty in every row add nothing
    for j in reversed(held):
        alpha[:, j] = rho[:, j] * np.vecdot(s[:, j], q)
        q -= alpha[:, j, None] * y[:, j]
    q *= scale[:, None]
    for j in held:
        q += (alpha[:, j] - rho[:, j] * np.vecdot(y[:, j], q))[:, None] * s[:, j]
    return q.view(complex)


def _search(env, c, gamma, mode: str, starts) -> Iterator[OracleResult]:
    """The ascent of :func:`maximize_trace_norm` on rows ``(c[i], gamma[i])``, one per start."""
    mu_of = _mu_map(env, c, gamma, mode)
    states = np.tile(starts, (len(c) // len(starts), 1))
    n, dim = states.shape
    mu, grads = mu_of(states, np.arange(n))
    iterations = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    plain = np.ones(n, dtype=bool)  # the row's next move is a plain gradient step
    retry = np.zeros(n, dtype=bool)  # the row retries its direction, shorter
    directions = np.zeros_like(states)
    slopes = np.zeros(n)  # first-order gain of mu along each direction
    lengths = np.ones(n)
    pairs = np.zeros((n, LBFGS_MEMORY, 2, dim), dtype=complex)  # secant pairs, oldest first
    rho = np.zeros((n, LBFGS_MEMORY))
    scale = np.ones(n)  # the initial inverse-Hessian model, a multiple of the identity

    for _ in range(STEPS_PER_RESTART):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        fresh = idx[~retry[idx]]
        directions[fresh], lengths[fresh] = grads[fresh], 1.0  # the plain move
        quasi = fresh[~plain[fresh]]
        if quasi.size:
            grad = grads[quasi]
            direction = _lbfgs_direction(grad, pairs[quasi], rho[quasi], scale[quasi])
            ascends = np.vecdot(grad.view(float), direction.view(float)) > 0.0
            flat = quasi[~ascends]  # a model that does not ascend is forgotten
            rho[flat], plain[flat] = 0.0, True
            directions[quasi[ascends]] = direction[ascends]
        slopes[fresh] = np.vecdot(grads[fresh].view(float), directions[fresh].view(float))

        psi = states[idx]
        trial = psi + lengths[idx, None] * directions[idx]
        trial /= np.sqrt(np.vecdot(trial, trial).real)[:, None]
        trial_mu, trial_grads = mu_of(trial, idx)
        gain = trial_mu - mu[idx]
        was_plain, linear = plain[idx], lengths[idx] * slopes[idx]
        # a step is taken once it gains ARMIJO_FRACTION of its first-order
        # gain; otherwise the next iteration retries it shorter, at the peak
        # of the quadratic through mu, the slope and this trial (kept within
        # [0.1, 0.5] of this length), unless its first-order gain would fall
        # to SEARCH_CONVERGED_GAIN
        won = gain >= ARMIJO_FRACTION * linear
        with np.errstate(divide="ignore", invalid="ignore"):
            lengths[idx] *= np.where(won, 1.0, np.clip(0.5 * linear / (linear - gain), 0.1, 0.5))
        retry[idx] = again = ~won & (lengths[idx] * slopes[idx] > SEARCH_CONVERGED_GAIN)
        # a restart has converged once a plain move, not retried, fails or gains no
        # more mu (the trace norm is flat where mu < 0); a quasi-Newton step that
        # stalls is followed by one
        active[idx[was_plain & ~again & (~won | (2.0 * gain <= SEARCH_CONVERGED_GAIN))]] = False
        plain[idx] = np.where(again, was_plain, ~was_plain & (~won | (gain <= SEARCH_CONVERGED_GAIN)))

        go, new = idx[won], trial[won]
        if go.size == 0:
            continue
        new_grads, old_grads, psi = trial_grads[won], grads[go], psi[won]
        mu[go], states[go], grads[go] = trial_mu[won], new, new_grads
        # the new pair, P projecting onto the tangent space at the new state: s =
        # -P(psi) (P(psi') = 0), y = P(grad) - grad'. Held pairs are not
        # transported: the model only steers; the Armijo test and the plain move decide
        s = new * np.vecdot(new, psi)[:, None] - psi
        y = old_grads - new * np.vecdot(new, old_grads)[:, None] - new_grads
        sy, yy = np.vecdot(s.view(float), y.view(float)), np.vecdot(y.view(float), y.view(float))
        # a pair enters the memory, and rescales the initial model, only with
        # curvature; without, mu is convex along the step and the initial
        # model grows 4-fold, so that the steps lengthen until mu bends
        curved = sy > 0.0
        bent = go[curved]
        pairs[bent, :-1], rho[bent, :-1] = pairs[bent, 1:], rho[bent, 1:]
        pairs[bent, -1, 0], pairs[bent, -1, 1], rho[bent, -1] = s[curved], y[curved], 1.0 / sy[curved]
        scale[go] = np.where(curved, sy / np.where(curved, yy, 1.0), 4.0 * scale[go])

    values = _trace_norms(mu, c, gamma)
    grad_norms = np.sqrt(np.vecdot(grads, grads).real)
    for first in range(0, n, len(starts)):
        rows = slice(first, first + len(starts))
        best = first + int(np.argmax(values[rows]))  # ties: the lowest restart
        value = float(values[best])
        yield OracleResult(value, states[best].copy(), (1.0 - value) / 2.0,
                           len(starts) + int(iterations[rows].sum()), iterations[rows].tolist(),
                           ["budget" if a else "converged" for a in active[rows].tolist()],
                           grad_norms[rows].tolist())


def search_cells(env: EnvironmentState, p0, eta, mode: str, cfg: SearchConfig) -> list[OracleResult]:
    """:func:`maximize_trace_norm` on each scenario ``(p0[i], eta[i], env)``, bit for bit.

    The ``RESTARTS`` Haar starts are one draw from ``default_rng(cfg.seed)``,
    made whether or not a cell is searched. A flat cell (``gamma >= 0``, or
    ``p1 eta`` below ``gamma``'s rounding) is not searched: every probe gives
    ``|p1 eta + gamma|``, and its result holds restart 0's start, no
    evaluation and no iteration, and each restart counts as converged. One
    search runs over the other cells' (cell, restart) rows, in chunks of
    whole cells whose probe vectors fit ``SEARCH_BLOCK_BYTES``.
    """
    if require_mode(mode) == QUANTUM and env.dim > MAX_QUANTUM_SEARCH_DIM:
        raise ValueError(f"quantum search supports environment dimension <= "
                         f"{MAX_QUANTUM_SEARCH_DIM}, got {env.dim}")
    cells = ScenarioStack(np.asarray(p0, float), np.asarray(eta, float), None)  # p1, gamma: no env
    c, gamma = cells.p1 * cells.eta, cells.gamma
    flat = (gamma >= 0.0) | (c <= FLOAT_EPS * -gamma)  # omega >= 0, or c u u^dagger rounds away
    rng = np.random.default_rng(cfg.seed)
    starts = haar_random_state(probe_dim(env.dim, mode), rng, (RESTARTS,))
    rows = np.repeat(np.flatnonzero(~flat), len(starts))
    block = max(1, SEARCH_BLOCK_BYTES // starts.nbytes) * len(starts)  # rows of whole cells
    found = (result for i in range(0, rows.size, block) for result in
             _search(env, c[rows[i:i + block]], gamma[rows[i:i + block]], mode, starts))
    return [OracleResult(v, starts[0].copy(), (1.0 - v) / 2.0, 0, [0] * RESTARTS,
                         ["converged"] * RESTARTS, [0.0] * RESTARTS)
            if f else next(found) for f, v in zip(flat, np.abs(c + gamma).tolist())]


def maximize_trace_norm(s: Scenario, mode: str, cfg: SearchConfig) -> OracleResult:
    """Maximize the hypothesis-difference trace norm over pure probe states.

    A batched Riemannian L-BFGS ascent over the restarts. Each restart climbs
    ``mu``, the top eigenvalue of ``omega(psi)``: the trace norm ``2 max(mu,
    0) - (p1 - p0)`` never falls when ``mu`` rises, and where ``mu < 0``
    only ``mu`` still moves. Values and gradients come from the structured
    map of :func:`_mu_map`, which uses ``omega``'s definition and exact
    linear algebra only: top roots of secular equations and d x d
    eigendecompositions, never the dense n x n ``omega`` and never a
    closed-form quantity. The gradient is projected onto the tangent space of
    the unit sphere (and off the phase direction ``i psi``), a step ``t p``
    is retracted by normalizing ``psi + t p``, and the last ``LBFGS_MEMORY``
    secant pairs ``(s, y)`` steer it as written, each projected at its own
    state and never transported. A pair without curvature does not enter the
    memory; the initial model grows instead, so the steps lengthen where
    ``mu`` is convex along them.

    The plain move is the gradient step at length 1. It is the first move of
    every restart, and the move where the quasi-Newton direction does not
    ascend (its memory is then dropped). Either move is taken once it gains
    ``ARMIJO_FRACTION`` of its first-order gain (Armijo); a failed move is
    retried shorter in the next iteration, while its first-order gain stays
    above ``SEARCH_CONVERGED_GAIN``, so every accepted move raises ``mu`` and
    every restart is monotone. The plain move is also the certificate: after
    a quasi-Newton step that gains at most ``SEARCH_CONVERGED_GAIN`` (or one
    that cannot be shortened further), a restart has converged once a plain
    move gains at most ``SEARCH_CONVERGED_GAIN / 2`` of ``mu`` (so at most
    ``SEARCH_CONVERGED_GAIN`` of trace norm, flat where ``mu < 0``) or fails
    and cannot be shortened further; otherwise it stops after
    ``STEPS_PER_RESTART`` iterations (a budget stop). Each iteration scores
    one trial state per restart, and ``evaluations`` counts every
    trace norm computed, the starts included; a flat scenario
    (:func:`search_cells`) is not searched and computes none. ``stops``
    records why each restart stopped, ``"converged"`` or ``"budget"``.

    Every search runs ``RESTARTS`` restarts, the budget the oracle suite
    validates; ``cfg`` sets only the seed. Restart ``r`` starts from row
    ``r`` of one draw, ``haar_random_state(dim, default_rng(cfg.seed),
    (RESTARTS,))``, so results are reproducible bit for bit.
    The returned ``perr`` is an upper bound on the true minimal error; ties
    between restarts resolve to the lowest restart index.
    """
    return search_cells(s.env, [s.p0], [s.eta], mode, cfg)[0]


def _per_matrix(x):
    """A number, or a per-row array shaped to scale a stack of matrices row by row."""
    return x[..., None, None] if isinstance(x, np.ndarray) else x


def _require_finite_alpha(alpha) -> None:
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")


# Each lemma margin takes one instance or a stack of them (a leading stack
# shape on every array argument) and makes one eigvalsh/eigh call for the
# whole stack. The check_* functions validate one instance and pass it
# through with the empty stack shape; the lemma suite passes stacks.

def _single_negative_margins(rho: np.ndarray, alpha, psi: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(rho - _per_matrix(alpha) * projector(psi))
    if w.shape[-1] < 2:
        return np.full(w.shape[:-1], np.inf)  # one eigenvalue: at most one can be negative
    return w[..., 1] + DENSITY_EIG_TOL  # second-smallest must clear -tol


def check_single_negative_eigenvalue(rho, alpha: float, psi) -> bool:
    """A density matrix minus a positive rank-one term has at most one negative eigenvalue."""
    rho = require_density_matrix(rho)
    _require_finite_alpha(alpha)
    psi = require_state_vector(psi)
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs psi {psi.size}")
    return bool(_single_negative_margins(rho, alpha, psi) >= 0.0)


def _ground_level_margins(env, lam_h, alpha, psi: np.ndarray) -> np.ndarray:
    rho_ab = projector(psi)
    h = absent_state(env, rho_ab, QUANTUM) - _per_matrix(alpha) * rho_ab
    e_g = np.linalg.eigvalsh(h)[..., 0]
    return e_g - np.minimum(lam_h - alpha, 0.0) + DENSITY_EIG_TOL  # the bound: min(lam_h - alpha, 0)


def check_eigenvalue_lower_bound(env: EnvironmentState, alpha: float, psi) -> bool:
    """Ground level of the bipartite background minus the probe projector is bounded.

    Builds ``rho_E (x) rho_B - alpha |psi><psi|`` with ``rho_B`` the idler
    marginal of ``psi`` and checks its smallest eigenvalue, with 1e-10 slack:
    at least ``lambda_h - alpha`` when ``alpha > lambda_h``, and at least 0
    when ``alpha <= lambda_h``. (The two branches are genuinely distinct: a
    product probe has ground level exactly 0, below ``lambda_h - alpha``
    whenever ``alpha < lambda_h``.)
    """
    _require_finite_alpha(alpha)
    psi = require_state_vector(psi)
    _require_probe_size(psi.size, env.dim, QUANTUM)
    return bool(_ground_level_margins(env, env.lambda_harmonic, alpha, psi) >= 0.0)


def _linearity_margins(s: Scenario | ScenarioStack, psi: np.ndarray) -> np.ndarray:
    alpha = s.alpha
    p = projector(psi)
    # the shifted environment and omega, diagonalized as one stack
    w = np.linalg.eigvalsh(np.stack([
        absent_state(s.env, p, CONVENTIONAL) - _per_matrix(alpha) * p,
        omega(s, p, CONVENTIONAL),
    ]))
    e_d = w[0, ..., 0]
    perr = (1.0 - np.sum(np.abs(w[1]), axis=-1)) / 2.0  # perr_of_state, row by row
    predicted = 0.5 * (1.0 - np.abs(s.gamma) * (1.0 - alpha - 2.0 * e_d))
    return np.where(e_d > 0.0, LEMMA_MARGIN_TOL, LEMMA_MARGIN_TOL - np.abs(predicted - perr))


def check_perr_linear_in_min_eigenvalue(s: Scenario, psi) -> bool:
    """The probe error is linear in the ground level of the shifted environment.

    Requires ``gamma < 0``. With ``E_d`` the smallest eigenvalue of
    ``rho_E - alpha |psi><psi|`` and ``E_d <= 0``, the error equals
    ``(1 - |gamma| (1 - alpha - 2 E_d)) / 2``; compared against the error
    ``(1 - ||omega||_1) / 2`` of :func:`perr_of_state` at 1e-10. States
    with ``E_d > 0`` are outside the identity's precondition and pass
    vacuously.
    """
    if s.alpha is None:
        raise ValueError("check requires gamma < 0")
    psi = require_state_vector(psi)
    _require_probe_size(psi.size, s.env.dim, CONVENTIONAL)
    return bool(_linearity_margins(s, psi) >= 0.0)


def _convexity_margins(s: Scenario | ScenarioStack, rho: np.ndarray, mode: str) -> np.ndarray:
    weights, vectors = np.linalg.eigh(rho)
    # axis 0: the mixture, then the projector on each of its eigenvectors
    probes = np.concatenate([rho[None], projector(np.moveaxis(vectors, -1, 0))])
    norms = np.sum(np.abs(np.linalg.eigvalsh(omega(s, probes, mode))), axis=-1)
    # trace norms are >= 0, so a 0 in place of a dropped eigenstate never wins
    kept = np.moveaxis(weights, -1, 0) > MIXTURE_WEIGHT_TOL
    best_pure = np.max(np.where(kept, norms[1:], 0.0), axis=0)
    return best_pure + LEMMA_MARGIN_TOL - norms[0]


def check_convexity_reduction(s: Scenario, rho, mode: str) -> bool:
    """A mixed probe never out-performs the best eigenstate in its mixture."""
    rho = require_density_matrix(rho)
    _require_probe_size(rho.shape[0], s.env.dim, mode)
    return bool(_convexity_margins(s, rho, mode) >= 0.0)


def simulate_measurement(
    s: Scenario,
    probe,
    mode: str,
    trials: int,
    seed: int,
) -> MeasurementStats:
    """Monte-Carlo run of the optimal binary measurement for a given probe.

    The optimal measurement is Helstrom's: it projects onto the positive part
    of ``omega = p1 rho_1 - p0 rho_0``, and one shot of it errs with the
    probe's Helstrom error ``(1 - ||omega||_1) / 2``, :func:`perr_of_state`.
    The error count of the independent trials is drawn at that probability
    from its exact law, a binomial, at a cost flat in ``trials``, and
    ``p_err`` reports that probability. Fixed seeds give identical
    statistics.
    """
    require_integer("trials", trials, 1, MAX_TRIALS)
    require_integer("seed", seed, 0)
    p_err = float(np.clip(perr_of_state(s, probe, mode), 0.0, 1.0))  # binomial rejects p < 0
    errors = int(np.random.default_rng(seed).binomial(trials, p_err))

    empirical = errors / trials
    return MeasurementStats(
        trials=trials,
        errors=errors,
        empirical_perr=empirical,
        std_error=float(np.sqrt(empirical * (1.0 - empirical) / trials)),
        p_err=p_err,
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


def random_density(rng: np.random.Generator, dim: int, shape: tuple = ()) -> np.ndarray:
    """Random full-rank density matrix ``G G^dagger / tr(G G^dagger)``, ``G`` complex Gaussian.

    With a ``shape``, a stack ``(*shape, dim, dim)`` of them, drawn with one
    call for all real parts and one for all imaginary parts.
    """
    size = (*shape, dim, dim)
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_scenario(
    rng: np.random.Generator, dim: int, gamma_negative: bool = False, shape: tuple | None = None
) -> Scenario | ScenarioStack:
    """Random scenario with a normalized exponential spectrum and a uniform (p0, eta).

    ``p0 ~ U(0.01, 0.99)`` and ``eta ~ U(0, 1)``; with ``gamma_negative`` the
    (p0, eta) draw repeats until ``gamma < -1e-6`` (the measurement regime).
    With a ``shape``, a :class:`ScenarioStack` of that stack shape in the
    computational basis, drawn with one call per array and per redraw of
    the rows still outside the regime.
    """
    stack = () if shape is None else shape
    spectra = rng.exponential(size=(*stack, dim))
    spectra = spectra / spectra.sum(axis=-1, keepdims=True)
    s = ScenarioStack(rng.uniform(0.01, 0.99, stack), rng.uniform(0.0, 1.0, stack),
                      spectra[..., None] * np.eye(dim))
    while gamma_negative and np.any(redraw := ~(s.gamma < -1e-6)):
        n = np.count_nonzero(redraw)
        s.p0[redraw] = rng.uniform(0.01, 0.99, n)
        s.eta[redraw] = rng.uniform(0.0, 1.0, n)
    if shape is None:
        return Scenario(float(s.p0), float(s.eta), EnvironmentState(spectra))
    return s


def _suite_payload(suite: str, seed: int, checks: list[dict]) -> dict:
    # key order is part of the payload: the golden digests hash it
    total = sum(c["violations"] for c in checks)
    return {"suite": suite, "seed": seed, "checks": checks, "violations": total}


def run_lemma_suite(seed: int = 0, trials: int = 10000) -> dict:
    """Random-instance checks of the eigenvalue structure behind the closed forms.

    Each check runs the margin behind its ``check_*`` function and reports
    the worst one; the tolerance is folded in, so a pass means margin >= 0.
    Trial ``t`` of a check is an instance of group ``t % len(groups)`` (a
    dimension, and a branch or a mode), so the groups share the trials
    evenly. Each group runs its trials in stacks of as many trials as its
    own complex matrices fit ``LEMMA_STACK_BYTES`` (1, 1, 2 and n + 1
    matrices n x n a trial), the last stack taking the rest; a stack is
    drawn with one rng call per array and checked at once, and only the
    running worst margin and violation count outlive it. A stack holds
    4,352 to 483 single-negative trials (d = 2 to 6), 1,088 and 214
    ground-level (d = 2, 3), 2,176 to 241 linearity (d = 2 to 6), and 1,450
    to 217 conventional and 217 to 4 quantum convexity trials (d = 2 to 4).
    """
    require_integer("seed", seed, 0)
    require_integer("trials", trials, 1)
    rng = np.random.default_rng([seed, 101])

    def single_negative(d: int, n: int) -> np.ndarray:
        rho = random_density(rng, d, (n,))
        alpha = rng.uniform(1e-3, 2.0, n)
        return _single_negative_margins(rho, alpha, haar_random_state(d, rng, (n,)))

    def ground_level(group: tuple, n: int) -> np.ndarray:
        d, below_harmonic = group
        lam = rng.dirichlet(np.ones(d), n)
        lam_h = 1.0 / np.sum(1.0 / lam, axis=1)  # Dirichlet eigenvalues are positive
        if below_harmonic:
            alpha = rng.uniform(0.0, 1.0, n) * lam_h
        else:
            alpha = lam_h + rng.exponential(0.5, n)
        env = lam[:, :, None] * np.eye(d)
        return _ground_level_margins(env, lam_h, alpha, haar_random_state(d * d, rng, (n,)))

    def linearity(d: int, n: int) -> np.ndarray:
        s = random_scenario(rng, d, gamma_negative=True, shape=(n,))
        return _linearity_margins(s, haar_random_state(d, rng, (n,)))

    def convexity(group: tuple, n: int) -> np.ndarray:
        d, mode = group
        s = random_scenario(rng, d, shape=(n,))
        return _convexity_margins(s, random_density(rng, probe_dim(d, mode), (n,)), mode)

    dims = (2, 3, 4, 6)
    n_small = max(trials // 10, 1)
    checks = []
    # per group, the complex matrices of one trial: (count, side)
    for name, n, groups, margins_of, trial_matrices in (
        ("single_negative_eigenvalue", trials, dims, single_negative, lambda d: (1, d)),
        ("bipartite_ground_level_bound", n_small,
         [(d, below) for below in (True, False) for d in (2, 3)], ground_level,
         lambda group: (1, group[0] ** 2)),
        ("perr_linear_in_ground_level", n_small, dims, linearity, lambda d: (2, d)),
        ("convexity_reduction", n_small, [(d, mode) for d in (2, 3, 4) for mode in MODES],
         convexity, lambda group: (probe_dim(*group) + 1, probe_dim(*group))),
    ):
        violations = 0
        worst = np.inf
        for i, group in enumerate(groups):
            k, side = trial_matrices(group)
            stack = max(1, LEMMA_STACK_BYTES // (k * side * side * 16))
            count = len(range(i, n, len(groups)))  # trial t is in group t % len(groups)
            for start in range(0, count, stack):
                margins = margins_of(group, min(stack, count - start))
                worst = min(worst, float(margins.min()))
                violations += int(np.count_nonzero(~(margins >= 0.0)))
        checks.append({"name": name, "trials": n, "violations": violations, "worst_margin": worst})

    return _suite_payload("lemmas", seed, checks)


def run_oracle_suite(seed: int = 0) -> dict:
    """The oracle search versus the closed forms on the bundled scenarios.

    Each case runs the default search seeded with ``seed``. It passes when
    the search error agrees with the analytic error to
    ``SearchConfig.tolerance``, 1e-9 (two-sided: the search must neither
    beat the claimed optimum nor fall short of reaching it). Each check also
    reports ``budget_stops``, the restarts that ended on the iteration cap.
    """
    cfg = SearchConfig(seed=seed)
    checks = []
    for case in bundled_scenarios():
        result = maximize_trace_norm(case.scenario, case.mode, cfg)
        diff = abs(result.perr - case.analytic_perr())
        margin = cfg.tolerance - diff
        checks.append(
            {"name": case.name, "trials": result.evaluations,
             "violations": int(margin < 0.0), "worst_margin": margin,
             "budget_stops": result.budget_stops}
        )
    return _suite_payload("oracle", seed, checks)


def run_montecarlo_suite(seed: int = 0, trials: int = 100000) -> dict:
    """Simulated measurements versus the analytic errors on the bundled scenarios.

    Each case must land within four standard errors of the analytic value,
    and the error its closed-form probe achieves, the probability its count
    is drawn at, must match the analytic value within
    ``ACHIEVED_ERROR_TOL``: each check reports that ``exact_gap``, and each
    gate it misses counts as a violation.
    """
    require_integer("seed", seed, 0)
    require_integer("trials", trials, 1, MAX_TRIALS)
    checks = []
    for i, case in enumerate(bundled_scenarios()):
        stats = simulate_measurement(
            case.scenario, case.optimal_probe(), case.mode, trials, seed=seed + i
        )
        analytic = case.analytic_perr()
        margin = 4.0 * stats.std_error - abs(stats.empirical_perr - analytic)
        gap = abs(stats.p_err - analytic)
        checks.append(
            {"name": case.name, "trials": trials,
             "violations": int(margin < 0.0) + int(gap > ACHIEVED_ERROR_TOL),
             "worst_margin": margin, "exact_gap": gap}
        )
    return _suite_payload("montecarlo", seed, checks)
