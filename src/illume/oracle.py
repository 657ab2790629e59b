"""First-principles verification, independent of the closed-form solver.

Everything here goes through explicit operators and eigendecompositions:
the error of an arbitrary probe state, a seeded multi-start see-saw
maximization of the trace norm over pure probes (an independent upper bound
on the minimal error), spot checks of the eigenvalue structure the closed
forms rely on, and a Monte-Carlo simulation of the optimal binary
measurement.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .analytic import (
    optimal_probe_conventional,
    optimal_probe_quantum,
    perr_conventional,
    perr_quantum,
)
from .linalg import (
    eig,
    haar_random_state,
    partial_trace_first,
    projector,
    require_state_vector,
    tensor,
    trace_norm,
)
from .model import (
    CONVENTIONAL,
    MODES,
    QUANTUM,
    EnvironmentState,
    Scenario,
    channel_absent,
    channel_absent_bipartite,
    derived_params,
    omega_c,
    omega_q,
    omega_q_density,
)
from .tolerances import DENSITY_EIG_TOL, POSITIVE_PART_TOL, SEARCH_CONVERGED_GAIN

# Quantum-probe searches run on d^2-dimensional probes; beyond d = 8 only
# the analytic formulas are offered.
MAX_QUANTUM_SEARCH_DIM = 8

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
        if not isinstance(self.tolerance, numbers.Real) or not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be a positive number, got {self.tolerance!r}")


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


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def perr_of_state(s: Scenario, probe, mode: str) -> float:
    """Detection error of a specific pure probe, straight from the trace norm."""
    _check_mode(mode)
    probe = require_state_vector(probe)
    if mode == CONVENTIONAL:
        if probe.size != s.env.dim:
            raise ValueError(
                f"conventional probe has dimension {probe.size}, expected {s.env.dim}"
            )
        omega = omega_c(s, projector(probe))
    else:
        omega = omega_q(s, probe)
    return (1.0 - trace_norm(omega)) / 2.0


def _see_saw_maps(s: Scenario, mode: str):
    """Probe dimension, batched ``omega(psi)`` and the see-saw targets from its eigh."""
    d = s.env.dim
    rho_e = s.env.density()
    gamma = s.p1 * (1.0 - s.eta) - s.p0
    p1eta = s.p1 * s.eta

    if mode == CONVENTIONAL:
        def omegas(states: np.ndarray) -> np.ndarray:
            return p1eta * np.einsum("ni,nj->nij", states, states.conj()) + gamma * rho_e

        def targets(w: np.ndarray, v: np.ndarray) -> np.ndarray:
            return v[:, :, -1]  # the form is p1 eta S, whose top eigenvectors include omega's

        return d, omegas, targets

    def omegas(states: np.ndarray) -> np.ndarray:
        n = states.shape[0]
        mats = states.reshape(n, d, d)
        rho_b = np.einsum("nai,naj->nij", mats, mats.conj())
        background = np.einsum("ab,ncd->nacbd", rho_e, rho_b).reshape(n, d * d, d * d)
        return p1eta * np.einsum("ni,nj->nij", states, states.conj()) + gamma * background

    def targets(w: np.ndarray, v: np.ndarray) -> np.ndarray:
        # form = p1 eta S + gamma (I (x) tr_A[(rho_E (x) I) S])
        n = w.shape[0]
        sign = (v * np.sign(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        idler = np.einsum("ba,nacbd->ncd", rho_e, sign.reshape(n, d, d, d, d))
        lifted = np.einsum("ab,ncd->nacbd", np.eye(d), idler).reshape(n, d * d, d * d)
        return np.linalg.eigh(p1eta * sign + gamma * lifted)[1][:, :, -1]

    return d * d, omegas, targets


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
    ``S = sign(omega(psi))``, and aligns its phase to ``psi``. The move
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
    _check_mode(mode)
    if mode == QUANTUM and s.env.dim > MAX_QUANTUM_SEARCH_DIM:
        raise ValueError(
            f"quantum search supports environment dimension <= {MAX_QUANTUM_SEARCH_DIM}, "
            f"got {s.env.dim}"
        )
    dim, omegas, targets = _see_saw_maps(s, mode)

    def values_of(states: np.ndarray) -> np.ndarray:
        return np.abs(np.linalg.eigvalsh(omegas(states))).sum(axis=1)

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
        target = targets(*np.linalg.eigh(omegas(psi)))
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
    rho = np.asarray(rho, dtype=np.complex128)
    psi = require_state_vector(psi)
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs psi {psi.size}")
    return _single_negative_margin(rho, alpha, psi) >= 0.0


def _ground_level_margin(env: EnvironmentState, alpha: float, psi: np.ndarray) -> float:
    d = env.dim
    rho_ab = projector(psi)
    h = tensor(env.density(), partial_trace_first(rho_ab, d, d)) - alpha * rho_ab
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
    psi = require_state_vector(psi)
    if psi.size != env.dim ** 2:
        raise ValueError(f"bipartite state has dimension {psi.size}, expected {env.dim ** 2}")
    return _ground_level_margin(env, alpha, psi) >= 0.0


def _linearity_margin(s: Scenario, psi: np.ndarray) -> float:
    dp = derived_params(s)
    e_d = float(np.linalg.eigvalsh(s.env.density() - dp.alpha * projector(psi))[0])
    if e_d > 0.0:
        return 1e-10
    predicted = 0.5 * (1.0 - abs(dp.gamma) * (1.0 - dp.alpha - 2.0 * e_d))
    return 1e-10 - abs(predicted - perr_of_state(s, psi, CONVENTIONAL))


def check_perr_linear_in_min_eigenvalue(s: Scenario, psi) -> bool:
    """The probe error is linear in the ground level of the shifted environment.

    Requires ``gamma < 0``. With ``E_d`` the smallest eigenvalue of
    ``rho_E - alpha |psi><psi|`` and ``E_d <= 0``, the error equals
    ``(1 - |gamma| (1 - alpha - 2 E_d)) / 2``; compared against
    :func:`perr_of_state` at 1e-10. States with ``E_d > 0`` are outside the
    identity's precondition and pass vacuously.
    """
    if derived_params(s).alpha is None:
        raise ValueError("check requires gamma < 0")
    psi = require_state_vector(psi)
    if psi.size != s.env.dim:
        raise ValueError(f"probe has dimension {psi.size}, expected {s.env.dim}")
    return _linearity_margin(s, psi) >= 0.0


def _convexity_margin(s: Scenario, rho: np.ndarray, mode: str) -> float:
    build = omega_c if mode == CONVENTIONAL else omega_q_density
    mixed_value = trace_norm(build(s, rho))
    decomp = eig(rho)
    best_pure = max(
        (
            trace_norm(build(s, projector(decomp.eigenvectors[:, k])))
            for k, weight in enumerate(decomp.eigenvalues)
            if weight > 1e-12
        ),
        default=0.0,
    )
    return best_pure + 1e-10 - mixed_value


def check_convexity_reduction(s: Scenario, rho, mode: str) -> bool:
    """A mixed probe never out-performs the best eigenstate in its mixture."""
    _check_mode(mode)
    return _convexity_margin(s, np.asarray(rho, dtype=np.complex128), mode) >= 0.0


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
    _check_mode(mode)
    rho = projector(require_state_vector(probe))
    rho0 = (channel_absent if mode == CONVENTIONAL else channel_absent_bipartite)(s, rho)
    rho1 = s.eta * rho + (1.0 - s.eta) * rho0  # the target-present state in either mode

    decomp = eig(s.p1 * rho1 - s.p0 * rho0)
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
    """A named scenario/mode pair used by the oracle and Monte-Carlo suites."""

    name: str
    scenario: Scenario
    mode: str

    def analytic_perr(self) -> float:
        if self.mode == CONVENTIONAL:
            return perr_conventional(self.scenario)
        return perr_quantum(self.scenario)

    def optimal_probe(self) -> np.ndarray:
        if self.mode == CONVENTIONAL:
            return optimal_probe_conventional(self.scenario)
        return optimal_probe_quantum(self.scenario)


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
    spectrum /= spectrum.sum()
    while True:
        p0 = float(rng.uniform(0.01, 0.99))
        eta = float(rng.uniform(0.0, 1.0))
        gamma = (1.0 - p0) * (1.0 - eta) - p0
        if not gamma_negative or gamma < -1e-6:
            return Scenario(p0, eta, EnvironmentState(spectrum))


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

    total = sum(c["violations"] for c in checks)
    return {"suite": "lemmas", "seed": seed, "checks": checks, "violations": total}


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
    total = sum(c["violations"] for c in checks)
    return {"suite": "oracle", "seed": seed, "checks": checks, "violations": total}


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
    total = sum(c["violations"] for c in checks)
    return {"suite": "montecarlo", "seed": seed, "checks": checks, "violations": total}
