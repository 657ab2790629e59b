"""Exact one-shot detection limits for conventional and quantum illumination.

Closed-form minimal discrimination errors and optimal probe states for
finite-dimensional signals, together with a paper-independent numeric
oracle (trace-norm search, eigenvalue-structure checks, Monte-Carlo
measurement simulation) and a (p0, eta) sweep engine for phase-diagram
datasets.
"""

from .analytic import (
    REGION_I,
    REGION_II,
    REGION_III,
    REGIONS,
    DetectionReport,
    GridSolution,
    classify,
    eta_guess_absent,
    eta_star,
    optimal_probe_conventional,
    optimal_probe_quantum,
    perr_conventional,
    perr_quantum,
    report,
    schmidt_squares,
    solve_grid,
)
from .linalg import (
    EigenDecomposition,
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
from .model import (
    CONVENTIONAL,
    MODES,
    QUANTUM,
    EnvironmentState,
    Scenario,
    absent_state,
    environment_from_dict,
    omega,
    scenario_from_dict,
)
from .oracle import (
    BundledCase,
    MeasurementStats,
    OracleResult,
    SearchConfig,
    bundled_scenarios,
    check_convexity_reduction,
    check_eigenvalue_lower_bound,
    check_perr_linear_in_min_eigenvalue,
    check_single_negative_eigenvalue,
    maximize_trace_norm,
    perr_of_state,
    run_lemma_suite,
    run_montecarlo_suite,
    run_oracle_suite,
    simulate_measurement,
)
from .sweep import (
    BoundaryCurves,
    SweepRecord,
    SweepSpec,
    SweepTable,
    records_to_csv,
    region_boundaries,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
