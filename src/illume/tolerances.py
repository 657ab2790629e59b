"""Numerical policy constants, centralized so there is a single audit point.

All tolerances are absolute. Matrices handled by this package are small
(dimension of order tens) and normalized (traces and norms of order one),
so absolute tolerances are meaningful.
"""

# Construction-time checks.
HERMITICITY_TOL = 1e-10    # max entrywise |A - A^dagger| accepted as Hermitian
DENSITY_TRACE_TOL = 1e-10  # |tr(rho) - 1| accepted for density matrices
DENSITY_EIG_TOL = 1e-10    # eigenvalues of a density matrix may dip this far below 0
STATE_NORM_TOL = 1e-12     # | ||psi|| - 1 | accepted for pure states
SPECTRUM_SUM_TOL = 1e-6    # a --spectrum flag may sum this far from 1 (it is renormalized)

# Eigendecomposition quality.
ORTHONORMALITY_TOL = 1e-8  # |<v_j|v_k> - delta_jk| for eigenvector sets and bases

# Spectrum and region arithmetic.
ZERO_EIGENVALUE_TOL = 1e-12  # environment eigenvalues at or below this are exact zeros
BOUNDARY_TOL = 1e-12         # reflectivities this close to a region boundary label as III

# Lemma checks.
LEMMA_MARGIN_TOL = 1e-10    # slack of the linearity and convexity margins
MIXTURE_WEIGHT_TOL = 1e-12  # mixture weights at or below this drop out of the convexity check

# Oracle search.
SEARCH_CONVERGED_GAIN = 1e-13  # a restart stops once a plain gradient step gains no more
ORACLE_AGREEMENT_TOL = 1e-9    # |search perr - closed-form perr| the oracle suite accepts

# Monte-Carlo suite.
ACHIEVED_ERROR_TOL = 1e-12  # |error the closed-form probe achieves - closed-form perr|
