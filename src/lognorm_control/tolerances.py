"""Tolerances of the dense linear algebra and of the gain spot check,
and the supported problem sizes.  The thresholds of the sampled verdicts
live beside their checks, in ``analysis`` and ``sim``.
"""

# symmetry checks
SYMMETRY_TOL = 1e-12        # relative asymmetry max|S - S^T| / max(1, ||S||_F) accepted

# dense solves
SINGULAR_PIVOT_TOL = 1e-13   # min singular value <= tol * ||M||_F flags M as singular
LYAPUNOV_RESIDUAL_TOL = 1e-9  # Frobenius residual of A^T H + H A + 2 I

# synthesis
GAIN_IDENTITY_TOL = 1e-10   # spot check of B K(t) = -A_sym(t) + diag(lam) + diag(gamma(t))

# supported problem sizes
MIN_DIM = 2
MAX_DIM = 16
