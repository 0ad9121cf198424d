"""Logarithmic-norm tools for linear time-varying systems.

The package computes logarithmic norms (matrix measures) of matrices,
classifies stability of linear time-varying systems through integral
conditions on the logarithmic norm of the closed-loop matrix, synthesizes
a robust adaptive state-feedback gain that cancels the symmetric part of
the plant, and simulates the closed loop to check the resulting bounds.
"""

from .linalg import (
    INF,
    ONE,
    TWO,
    ConvergenceError,
    LinalgError,
    NotDefiniteError,
    NotHurwitzError,
    NotSymmetricError,
    SingularMatrixError,
    Weighted,
    induced_norm,
    invert,
    lognorm,
    lognorm_limit,
    lognorm_pair,
    lyapunov_solve,
    symmetric_eigen_max,
    symmetric_eigenvalues,
    vector_norm,
)
from .expr import (
    Bin,
    Call,
    EvalError,
    Expr,
    Lit,
    MatrixFunction,
    Neg,
    SourceError,
    Var,
    VectorFunction,
    collect_vars,
    eval_expr,
    format_expr,
    parse,
    parse_matrix,
    parse_vector,
)
from .system import ControllerSpec, SystemSpec, closed_loop_function, closed_loop_matrix
from .synthesis import (
    AutoGamma,
    ExplicitGamma,
    auto_gamma,
    decompose_sym_skew,
    synthesize,
    verify_c2,
    verify_c3,
)
from .analysis import (
    Evidence,
    EvidenceReport,
    QuadResult,
    check_A1,
    check_A2_A4,
    check_A3,
    classify_stability,
    cumulative_integral,
    integrate,
    integrate_mu,
)
from .sim import (
    ConvergenceReport,
    NumericalError,
    SandwichReport,
    StiffnessError,
    Trace,
    TransitionTrace,
    convergence_report,
    fundamental_matrix,
    simulate,
    verify_sandwich,
    write_trace_csv,
)
from .config import ConfigError, load_config, serialize_config
from .presets import example_config, example_system

__version__ = "0.1.0"
