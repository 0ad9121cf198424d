"""Matrix norms, logarithmic norms and the small dense solves built on them.

The logarithmic norm (matrix measure) of a square matrix ``M`` with respect
to an induced matrix norm is

    mu[M] = lim_{h -> 0+} (||I + h M|| - 1) / h.

Unlike a norm it can be negative, which is what makes it useful as a decay
rate certificate: ``||exp(M t)|| <= exp(mu[M] t)`` for all ``t >= 0``.

Closed forms are implemented for the one, two and infinity norms and for
Euclidean norms weighted by a symmetric positive definite matrix ``H``
(``||x||_H = sqrt(x^T H x)``).  Everything here is meant for the small
systems this package targets (dimension 2..16).  Symmetric eigenvalues
come from LAPACK through ``numpy.linalg.eigvalsh``; :func:`lognorm` also
takes a stack of matrices, one per time node, so that a quadrature can
evaluate a whole refinement level in one call.  The inverse is LAPACK's
LU solve behind a singular-value check, and the Lyapunov solve a
Kronecker-product linear system.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ONE",
    "TWO",
    "INF",
    "Weighted",
    "LinalgError",
    "SingularMatrixError",
    "NotSymmetricError",
    "NotDefiniteError",
    "NotHurwitzError",
    "ConvergenceError",
    "vector_norm",
    "induced_norm",
    "lognorm",
    "lognorm_pair",
    "lognorm_limit",
    "symmetric_eigenvalues",
    "symmetric_eigen_max",
    "invert",
    "lyapunov_solve",
]

ONE = "one"
TWO = "two"
INF = "inf"

MIN_DIM, MAX_DIM = 2, 16      # supported problem sizes
SYMMETRY_TOL = 1e-12          # max|S - S^T| / max(1, ||S||_F) accepted
SINGULAR_PIVOT_TOL = 1e-13    # min singular value <= tol * ||M||_F: singular
LYAPUNOV_RESIDUAL_TOL = 1e-9  # Frobenius residual of A^T H + H A + 2 I


class LinalgError(ValueError):
    """Base class for the numerical failures raised by this module."""


class SingularMatrixError(LinalgError):
    pass


class NotSymmetricError(LinalgError):
    pass


class NotDefiniteError(LinalgError):
    pass


class NotHurwitzError(LinalgError):
    pass


class ConvergenceError(LinalgError):
    """An eigenvalue iteration failed to converge."""


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return ``M`` as a float64 square array.

    Rejects ragged or non-square shapes, entries that are not finite
    numbers and dimensions outside the supported range 2..16.
    """
    try:
        A = np.asarray(M, dtype=float)
    except (TypeError, ValueError):
        raise LinalgError(f"{name} must be a square array of numbers") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LinalgError(f"{name} must be square, got shape {A.shape}")
    return _check_entries(A, name)


def _as_matrices(M, name: str = "matrix") -> np.ndarray:
    """``M`` as one validated (n, n) matrix or a validated (m, n, n) stack."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 3:
        return as_matrix(A, name)
    if A.shape[1] != A.shape[2]:
        raise LinalgError(f"{name} stack must hold square matrices, "
                          f"got shape {A.shape}")
    return _check_entries(A, name)


def _check_entries(A: np.ndarray, name: str) -> np.ndarray:
    n = A.shape[-1]
    if not (MIN_DIM <= n <= MAX_DIM):
        raise LinalgError(f"{name} dimension {n} outside supported range "
                          f"{MIN_DIM}..{MAX_DIM}")
    if not np.isfinite(A).all():
        raise LinalgError(f"{name} has non-finite entries")
    return A


def as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a finite float64 1-d array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise LinalgError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise LinalgError(f"{name} must have length {n}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise LinalgError(f"{name} has non-finite entries")
    return v


def frobenius(M) -> float:
    A = np.asarray(M, dtype=float)
    return float(np.sqrt((A * A).sum()))


class Weighted:
    """Euclidean norm weighted by a symmetric positive definite matrix H.

    ``||x||_H = sqrt(x^T H x) = ||L x||_2`` where ``H = L^T L`` is the
    Cholesky factorization.  The induced matrix norm and logarithmic norm
    follow by the similarity ``M -> L M L^{-1}``.
    """

    def __init__(self, H):
        H = as_matrix(H, "weight matrix H")
        asym = np.abs(H - H.T).max()
        if asym > SYMMETRY_TOL * max(1.0, frobenius(H)):
            raise NotSymmetricError(
                f"weight matrix H is not symmetric (max asymmetry {asym:.3e})")
        H = 0.5 * (H + H.T)
        try:
            C = np.linalg.cholesky(H)  # H = C C^T with C lower triangular
        except np.linalg.LinAlgError:
            raise NotDefiniteError("weight matrix H is not positive definite") from None
        self.H = H
        self.L = C.T                       # upper triangular, H = L^T L
        self.L_inv = np.linalg.inv(self.L)

    @property
    def n(self) -> int:
        return self.H.shape[0]

    def __repr__(self) -> str:
        return f"Weighted(H={self.H.tolist()!r})"


def _check_kind(kind, n: int):
    if isinstance(kind, Weighted):
        if kind.n != n:
            raise LinalgError(f"weight matrix is {kind.n}x{kind.n}, "
                              f"operand has dimension {n}")
        return kind
    if kind in (ONE, TWO, INF):
        return kind
    raise LinalgError(f"unknown norm kind {kind!r}; expected 'one', 'two', "
                      "'inf' or a Weighted instance")


def vector_norm(x, kind=TWO):
    """Vector norm ``||x||`` for kind 'one', 'two', 'inf' or Weighted.  An
    (m, n) stack gives the array of its rows' norms, bit for bit."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2:
        v = as_vector(v)
    elif not np.isfinite(v).all():
        raise LinalgError("vector stack has non-finite entries")
    kind = _check_kind(kind, v.shape[-1])
    if isinstance(kind, Weighted):
        v = (kind.L @ v[..., None])[..., 0]
    r = (np.abs(v).sum(axis=-1) if kind == ONE else
         np.abs(v).max(axis=-1) if kind == INF else np.sqrt(np.vecdot(v, v)))
    return float(r) if v.ndim == 1 else r


def induced_norm(M, kind=TWO) -> float:
    """Matrix norm induced by the matching vector norm.

    'one' is the maximum absolute column sum, 'inf' the maximum absolute
    row sum, 'two' the spectral norm ``sqrt(lambda_max(M^T M))``, and a
    Weighted kind gives the spectral norm of ``L M L^{-1}``.
    """
    A = as_matrix(M)
    kind = _check_kind(kind, A.shape[0])
    if kind == ONE:
        return float(np.abs(A).sum(axis=0).max())
    if kind == INF:
        return float(np.abs(A).sum(axis=1).max())
    if isinstance(kind, Weighted):
        A = kind.L @ A @ kind.L_inv
    lam = symmetric_eigen_max(A.T @ A)
    return float(np.sqrt(max(lam, 0.0)))


def lognorm(M, kind=TWO):
    """Logarithmic norm mu[M] with respect to the chosen vector norm.

    Closed forms:

    * one:  ``max_j ( m_jj + sum_{i != j} |m_ij| )``
    * two:  ``(1/2) lambda_max(M + M^T)``
    * inf:  ``max_i ( m_ii + sum_{j != i} |m_ij| )``
    * Weighted(H): the two-norm formula applied to ``L M L^{-1}``.

    mu can be negative; ``mu[M] <= ||M||`` always holds.  An (n, n)
    matrix gives a float; an (m, n, n) stack gives the length-m array of
    the stacked matrices' log norms, equal bit for bit to calling this
    function on each matrix in turn.
    """
    return lognorm_pair(M, kind)[0]


def lognorm_pair(M, kind=TWO) -> tuple:
    """``(mu[M], mu[-M])`` from one pass over ``M``: floats for a matrix,
    length-m arrays for an (m, n, n) stack, each entry the bits of a call
    on its matrix alone.  One and inf take ``max(s + d)`` and ``max(s -
    d)`` over the same off-diagonal sums ``s``, the bits of two
    :func:`lognorm` calls; two and Weighted take ``lambda_max / 2`` and
    ``-lambda_min / 2`` of one ``eigvalsh``, the second within rounding
    of ``lognorm(-M)``."""
    A = _as_matrices(M)
    kind = _check_kind(kind, A.shape[-1])
    if kind == ONE or kind == INF:
        d = np.diagonal(A, axis1=-2, axis2=-1)
        s = np.abs(A).sum(axis=-2 if kind == ONE else -1) - np.abs(d)
        up, low = (s + d).max(axis=-1), (s - d).max(axis=-1)
    else:
        if isinstance(kind, Weighted):
            A = kind.L @ A @ kind.L_inv
        # M + M^T is exactly symmetric, so no symmetry check is needed
        lam = np.linalg.eigvalsh(A + np.swapaxes(A, -1, -2))
        up, low = 0.5 * lam[..., -1], -0.5 * lam[..., 0]
    return (float(up), float(low)) if up.ndim == 0 else (up, low)


def lognorm_limit(M, kind=TWO, h: float = 1e-7) -> float:
    """Difference-quotient approximation ``(||I + h M|| - 1) / h``.

    This is the defining limit of the logarithmic norm evaluated at a small
    positive ``h``.  It converges to ``lognorm(M, kind)`` as ``h -> 0+`` at
    first order and serves as an independent cross-check of the closed
    forms; it is never used on a hot path.
    """
    A = as_matrix(M)
    if not (h > 0.0):
        raise LinalgError("step h must be positive")
    n = A.shape[0]
    return (induced_norm(np.eye(n) + h * A, kind) - 1.0) / h


def symmetric_eigenvalues(S) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``syevd``
    through ``numpy.linalg.eigvalsh``).

    Input with relative asymmetry above 1e-12 is rejected rather than
    silently symmetrized.
    """
    S = as_matrix(S, "symmetric matrix")
    asym = np.abs(S - S.T).max()
    if asym > SYMMETRY_TOL * max(1.0, frobenius(S)):
        raise NotSymmetricError(
            f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        return np.linalg.eigvalsh(0.5 * (S + S.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from None


def symmetric_eigen_max(S) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(symmetric_eigenvalues(S)[-1])


def invert(M) -> np.ndarray:
    """Matrix inverse (LAPACK LU with partial pivoting, through
    ``numpy.linalg.inv``).

    Raises SingularMatrixError when the smallest singular value is at or
    below ``1e-13 * ||M||_F``.
    """
    A = as_matrix(M)
    s_min = np.linalg.svd(A, compute_uv=False)[-1]
    if s_min <= SINGULAR_PIVOT_TOL * frobenius(A):
        raise SingularMatrixError(
            f"matrix is singular to working precision (smallest singular "
            f"value {s_min:.3e})")
    return np.linalg.inv(A)


def lyapunov_solve(A) -> np.ndarray:
    """Solve ``A^T H + H A = -2 I`` for symmetric positive definite H.

    The equation is rewritten as the Kronecker linear system
    ``(I (x) A^T + A^T (x) I) vec(H) = vec(-2 I)`` with column-major vec,
    and solved densely; this is exact up to rounding for the dimensions
    supported here.  A unique solution exists iff A and -A share no
    eigenvalue, and H is positive definite iff A is Hurwitz.  For Hurwitz A
    the weighted logarithmic norm satisfies
    ``lognorm(A, Weighted(H)) = -1 / lambda_max(H)``.
    """
    A = as_matrix(A)
    n = A.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, A.T) + np.kron(A.T, eye)
    rhs = (-2.0 * eye).flatten(order="F")
    try:
        h = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "Lyapunov equation has no unique solution "
            "(A and -A share an eigenvalue)") from None
    H = h.reshape((n, n), order="F")
    H = 0.5 * (H + H.T)
    resid = frobenius(A.T @ H + H @ A + 2.0 * eye)
    if not np.isfinite(resid) or resid > LYAPUNOV_RESIDUAL_TOL * max(1.0, frobenius(H)):
        raise SingularMatrixError(
            f"Lyapunov equation has no unique solution (residual {resid:.3e})")
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise NotHurwitzError(
            "A is not Hurwitz: the Lyapunov solution is not positive definite"
        ) from None
    return H
