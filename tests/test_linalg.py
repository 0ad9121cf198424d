"""Norms, logarithmic norms, the small eigensolver and the Lyapunov path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lognorm_control.linalg import (
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
    as_matrix,
    as_vector,
    frobenius,
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

KINDS = (ONE, TWO, INF)

# two-dimensional cases where every closed form is hand-checkable:
# mu_1 = max_j (a_jj + sum_{i!=j} |a_ij|), mu_inf likewise over rows,
# mu_2 = half the largest eigenvalue of M + M^T
M_A = [[-11.0, 10.0], [2.0, -3.0]]
M_B = [[-11.0, 2.0], [10.0, -3.0]]
M_C = [[-1.0, 3.0], [-3.0, -2.0]]
MU2_AB = 0.5 * (-14.0 + math.sqrt(208.0))  # lam_max of [[-22,12],[12,-6]] / 2


# ---------------------------------------------------------------------------
# constructors

def test_as_matrix_rejects_non_square():
    with pytest.raises(LinalgError, match="square"):
        as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_as_matrix_rejects_non_finite():
    with pytest.raises(LinalgError, match="finite"):
        as_matrix([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(LinalgError, match="finite"):
        as_matrix([[1.0, float("inf")], [0.0, 1.0]])


def test_as_matrix_dimension_range():
    with pytest.raises(LinalgError):
        as_matrix([[1.0]])
    big = np.eye(17)
    with pytest.raises(LinalgError):
        as_matrix(big)
    assert as_matrix(np.eye(16)).shape == (16, 16)


def test_as_vector_length_check():
    with pytest.raises(LinalgError):
        as_vector([1.0, 2.0, 3.0], n=2)
    with pytest.raises(LinalgError):
        as_vector([1.0, float("nan")])


# ---------------------------------------------------------------------------
# vector norms

def test_vector_norm_345_triangle():
    x = [3.0, -4.0]
    assert vector_norm(x, ONE) == 7.0
    assert vector_norm(x, TWO) == 5.0
    assert vector_norm(x, INF) == 4.0


def test_vector_norm_zero_iff_zero(rng):
    assert vector_norm([0.0, 0.0], TWO) == 0.0
    for _ in range(20):
        x = rng.standard_normal(3)
        if np.any(x):
            for k in KINDS:
                assert vector_norm(x, k) > 0.0


def test_vector_norm_weighted_quadratic_form(rng):
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    w = Weighted(H)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert vector_norm(x, w) == pytest.approx(
            math.sqrt(x @ H @ x), rel=1e-12)


# ---------------------------------------------------------------------------
# induced norms

def test_induced_norm_identity():
    for k in KINDS:
        assert induced_norm(np.eye(2), k) == pytest.approx(1.0, abs=1e-12)


def test_induced_norm_nilpotent():
    M = [[0.0, 2.0], [0.0, 0.0]]
    assert induced_norm(M, ONE) == 2.0
    assert induced_norm(M, INF) == 2.0
    # lam_max(M^T M) = 4; cross-checked against brute-force power iteration
    assert induced_norm(M, TWO) == pytest.approx(2.0, abs=1e-12)
    assert induced_norm(M, TWO) == pytest.approx(
        oracles.two_norm_power(M), abs=1e-9)


def test_induced_two_norm_matches_lapack(rng):
    for _ in range(50):
        M = oracles.random_matrix(rng, int(rng.integers(2, 6)))
        assert induced_norm(M, TWO) == pytest.approx(
            oracles.induced_norm_ref(M, "two"), rel=1e-10, abs=1e-10)


def test_induced_norm_weighted_similarity(rng):
    # ||M||_H equals ||L M L^{-1}||_2 for H = L^T L; for H = I the two
    # coincide with the plain two-norm
    M = oracles.random_matrix(rng, 3)
    assert induced_norm(M, Weighted(np.eye(3))) == pytest.approx(
        induced_norm(M, TWO), rel=1e-12)


# ---------------------------------------------------------------------------
# symmetric eigensolver

def test_eigen_max_diagonal():
    assert symmetric_eigen_max(np.diag([-1.0, -2.0])) == pytest.approx(
        -1.0, abs=1e-14)


def test_eigen_max_2x2_closed_form():
    S = [[-11.0, 6.0], [6.0, -3.0]]
    assert symmetric_eigen_max(S) == pytest.approx(MU2_AB, abs=1e-12)
    assert symmetric_eigen_max(S) == pytest.approx(0.2111, abs=2e-3)


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues([[0.0, 1.0], [0.5, 0.0]])


def test_eigenvalues_match_bisection_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        S = oracles.random_matrix(rng, n)
        S = 0.5 * (S + S.T)
        got = np.sort(symmetric_eigenvalues(S))
        want = oracles.eigvals_bisect(S)
        assert np.max(np.abs(got - want)) < 1e-10


def test_eigenvalues_match_bisection_5x5(rng):
    S = oracles.random_matrix(rng, 5)
    S = 0.5 * (S + S.T)
    got = np.sort(symmetric_eigenvalues(S))
    assert np.max(np.abs(got - oracles.eigvals_bisect(S))) < 1e-10


# ---------------------------------------------------------------------------
# logarithmic norms

@pytest.mark.parametrize("M, mu1, mu2, muinf", [
    (M_A, 7.0, MU2_AB, -1.0),
    (M_B, -1.0, MU2_AB, 7.0),
    (M_C, 2.0, -1.0, 2.0),
])
def test_lognorm_closed_form_2x2(M, mu1, mu2, muinf):
    assert lognorm(M, ONE) == pytest.approx(mu1, abs=1e-12)
    assert lognorm(M, TWO) == pytest.approx(mu2, abs=1e-12)
    assert lognorm(M, INF) == pytest.approx(muinf, abs=1e-12)


def test_lognorm_identity_is_one():
    for k in KINDS + (Weighted(np.diag([2.0, 3.0])),):
        assert lognorm(np.eye(2), k) == pytest.approx(1.0, abs=1e-12)


def test_lognorm_matches_reference(rng):
    for _ in range(100):
        M = oracles.random_matrix(rng, int(rng.integers(2, 7)))
        for k in KINDS:
            assert lognorm(M, k) == pytest.approx(
                oracles.lognorm_ref(M, k), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 17))
def test_lognorm_stack_matches_per_matrix_bitwise(n, rng):
    G = oracles.random_matrix(rng, n)
    kinds = KINDS + (Weighted(G @ G.T + n * np.eye(n)),)
    # spread magnitudes, and a non-contiguous stack
    Ms = (oracles.random_matrix(rng, 7 * n).reshape(7, n, 7 * n)[:, :, ::7]
          * 10.0 ** rng.uniform(-3.0, 3.0, size=(7, 1, 1)))
    for k in kinds:
        got = lognorm(Ms, k)
        assert got.shape == (7,)
        assert np.array_equal(got, [lognorm(M, k) for M in Ms])
        assert isinstance(lognorm(Ms[0], k), float)


def _ulps(a, b):
    return np.abs(np.asarray(a) - b) / np.spacing(np.abs(np.asarray(b)))


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_lognorm_pair_matches_two_calls(n, rng):
    # one and inf share every operation with the two calls, so their bits;
    # two and Weighted read -lambda_min(M + M^T) / 2 off the same
    # eigvalsh, against lambda_max(-M - M^T) / 2 from a call of its own
    G = oracles.random_matrix(rng, n)
    W = Weighted(G @ G.T + n * np.eye(n))
    for _ in range(200):
        M = (oracles.random_matrix(rng, n)
             * 10.0 ** rng.uniform(-3.0, 3.0))
        for k in (ONE, INF):
            assert lognorm_pair(M, k) == (lognorm(M, k), lognorm(-M, k))
        for k in (TWO, W):
            up, low = lognorm_pair(M, k)
            assert isinstance(up, float) and isinstance(low, float)
            assert up == lognorm(M, k)
            assert _ulps(low, lognorm(-M, k)) <= 2.0


@pytest.mark.parametrize("n", [2, 5, 16])
def test_lognorm_pair_stack_matches_per_matrix_bitwise(n, rng):
    G = oracles.random_matrix(rng, n)
    kinds = KINDS + (Weighted(G @ G.T + n * np.eye(n)),)
    Ms = (oracles.random_matrix(rng, 7 * n).reshape(7, n, 7 * n)[:, :, ::7]
          * 10.0 ** rng.uniform(-3.0, 3.0, size=(7, 1, 1)))
    for k in kinds:
        up, low = lognorm_pair(Ms, k)
        assert up.shape == low.shape == (7,)
        assert np.array_equal(np.stack((up, low)),
                              np.transpose([lognorm_pair(M, k) for M in Ms]))
        assert np.array_equal(up, lognorm(Ms, k))
    assert np.shape(lognorm_pair(np.zeros((0, 3, 3)), TWO)) == (2, 0)
    with pytest.raises(LinalgError, match="non-finite"):
        lognorm_pair(np.full((2, 2), np.nan), ONE)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_vector_norm_stack_matches_per_row_bitwise(n, rng):
    G = oracles.random_matrix(rng, n)
    kinds = KINDS + (Weighted(G @ G.T + n * np.eye(n)),)
    X = (rng.standard_normal((50, n))
         * 10.0 ** rng.uniform(-5.0, 5.0, size=(50, 1)))
    for k in kinds:
        got = vector_norm(X, k)
        assert got.shape == (50,)
        assert got.tobytes() == np.array([vector_norm(x, k)
                                          for x in X]).tobytes()
        assert isinstance(vector_norm(X[0], k), float)
    X[3, 1] = np.inf
    with pytest.raises(LinalgError, match="non-finite"):
        vector_norm(X)
    with pytest.raises(LinalgError, match="1-dimensional"):
        vector_norm(np.zeros((2, 2, 2)))


def test_lognorm_stack_validation():
    assert lognorm(np.zeros((0, 3, 3)), TWO).shape == (0,)
    with pytest.raises(LinalgError, match="square"):
        lognorm(np.zeros((4, 2, 3)), TWO)
    with pytest.raises(LinalgError, match="range"):
        lognorm(np.zeros((4, 1, 1)), TWO)
    bad = np.zeros((4, 2, 2))
    bad[2, 1, 0] = np.nan
    with pytest.raises(LinalgError, match="non-finite"):
        lognorm(bad, ONE)
    with pytest.raises(LinalgError, match="weight matrix is 3x3"):
        lognorm(np.zeros((4, 2, 2)), Weighted(np.eye(3)))


def test_eigensolver_failure_is_convergence_error(monkeypatch):
    def fail(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        symmetric_eigenvalues(np.eye(2))


def test_lognorm_limit_zero_matrix():
    assert lognorm_limit(np.zeros((2, 2)), TWO, 1e-6) == pytest.approx(
        0.0, abs=1e-9)


def test_lognorm_limit_approaches_closed_form():
    assert lognorm_limit(M_C, TWO, 1e-7) == pytest.approx(-1.0, abs=1e-5)
    assert lognorm_limit(M_A, ONE, 1e-7) == pytest.approx(7.0, abs=1e-5)


def test_lognorm_limit_converges_monotonically(rng):
    # |quotient(h) - mu| shrinks as h does, up to rounding noise; the
    # quotient itself carries about one ulp of the norm divided by h
    eps = float(np.finfo(float).eps)
    for _ in range(30):
        M = oracles.random_matrix(rng, 3)
        for k in KINDS:
            mu = lognorm(M, k)
            errs = [abs(lognorm_limit(M, k, h) - mu)
                    for h in (1e-3, 1e-5, 1e-7)]
            assert errs[1] <= errs[0] + 1e-9 + eps / 1e-5
            assert errs[2] <= errs[1] + 1e-9 + eps / 1e-7


def test_lognorm_weighted_via_cholesky_similarity(rng):
    # mu_H[M] = mu_2[L M L^{-1}] with H = L^T L; cross-checked against
    # the limit definition in the H-norm, evaluated through LAPACK
    for _ in range(10):
        M = oracles.random_matrix(rng, 3)
        G = oracles.random_matrix(rng, 3)
        H = G @ G.T + 3.0 * np.eye(3)
        L = np.linalg.cholesky(H).T
        sim = L @ M @ np.linalg.inv(L)
        assert lognorm(M, Weighted(H)) == pytest.approx(
            oracles.lognorm_ref(sim, "two"), rel=1e-9, abs=1e-9)


# hypothesis fuzzing of the lemma properties (the acceptance suite reruns
# these with counted rng cases)

finite_entry = st.floats(min_value=-50.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


def _mat(n):
    return st.lists(st.lists(finite_entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(np.array)


@settings(max_examples=60)
@given(M=_mat(3), k=st.sampled_from(KINDS))
def test_p1_sandwich_property(M, k):
    nrm = induced_norm(M, k)
    assert -nrm <= -lognorm(-M, k) + 1e-12
    assert -lognorm(-M, k) <= lognorm(M, k) + 1e-12
    assert lognorm(M, k) <= nrm + 1e-12


@settings(max_examples=60)
@given(M=_mat(3), N=_mat(3), k=st.sampled_from(KINDS))
def test_p2_subadditive_and_lipschitz(M, N, k):
    assert lognorm(M + N, k) <= lognorm(M, k) + lognorm(N, k) + 1e-12
    assert abs(lognorm(M, k) - lognorm(N, k)) <= \
        induced_norm(M - N, k) + 1e-12


@settings(max_examples=60)
@given(S=_mat(3), W=_mat(3))
def test_mu2_skew_blindness(S, W):
    S = 0.5 * (S + S.T)
    W = 0.5 * (W - W.T)
    assert lognorm(S + W, TWO) == pytest.approx(
        lognorm(S, TWO), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# inversion

def test_invert_identity_and_diagonal():
    assert np.allclose(invert(np.eye(2)), np.eye(2), atol=1e-14)
    assert np.allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]),
                       atol=1e-14)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError):
        invert([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        invert([[1.0, 2.0], [2.0, 4.0]])


def test_invert_round_trip(rng):
    for _ in range(50):
        n = int(rng.integers(2, 8))
        M = oracles.random_matrix(rng, n) + np.eye(n)  # keep it well away
        if abs(np.linalg.det(M)) < 1e-6:               # from singular
            continue
        R = invert(M) @ M - np.eye(n)
        assert np.max(np.abs(R)) < 1e-10


# ---------------------------------------------------------------------------
# Lyapunov solutions and the weighted-norm identity

def test_lyapunov_negative_identity():
    assert np.allclose(lyapunov_solve(-np.eye(2)), np.eye(2), atol=1e-12)


def test_lyapunov_diagonal():
    H = lyapunov_solve(np.diag([-1.0, -2.0]))
    assert np.allclose(H, np.diag([1.0, 0.5]), atol=1e-12)


def test_lyapunov_residual(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = oracles.random_hurwitz(rng, n)
        H = lyapunov_solve(A)
        assert np.allclose(H, H.T, atol=1e-12)
        assert frobenius(A.T @ H + H @ A + 2.0 * np.eye(n)) < 1e-9


def test_lyapunov_weighted_lognorm_identity(rng):
    # the H-weighted measure of a Hurwitz matrix is -1/lam_max(H)
    for _ in range(10):
        A = oracles.random_hurwitz(rng, 3)
        H = lyapunov_solve(A)
        lam_max = float(np.linalg.eigvalsh(H).max())
        assert lognorm(A, Weighted(H)) == pytest.approx(
            -1.0 / lam_max, abs=1e-8)


def test_lyapunov_no_unique_solution():
    # eigenvalues 1 and -1 sum to zero across the spectrum, so the
    # Kronecker system is singular
    with pytest.raises(LinalgError, match="no unique solution"):
        lyapunov_solve(np.diag([1.0, -1.0]))


def test_lyapunov_rejects_non_hurwitz():
    with pytest.raises(NotHurwitzError):
        lyapunov_solve(np.diag([1.0, 2.0]))


# ---------------------------------------------------------------------------
# weighted norms: construction errors

def test_weighted_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        Weighted([[1.0, 0.2], [0.0, 1.0]])


def test_weighted_rejects_indefinite():
    with pytest.raises(NotDefiniteError):
        Weighted([[1.0, 0.0], [0.0, -1.0]])


def test_convergence_error_is_linalg_error():
    assert issubclass(ConvergenceError, LinalgError)
    assert issubclass(SingularMatrixError, LinalgError)
