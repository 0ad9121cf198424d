"""Independent numerical oracles for the test suite.

Nothing here goes through lognorm_control's own numerics: eigenvalues
come from LAPACK or from inertia bisection, induced two-norms from power
iteration, quadrature from a dense composite trapezoid or a recursive
adaptive Simpson, and reference trajectories from a fixed-step classical
RK4.  Agreement between these and the package is what the tests check.
The one exception is the closed-loop rate reference, which evaluates the
synthesized gamma expressions one component at a time with the package's
checked tree-walking evaluator ``eval_expr``.
"""

import numpy as np
from scipy.linalg import ldl

from lognorm_control.expr import eval_expr

NORM_ORDER = {"one": 1, "two": 2, "inf": np.inf}


def induced_norm_ref(M, kind):
    return float(np.linalg.norm(np.asarray(M, dtype=float), NORM_ORDER[kind]))


def lognorm_ref(M, kind):
    """Matrix measure per closed form, written against numpy/LAPACK."""
    M = np.asarray(M, dtype=float)
    d = np.diag(M)
    if kind == "one":
        return float((d + np.abs(M).sum(axis=0) - np.abs(d)).max())
    if kind == "inf":
        return float((d + np.abs(M).sum(axis=1) - np.abs(d)).max())
    return 0.5 * float(np.linalg.eigvalsh(M + M.T).max())


def lognorm_quotient_ref(M, kind, h):
    """(||I + hM|| - 1)/h straight from the definition."""
    M = np.asarray(M, dtype=float)
    return (induced_norm_ref(np.eye(len(M)) + h * M, kind) - 1.0) / h


def two_norm_power(M, iters=2000, seed=7):
    """sqrt(lambda_max(M^T M)) by plain power iteration."""
    M = np.asarray(M, dtype=float)
    G = M.T @ M
    v = np.random.default_rng(seed).standard_normal(len(M))
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = G @ v
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(max(lam, 0.0)))


def _count_eigs_below(S, lam):
    """Number of eigenvalues of symmetric S strictly below lam, from the
    inertia of the LDL^T factorization of S - lam I."""
    _, D, _ = ldl(S - lam * np.eye(len(S)))
    count = 0
    i = 0
    while i < len(D):
        if i + 1 < len(D) and abs(D[i + 1, i]) > 0.0:
            count += int((np.linalg.eigvalsh(D[i:i + 2, i:i + 2]) < 0).sum())
            i += 2
        else:
            count += int(D[i, i] < 0.0)
            i += 1
    return count


def eigvals_bisect(S, tol=1e-12):
    """All eigenvalues of a symmetric matrix by inertia bisection.

    Slow but entirely independent of both Jacobi sweeps and the LAPACK
    QR path; good enough for n <= 8 test matrices.
    """
    S = np.asarray(S, dtype=float)
    S = 0.5 * (S + S.T)
    r = float(np.abs(S).sum(axis=1).max()) + 1.0
    out = []
    for k in range(1, len(S) + 1):
        lo, hi = -r, r
        while hi - lo > tol * max(1.0, r):
            mid = 0.5 * (lo + hi)
            if _count_eigs_below(S, mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def trapezoid_ref(f, a, b, n=1_000_001):
    """Composite trapezoid on n points; f must accept numpy arrays."""
    x = np.linspace(a, b, n)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (n - 1)
    return float(h * (y.sum() - 0.5 * (y[0] + y[-1])))


class _SimpsonState:
    __slots__ = ("evals", "error", "converged", "f", "max_depth")

    def __init__(self, f, max_depth):
        self.f = f
        self.max_depth = max_depth
        self.evals = 0
        self.error = 0.0
        self.converged = True

    def eval(self, x):
        """A float, or the array of a vector integrand's components."""
        self.evals += 1
        v = np.asarray(self.f(x), dtype=float)
        if not np.isfinite(v).all():
            raise ValueError(f"integrand returned a non-finite value at {x!r}")
        return v if v.ndim else float(v)


def _simpson_adapt(st, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = st.eval(lm)
    frm = st.eval(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    noise = 1e-15 * (abs(left) + abs(right))
    if depth >= st.max_depth:
        st.converged = False
        st.error += abs(delta) / 15.0
        return left + right + delta / 15.0
    if np.all(np.abs(delta) <= np.maximum(15.0 * tol, noise)):
        st.error += abs(delta) / 15.0
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (_simpson_adapt(st, a, fa, lm, flm, m, fm, left, half, depth + 1)
            + _simpson_adapt(st, m, fm, rm, frm, b, fb, right, half,
                             depth + 1))


def simpson_ref(f, a, b, tol=1e-8, max_depth=40):
    """Recursive adaptive Simpson over [a, b]: ``(value, est_error,
    evals, converged)``.  Panels are accepted when ``|S(fine) -
    S(coarse)| <= max(15 tol, rounding noise)``, with tol halved per
    split and forced (unconverged) acceptance at max_depth.  This is the
    rule the package's level-synchronous quadrature follows, written as
    the plain depth-first recursion.  An integrand that returns an array
    of components gets arrays of values and errors, and a panel is
    accepted only when every component passes.  ``tol`` may be an array
    of one tolerance per component."""
    st = _SimpsonState(f, max_depth)
    fa = st.eval(a)
    m = 0.5 * (a + b)
    fm = st.eval(m)
    fb = st.eval(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value = _simpson_adapt(st, a, fa, m, fm, b, fb, whole, tol, 0)
    return value, st.error, st.evals, st.converged


def cumulative_simpson_ref(f, grid, tol=1e-9, tol_rel=1e-10):
    """``simpson_ref`` cell by cell over grid, accumulated:
    ``(values, est_error, evals, converged)`` with values[..., 0] = 0;
    a vector integrand gives (components, len(grid)) values.  Each cell
    starts from ``max(tol, |S|)``, per component, with S the Simpson
    estimate of ``tol_rel / cells * int f`` over the cells added from the
    left; its nodes are evaluated apart from the counted ones."""
    S = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        fa, fm, fb = (np.asarray(f(t), dtype=float)
                      for t in (a, 0.5 * (a + b), b))
        S = S + tol_rel / (len(grid) - 1) * (
            (b - a) / 6.0 * (fa + 4.0 * fm + fb))
    tol = np.maximum(tol, np.abs(S))
    vals = []
    acc = err = 0.0
    evals = 0
    ok = True
    for k in range(len(grid) - 1):
        value, e, n, conv = simpson_ref(f, grid[k], grid[k + 1], tol)
        acc = acc + value
        vals.append(acc)
        err = err + e
        evals += n
        ok = ok and conv
    vals = np.array(vals)
    out = np.concatenate((np.zeros((1,) + vals.shape[1:]), vals)).T
    return out, err, evals, ok


def rk4_solve(f, t0, x0, T, n_steps):
    """Classical fixed-step RK4; returns (times, states)."""
    h = (T - t0) / n_steps
    t = t0
    x = np.array(x0, dtype=float)
    times = [t]
    states = [x.copy()]
    for _ in range(n_steps):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        states.append(x.copy())
    return np.array(times), np.array(states)


def repro_closed_loop(t):
    """M(t) = A_skew + diag(lambda) + diag(gamma) + Delta of the bundled
    scenario, its entries written out by hand as in
    tests/gen_repro_golden.py."""
    st = np.sqrt(t)
    env = np.sqrt(t ** 6 + 1.0)
    skew = 0.5 * (np.sin(t) - st)
    return np.array([[-1.0 - t * env + 1.0 / (1.0 + t * t), skew + t],
                     [-skew - t, -1.0 - st * env]])


def repro_slow_manifold(t, tol=1e-15, max_iter=100):
    """Quasi-steady state of the bundled closed loop at time t.

    Fixed-point iteration of x = -M(t)^{-1} omega(t, x), with M(t) from
    :func:`repro_closed_loop` and omega = (t^(11/4) cos x1, 1).  Once
    |mu_cl| ~ t^3.5 dwarfs the rate at which omega changes, the
    trajectory rides this point up to a relative O(1/(t |m11|)) lag from
    the neglected x'; no time integration is used.
    """
    M = repro_closed_loop(t)
    x = np.zeros(2)
    for _ in range(max_iter):
        x_new = -np.linalg.solve(M, [t ** 2.75 * np.cos(x[0]), 1.0])
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    raise RuntimeError(f"slow-manifold iteration did not settle at t={t}")


def gamma_max_ref(ctrl, t):
    """Gamma(t) = max_i(lam_i + gamma_i(t)), one component and one time
    at a time, in component order."""
    return max(ctrl.lam[i] + eval_expr(g, t) for i, g in enumerate(ctrl.gamma))


def random_matrix(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


def random_hurwitz(rng, n, margin=0.5):
    """Random matrix shifted left until every eigenvalue is strictly to
    the left of -margin."""
    A = rng.standard_normal((n, n))
    shift = float(np.linalg.eigvals(A).real.max()) + margin
    return A - shift * np.eye(n)
