"""Closed-loop simulation and transition-matrix bound checks.

:func:`simulate` starts each integration with an explicit Dormand-Prince
5(4) pair (PI step-size control, quartic dense output), accurate enough
that the logarithmic-norm envelopes can be checked tightly.  When the
loop turns stiff, DP5 is held to its stability limit instead of its
accuracy: the stepper watches Hairer's stiffness indicator ``h * rho``,
estimated from two stages it already has, and once that exceeds
``STIFF_H_RHO`` on ``STIFF_STEPS`` accepted steps in a row it finishes
the run with RODAS4, a stiffly accurate linearly implicit Rosenbrock
method of order 4(3) (Hairer & Wanner, *Solving ODEs II*, IV.7;
Petzold's automatic method selection, 1983).  RODAS4 takes the exact
Jacobian ``M(t) + d omega/dx`` and time derivative ``M'(t) x + d
omega/dt`` from the expressions' symbolic derivatives, one compiled grid
made when it takes over, and has a cubic Hermite dense output.  Both
run one attempt loop, :meth:`_Run.steps`, which keeps steps within
``[h_min, H_MAX]``; should the step size stay pinned at ``h_min`` for
``PIN_LIMIT`` consecutive attempts, the run aborts with a
:class:`StiffnessError` carrying the local logarithmic norm.

The right-hand side ``x' = M(t) x + omega(t, x)`` is linear in a matrix
that does not depend on the state, and a step's stage times are known
before its first stage.  So each attempt evaluates the matrix once, as a
batch over its distinct stage times (five for DP5; for RODAS4 the four
stage times and ``t`` for the Jacobian), and runs the stages on that
stack.  If a batch raises, the attempt is redone stage by stage, so a
domain failure is reported at the stage and time where it first occurs.

:func:`fundamental_matrix` does not step: it multiplies Magnus
propagators, a whole refinement level of sub-steps per batch of ``F``
(see there for what ``tol`` bounds and how failures are reported).
"""

from __future__ import annotations

import bisect
import inspect
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .expr import (Bin, EvalError, Lit, Var, VectorFunction, derivatives,
                   eval_expr, state_vars)
from .linalg import induced_norm, lognorm, lognorm_pair, vector_norm
from .analysis import cumulative_integral, norm_name
from .report import Report
from .system import (ControllerSpec, SystemSpec, _closed_loop_grid,
                     closed_loop_function)

__all__ = [
    "NumericalError",
    "StiffnessError",
    "Trace",
    "TransitionTrace",
    "SandwichReport",
    "ConvergenceReport",
    "simulate",
    "fundamental_matrix",
    "phi_horizon",
    "verify_sandwich",
    "convergence_report",
    "write_trace_csv",
]

PIN_LIMIT = 50  # consecutive attempts at h_min before StiffnessError
H_MAX = 0.1  # longest step of simulate
_BOUNDS_TOL = 1e-10  # per-cell tolerance of simulate's bound integrals
_PHI_H_MIN, _PHI_H_MAX = 1e-9, 0.1  # sub-step bounds of fundamental_matrix
# at most _PHI_ENTRIES / n^2 sub-steps per Phi, and _PHI_CHUNK node times
# per call of F: a compiled F builds Python lists of that length, so this
# caps its transient memory
_PHI_ENTRIES, _PHI_CHUNK = 2 ** 22, 512
# a Magnus sub-step's node fractions, ascending: the three Gauss nodes of
# the sixth-order generator (0, 2, 4) and the two of the fourth-order (1, 3)
_MAGNUS_C = 0.5 + np.array([-math.sqrt(0.15), -math.sqrt(1 / 12), 0.0,
                            math.sqrt(1 / 12), math.sqrt(0.15)])
# Pade 13 of expm: its 1-norm bound and numerator coefficients (Higham 2005)
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)

# DP5 hands the run to RODAS4 once Hairer's stiffness indicator h * rho
# exceeds STIFF_H_RHO on STIFF_STEPS consecutive accepted steps.  rho =
# ||k7 - k6|| / ||y_new - y6|| estimates the dominant eigenvalue from the
# two stages at t + h (y6 the argument of k6), so the test costs no
# evaluation.  Sweep of the threshold on the bundled scenario (T = 10;
# accepted steps, switch time): 0.5: 521, t = 2.58; 1.0: 544, t = 3.53;
# 1.5: 614, t = 4.32; 2.0: 739, t = 5.03; DOPRI5's own 3.25: 2,552,
# t = 7.94.  On the accuracy-bound oscillator plants (bench seeds 1-2)
# no single step exceeds h * rho = 0.52, in simulate or in Phi.
STIFF_H_RHO = 1.5
STIFF_STEPS = 15

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# a step's distinct stage times after t (stages 5 and 6 share t + h)
_C_BATCH = _C[1:6]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: weights of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
# rows: k7 - k6 and (y_new - y6) / h, so h * rho = ||row 0|| / ||row 1||
_RHO = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0],
                 _B5 - np.append(_A[5], (0.0, 0.0))])
# dense-output weights for the quartic interpolant
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])

_SAFETY = 0.9
_ALPHA = 0.7 / 5.0  # PI controller exponents
_BETA = 0.4 / 5.0
_FAC_MIN = 0.2
_FAC_MAX = 5.0

# RODAS4 (Hairer & Wanner, rodas.f, METH = 1) in transformed form: stage
# i solves (I / (h gamma) - J) U_i = f(t + c_i h, y + sum_j a_ij U_j)
# + sum_j c_ij U_j / h + h d_i f_t.  Stiffly accurate: the last two stage
# arguments are the embedded and the final solution, so U_6 is the error.
_GAMMA = 0.25
# a step's batch: t, then the stage times (stages 4 and 5 share t + h)
_RT = np.array([0.0, 0.386, 0.21, 0.63, 1.0])
_RD = np.array([0.25, -0.1043, 0.1035, -0.0362000000000023, 0.0, 0.0])
_RA = [
    None,
    np.array([1.544]),
    np.array([0.9466785280815826, 0.2557011698983284]),
    np.array([3.314825187068521, 2.896124015972201, 0.9986419139977817]),
    np.array([1.221224509226641, 6.019134481288629, 12.53708332932087,
              -0.6878860361058950]),
    np.array([1.221224509226641, 6.019134481288629, 12.53708332932087,
              -0.6878860361058950, 1.0]),
]
_RG = [
    None,
    np.array([-5.6688]),
    np.array([-2.430093356833875, -0.2063599157091915]),
    np.array([-0.1073529058151375, -9.594562251023355, -20.47028614809616]),
    np.array([7.496443313967647, -10.24680431464352, -33.99990352819905,
              11.70890893206160]),
    np.array([8.083246795921522, -7.981132988064893, -31.52159432874371,
              16.31930543123136, -6.058818238834054]),
]
_R_FAC_MIN = 1 / 6  # h / h_new: the step changes by 1/5 to 6x, as rodas.f
_R_FAC_MAX = 5.0


class NumericalError(RuntimeError):
    """The integration could not continue (non-finite state or an
    expression domain failure along the trajectory)."""


class StiffnessError(RuntimeError):
    """The step size stayed pinned at h_min for PIN_LIMIT consecutive
    attempts: near the reported time no step as long as h_min passes the
    error test, in either stepper.  For Phi, ``why`` says which of the
    sub-step limits of :func:`fundamental_matrix` was reached."""

    def __init__(self, t: float, h: float, mu: float | None = None,
                 why: str | None = None):
        self.t = t
        self.h = h
        self.mu = mu
        if why is not None:
            super().__init__(f"{why} near t={t:.6g}; relax tol or shorten "
                             "the horizon")
            return
        msg = (f"step size pinned at h={h:g} for {PIN_LIMIT} consecutive "
               f"attempts near t={t:.6g}")
        if mu is not None:
            msg += (f"; local closed-loop logarithmic norm mu={mu:.6g} "
                    f"(|mu| * h ~ {abs(mu) * h:.3g})")
        msg += ("; no step of h_min meets tol here - lower h_min, relax "
                "tol, or shorten the horizon")
        super().__init__(msg)


class _Run:
    """One integration: the attempt loop both steppers run (:meth:`steps`),
    the output grid and its cursor (``next_out`` is the next point's time),
    each point's step (``ts``, ``hs``, interpolant data in ``dense``), the
    accepted step sizes, the rejections and the attempts at h_min in a row."""

    def __init__(self, grid, ndim, T, tol, h_min, M, diag_mu):
        self.grid, self.times = grid, [*grid.tolist(), math.inf]
        self.out = np.empty((len(grid), ndim))
        self.dense = np.empty((len(grid), 5, ndim))
        self.ts, self.hs = np.empty((2, len(grid)))
        self.gi = 0
        self.next_out = self.times[0]
        self.T, self.tol, self.h_min, self.M = T, tol, h_min, M
        self.floor = h_min * (1.0 + 1e-9)
        self.diag_mu = diag_mu
        self.accepted = []
        self.n_rejected = 0
        self.pinned = 0

    def _pass(self, upto):
        """Pass the output points up to ``upto``; returns their slice."""
        part = slice(self.gi, bisect.bisect_right(self.times, upto, self.gi))
        self.gi, self.next_out = part.stop, self.times[part.stop]
        return part

    def hold(self, y, upto):
        """Output points up to ``upto`` get the state ``y``."""
        self.out[self._pass(upto)] = y

    def record(self, t, h, *data):
        """Output points in (t, t + h] get the step's t, h and ``data``."""
        part = self._pass(t + h)
        self.ts[part], self.hs[part] = t, h
        self.dense[part, :len(data)] = data

    def interpolate(self, part, interp):
        """The points of ``part`` by ``interp(theta, h, *data)`` at once."""
        h = self.hs[part, None]
        theta = (self.grid[part, None] - self.ts[part, None]) / h
        self.out[part] = interp(theta, h, *self.dense[part].transpose(1, 0, 2))

    def steps(self, t, y, h, c, attempt, accept, reject):
        """One method's attempts from ``(t, y)``, the first of length ``h``,
        until T or until ``accept`` says it is done; returns ``(t, y, h,
        done)``, ``h`` the next attempt's.  An attempt is clamped to [h_min,
        H_MAX] and to end at T, and evaluates ``M`` once, as a batch on its
        stage times ``t + c h`` (if that raises, each stage gets None and
        evaluates its own).  ``attempt(t, y, h, tl, Ms)`` returns the new
        state and the error vector; ``accept(t, h, y, y_new, err, tl, Ms)``
        records the dense output and returns ``(next h, done)``, and
        ``reject(h, err, finite)`` the cut step.  A non-finite state at
        h_min raises NumericalError; PIN_LIMIT attempts in a row at h_min
        raise StiffnessError."""
        T, h_min, M = self.T, self.h_min, self.M
        ts = np.empty(len(c))
        mul, add = np.multiply, np.add
        while T - t > 4e-16 * max(1.0, abs(T)):  # else within rounding of T
            h = min(max(h, h_min), H_MAX)
            end_clamped = t + h >= T
            if end_clamped:
                h = T - t
            add(t, mul(c, h, out=ts), out=ts)
            try:
                Ms = M(ts)
            except Exception:
                Ms = [None] * len(c)
            tl = ts.tolist()
            y_new, err_vec = attempt(t, y, h, tl, Ms)
            finite, err = _error(self.tol, y, y_new, err_vec)
            at_floor = not end_clamped and h <= self.floor
            if err <= 1.0:
                self.accepted.append(h)
                h_next, done = accept(t, h, y, y_new, err, tl, Ms)
                t, y = t + h, y_new
            else:
                self.n_rejected += 1
                if not finite and at_floor:
                    raise NumericalError(
                        f"state became non-finite at t={t:.6g} with the "
                        "step already at h_min")
                h_next, done = reject(h, err, finite), False
            self.pinned = self.pinned + 1 if at_floor else 0
            if self.pinned >= PIN_LIMIT:
                try:
                    mu = self.diag_mu(t)
                except Exception:
                    mu = None
                raise StiffnessError(t, h_min, mu)
            h = h_next
            if done:
                return t, y, h, True
        return t, y, h, False


def _error(tol, y, y_new, err_vec):
    """(finite, err): the local error in units of tol * (1 + ||y||);
    ``finite`` says ``y_new`` and ``err_vec`` are.

    ``sqrt(v.dot(v))`` is how ``np.linalg.norm`` computes a vector's
    2-norm, so the bits are its own, at a third of the call's cost.  A
    non-finite entry makes ``err_vec``'s square sum or ``y_new``'s sum
    non-finite; these can also overflow with every entry finite (1e200
    squared), so only then does ``np.isfinite`` decide.
    """
    ee = err_vec.dot(err_vec)
    if not (math.isfinite(ee) and math.isfinite(sum(y_new.tolist()))):
        if not (np.isfinite(y_new).all() and np.isfinite(err_vec).all()):
            return False, math.inf
    return True, math.sqrt(ee) / (tol * (1.0 + math.sqrt(y.dot(y))))


def _integrate(f, t0, y0, T, tol, h_min, grid, M, diag_mu, jacobian):
    """Core stepper.  Fills ``grid`` (strictly increasing, within [t0, T],
    as :func:`simulate` checks) by dense output and returns (outputs,
    accepted_h, n_rejected, n_explicit): the first n_explicit accepted
    steps are DP5's, the rest RODAS4's (see :func:`_dp5` for the switch).

    ``f(t, y, Mt=None, out=None)`` is the right-hand side ``Mt @ y +
    g(t, y)`` with ``Mt = M(t)`` (evaluated by ``f`` if None), written
    into the row ``out`` and returned, or returned as a new array.
    ``M`` takes one time, or a 1-d array of times and returns the stack,
    equal bit for bit to the scalar calls; :meth:`_Run.steps` batches it
    per attempt.  ``jacobian()`` makes RODAS4's ``jac(t, y, M(t)) -> (J,
    f_t)`` (see :func:`_jacobian`), once it takes over.

    At n = 2 a numpy call costs more than its arithmetic, so the steppers
    make one ``f`` call per stage, at a float time, and build its argument,
    right-hand side and error vector in rows allocated once per run, by
    ``ndarray.dot`` (``np.dot`` without its dispatch; ``@`` is another
    routine); every accepted state and every array returned is new.  So
    too, dense output is recorded per step and each interpolant evaluated
    once per run on all its points, bit for bit as point by point.
    """
    y = np.asarray(y0, dtype=float).copy()
    run = _Run(grid, len(y), T, tol, h_min, M, diag_mu)
    run.hold(y, t0)
    first = run.gi
    k = np.empty((7, len(y)))  # DP5's stages; k[0] the slope at y
    k[0] = fy = f(t0, y)
    # the first step would move the state by ~1 % at the slope fy
    h = 0.01 * ((1.0 + float(np.linalg.norm(y)))
                / (1.0 + float(np.linalg.norm(fy))))
    t, y, h, stiff = run.steps(t0, y, h, *_dp5(f, run, k))
    n_explicit, switch = len(run.accepted), run.gi
    if stiff:
        _, y, _, _ = run.steps(t, y, h, *_rodas(f, jacobian(), run, k[0]))
    run.interpolate(slice(first, switch), _dp5_dense)
    run.interpolate(slice(switch, run.gi), _rodas_dense)
    run.hold(y, T)  # grid points at exactly T
    return run.out, np.array(run.accepted), run.n_rejected, n_explicit


def _dp5_dense(th, h, y, y_new, k1, k7, dk):
    """DP5's quartic interpolant, ``dk = _D @ k``; th, h floats or columns."""
    ydiff = y_new - y
    bspl = h * k1 - ydiff
    r4 = ydiff - h * k7 - bspl
    return y + th * (ydiff + (1.0 - th) * (bspl + th * (r4 + (1.0 - th) * (
        h * dk))))


def _rodas_dense(th, h, y, y_new, fy, f_new, _):
    """RODAS4's cubic Hermite interpolant, as :func:`_dp5_dense`."""
    dy = y_new - y
    return y + th * dy + th * (th - 1.0) * (
        (1.0 - 2.0 * th) * dy + (th - 1.0) * h * fy + th * h * f_new)


def _dp5(f, run, k):
    """Dormand-Prince 5(4) with PI control, as :meth:`_Run.steps` takes a
    method; ``k`` holds its stages, ``k[0]`` the slope at the state.  It is
    done once the stiffness indicator has exceeded STIFF_H_RHO on
    STIFF_STEPS accepted steps in a row."""
    # stage i: its row of k, its weights on the rows before it and its
    # time's index in the batch (stages 5 and 6 both sit at t + h)
    stages = [(k[i], _A[i], k[:i], min(i, 5) - 1) for i in range(1, 7)]
    # scratch: _RHO's rows, a stage's argument, a weighted sum, the error
    n = k.shape[1]
    rho, (yi, tmp, err_vec) = np.empty((2, n)), np.empty((3, n))
    mul, add = np.multiply, np.add
    facold, stiff = 1e-4, 0

    def attempt(t, y, h, tl, Ms):
        for ki, a, before, j in stages:  # y + h * (a @ before)
            add(y, mul(a.dot(before, out=tmp), h, out=tmp), out=yi)
            f(tl[j], yi, Ms[j], ki)
        # stage 6's argument is the new state: _A[6] is _B5 (FSAL)
        return yi.copy(), mul(_E.dot(k, out=err_vec), h, out=err_vec)

    def accept(t, h, y, y_new, err, tl, Ms):
        nonlocal facold, stiff
        if run.next_out <= t + h:  # dense output over (t, t + h]
            run.record(t, h, y, y_new, k[0], k[6], _D @ k)
        dk, dy = _RHO.dot(k, out=rho).tolist()
        stiff = stiff + 1 if math.hypot(*dk) > STIFF_H_RHO * math.hypot(*dy) \
            else 0
        k[0] = k[6]  # first-same-as-last
        fac = _SAFETY * max(err, 1e-16) ** (-_ALPHA) * facold ** _BETA
        facold = max(err, 1e-4)
        return h * min(_FAC_MAX, max(_FAC_MIN, fac)), stiff >= STIFF_STEPS

    def reject(h, err, finite):
        return h * (_FAC_MIN if not finite else
                    min(1.0, max(_FAC_MIN, _SAFETY * err ** (-0.2))))
    return _C_BATCH, attempt, accept, reject


def _jacobian(M, omega, n):
    """``jac(t, y, M(t)) -> (J, f_t)`` of ``f = M(t) y + omega(t, y)``: ``J
    = M(t) + d omega/dx`` and ``f_t = M'(t) y + d omega/dt``, from one
    compiled grid of symbolic derivatives.  NumericalError names the first
    that fails, such as ``d omega_1/dx2`` or ``d f_2/dt``, and t."""
    xs, ks = state_vars(n), range(1, n + 1)
    w = f = omega.entries if omega is not None else [Lit(0.0)] * n
    for j, x in enumerate(xs):  # f_i = omega_i + M_i1 x1 + ... + M_in xn
        f = [Bin("+", fi, Bin("*", row[j], Var(x)))
             for fi, row in zip(f, M.entries)]
    cols = [derivatives(w, x) for x in xs]  # d omega/dx, column by column
    flat = derivatives(f, "t") + [d for row in zip(*cols) for d in row]
    names = [f"d f_{i}/dt" for i in ks] + [
        f"d omega_{i}/d{x}" for i in ks for x in xs]
    D = VectorFunction(flat, ("t", *xs)).compiled()

    def jac(t, y, Mt):
        try:
            d = D(t, y)
        except EvalError:
            for name, e in zip(names, flat):
                try:
                    eval_expr(e, t, y)
                except EvalError as exc:
                    raise NumericalError(f"derivative {name} failed at "
                                         f"t={t:.6g}: {exc}") from exc
            raise
        return Mt + d[n:].reshape(n, n), d[:n]
    return jac


def _rodas(f, jac, run, fy):
    """RODAS4, as :func:`_dp5`, from a state whose slope is ``fy``, to T.

    ``J`` and ``f_t`` come from one call of ``jac`` per attempt (see
    :func:`_jacobian`); one inverse of ``I / (h gamma) - J`` per attempt
    serves all six stages.
    The step size follows rodas.f: ``h err^(-1/4)`` with Gustafsson's
    predictive controller.  Dense output is the cubic Hermite interpolant
    on ``(y, f(t, y), y_new, f(t + h, y_new))``; its last slope is the
    next step's first stage.
    """
    n = len(fy)
    U = np.empty((6, n))
    # scratch: a stage's argument and right-hand side and a weighted sum
    (yi, fi, tmp), eye = np.empty((3, n)), np.eye(n)
    mul, add = np.multiply, np.add
    h_acc = err_acc = None
    rejected = False

    def attempt(t, y, h, tl, Ms):
        # M(t) was evaluated before, as the previous step's end
        J, ft = jac(t, y, run.M(t) if Ms[0] is None else Ms[0])
        E_inv = np.linalg.inv(eye / (h * _GAMMA) - J)
        add(fy, mul(ft, h * _RD[0], out=tmp), out=fi)
        E_inv.dot(fi, out=U[0])
        for i in range(1, 6):
            Ui = U[:i]
            add(y, _RA[i].dot(Ui, out=tmp), out=yi)
            f(tl[min(i, 4)], yi, Ms[min(i, 4)], fi)
            # fi + (_RG[i] @ U[:i]) / h + (h * _RD[i]) * ft
            add(fi, np.divide(_RG[i].dot(Ui, out=tmp), h, out=tmp), out=fi)
            add(fi, mul(ft, h * _RD[i], out=tmp), out=fi)
            E_inv.dot(fi, out=U[i])
        return yi + U[5], U[5]

    def accept(t, h, y, y_new, err, tl, Ms):
        nonlocal fy, h_acc, err_acc, rejected
        f_new = f(tl[4], y_new, Ms[4])
        if run.next_out <= t + h:
            run.record(t, h, y, y_new, fy, f_new)
        fac = min(_R_FAC_MAX, max(_R_FAC_MIN, err ** 0.25 / _SAFETY))
        if h_acc is not None:  # Gustafsson
            gus = (h_acc / h) * (err * err / err_acc) ** 0.25 / _SAFETY
            fac = max(fac, min(_R_FAC_MAX, max(_R_FAC_MIN, gus)))
        h_acc, err_acc = h, max(1e-2, err)
        h_next = min(h / fac, h) if rejected else h / fac
        rejected, fy = False, f_new
        return h_next, False

    def reject(h, err, finite):
        nonlocal rejected
        rejected = True
        return h / min(_R_FAC_MAX, max(_R_FAC_MIN, err ** 0.25 / _SAFETY))
    return _RT, attempt, accept, reject


@dataclass
class Trace:
    """A simulated closed-loop trajectory on an output grid.

    ``norms`` is ``||x(t)||`` in the norm named by ``norm_kind``;
    ``mu_cl`` is the logarithmic norm of the full closed-loop matrix
    (including the uncertainty); ``bound_upper`` / ``bound_lower`` are
    the envelopes ``||x0|| exp(+-int mu)`` of the homogeneous part.  With
    a disturbance present the envelopes are reference curves, not bounds.
    """
    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    mu_cl: np.ndarray
    bound_upper: np.ndarray
    bound_lower: np.ndarray
    step_sizes: np.ndarray
    n_rejected: int
    norm_kind: str
    n_explicit: int  # the first n_explicit steps are DP5's, then RODAS4's

    @property
    def n(self) -> int:
        return self.states.shape[1]


def simulate(spec: SystemSpec, ctrl: ControllerSpec | None = None,
             T: float | None = None, tol: float = 1e-8,
             h_min: float = 1e-9, grid=None, n_out: int = 1001) -> Trace:
    """Integrate ``x' = [A + Delta + B K] x + omega(t, x)`` from (t0, x0).

    The local error per step is held below ``tol * (1 + ||x||)``, with
    steps from ``h_min`` to ``H_MAX``.  The returned trace carries the
    state on the output grid together with the pointwise closed-loop
    logarithmic norm and the integrated envelopes, whose ``int mu[M]``
    and ``int mu[-M]`` come from one two-component quadrature (``mu_cl``
    from its first level, on the grid's nodes).  Raises StiffnessError /
    NumericalError as described in the module docstring; expression
    domain failures along the trajectory are wrapped in NumericalError.
    """
    if T is None:
        T = spec.t0 + 10.0
    if not (spec.t0 < T < math.inf):
        raise ValueError(f"horizon T={T} must exceed t0={spec.t0} and be "
                         "finite")
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be a positive finite number")
    if not (0.0 < h_min <= H_MAX):
        raise ValueError(f"h_min must be positive and at most H_MAX = "
                         f"{H_MAX:g}, got {h_min:g}")
    if grid is None:
        if n_out < 2:
            raise ValueError("n_out must be at least 2")
        grid = np.linspace(spec.t0, T, n_out)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("output grid must have at least 2 points")
    if grid.ndim != 1 or (np.diff(grid) <= 0).any():
        raise ValueError("output grid must be strictly increasing")
    if grid[0] < spec.t0 or grid[-1] > T:
        raise ValueError("output grid must lie within [t0, T]")
    k = spec.norm
    Acl = closed_loop_function(spec, ctrl, include_delta=True)
    omega = spec.omega.compiled() if spec.omega is not None else None

    def f(t, y, M=None, out=None):
        try:
            dy = (Acl(t) if M is None else M).dot(y, out=out)
            if omega is not None:
                dy += omega(t, y)
        except EvalError as exc:
            raise NumericalError(
                f"expression evaluation failed at t={t:.6g}: {exc}") from exc
        return dy

    states, steps, nrej, n_explicit = _integrate(
        f, spec.t0, spec.x0, T, tol, h_min, grid, M=Acl,
        diag_mu=lambda t: lognorm(Acl(t), k),
        jacobian=lambda: _jacobian(_closed_loop_grid(spec, ctrl, True),
                                   spec.omega, spec.n))
    norms = vector_norm(states, k)
    x0n = vector_norm(spec.x0, k)
    levels = []  # the first level's even nodes are the grid

    def mu_pair(t):
        levels.append(lognorm_pair(Acl(t), k))
        return levels[-1]
    (J_up, J_low), _, _, _ = cumulative_integral(mu_pair, grid, _BOUNDS_TOL)
    mu_vals = levels[0][0][0::2]
    with np.errstate(over="ignore"):
        upper = x0n * np.exp(J_up)
        lower = x0n * np.exp(-J_low)
    return Trace(times=grid, states=states, norms=norms, mu_cl=mu_vals,
                 bound_upper=upper, bound_lower=lower, step_sizes=steps,
                 n_rejected=nrej, norm_kind=norm_name(k),
                 n_explicit=n_explicit)


@dataclass
class TransitionTrace:
    """The fundamental matrix ``Phi(t)`` (with ``Phi(t0) = I``) sampled
    on a grid, with the accepted Magnus sub-step lengths in time order,
    the number cut and the ``tol`` each met (see :func:`fundamental_matrix`)."""
    times: np.ndarray
    phis: np.ndarray  # shape (m, n, n)
    step_sizes: np.ndarray
    n_rejected: int
    tol: float


def _stack(F: Callable, ts: np.ndarray) -> np.ndarray:
    """``F`` on the ascending times ``ts``, stacked: one call if ``F`` is a
    compiled grid (its ``exact_batches``, read through ``__wrapped__``),
    which batches by construction, else its scalar calls; the bits are the
    same.  If that raises, NumericalError names the earliest time at which
    ``F`` raises an EvalError; else the error is re-raised."""
    try:
        if getattr(inspect.unwrap(F), "exact_batches", False):
            return np.asarray(F(ts), dtype=float)
        return np.array([F(t) for t in ts])
    except Exception:
        for t in ts.tolist():
            try:
                F(t)
            except EvalError as exc:
                raise NumericalError("expression evaluation failed at "
                                     f"t={t:.6g}: {exc}") from exc
        raise


def _expm(A: np.ndarray) -> np.ndarray:
    """``exp`` of each matrix of an (m, n, n) stack of finite matrices, by
    scaling and squaring with Pade 13 and a scaling exponent per matrix
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).  Each matrix's bits
    are those of a call on it alone."""
    b = _PADE_13
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA_13, 1.0))).astype(int)
    A = np.ldexp(A, -s[:, None, None])
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        R[sq] = R[sq] @ R[sq]
    return R


def _magnus(Fs: np.ndarray, h: np.ndarray):
    """Sixth-order Magnus generators from ``Fs`` (m, 5, n, n), ``F`` at the
    ``_MAGNUS_C`` nodes of m sub-steps, and the 1-norms of their gaps to
    the fourth-order ones (Blanes, Casas, Oteo & Ros, Phys. Rep. 470)."""
    def comm(X, Y):
        return X @ Y - Y @ X

    h = h[:, None, None]
    A1, B1, A2, B2, A3 = (Fs[:, i] for i in range(5))
    a1 = h * A2
    a2 = (math.sqrt(15.0) / 3.0) * h * (A3 - A1)
    a3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    C1 = comm(a1, a2)
    C2 = (-1.0 / 60.0) * comm(a1, 2.0 * a3 + C1)
    O6 = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0
    O4 = 0.5 * h * (B1 + B2) + (math.sqrt(3.0) / 12.0) * h * h * comm(B2, B1)
    return O6, np.abs(O6 - O4).sum(axis=-2).max(axis=-1)


def _split(a, b, k):
    """Cut each ``[a_i, b_i]`` into ``k_i`` equal pieces: their starts, ends
    and ``i``, in order.  A piece ends where the next starts, bit for bit,
    and the last at ``b_i``."""
    idx = np.repeat(np.arange(len(k)), k)
    frac = (np.arange(len(idx)) - (np.cumsum(k) - k)[idx]) / k[idx]
    lo = a[idx] + frac * (b - a)[idx]
    hi = np.append(lo[1:], 0.0)
    hi[np.cumsum(k) - 1] = b
    return lo, hi, idx


def fundamental_matrix(F: Callable[[float], np.ndarray], t0: float, T: float,
                       tol: float = 1e-8, n_out: int = 201) -> TransitionTrace:
    """``Phi' = F(t) Phi``, ``Phi(t0) = I``, on ``n_out`` equally spaced
    times, as ordered products of Magnus propagators ``exp(Omega6)``.

    Each grid cell starts as sub-steps of at most ``_PHI_H_MAX``.  A
    sub-step passes when ``||Omega6 - Omega4||_1 <= tol`` (sixth- and
    fourth-order Magnus on three and two Gauss nodes), so ``tol`` bounds
    each propagator's estimated relative error; a failing one is cut into
    the 2 to 32 pieces its estimate, read as ``O(h^5)``, predicts will
    pass (``n_rejected`` counts the cuts).  A refinement level evaluates
    ``F`` on all its node times, ascending, ``_PHI_CHUNK`` times a call:
    as one batch if ``F`` is a compiled grid (see :func:`_stack`), else
    as stacked scalar calls; Phi has the same bits either way.

    Where ``F`` fails, NumericalError names the earliest time at which it
    does (see :func:`_stack`); a non-finite generator or Phi raises
    it too.  A failing sub-step that cannot be halved above
    ``_PHI_H_MIN``, or more than ``_PHI_ENTRIES / n^2`` sub-steps, raise
    StiffnessError.
    """
    if not (t0 < T < math.inf):
        raise ValueError(f"horizon T={T} must exceed t0={t0} and be finite")
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be a positive finite number")
    if n_out < 2:
        raise ValueError("n_out must be at least 2")
    grid = np.linspace(t0, T, n_out)
    n = _stack(F, grid[:1]).shape[-1]
    # cells a rounding error above _PHI_H_MAX stay whole, any cell is one
    parts = np.ceil(np.diff(grid) / _PHI_H_MAX - 1e-9).clip(1).astype(int)
    a, b, cell = _split(grid[:-1], grid[1:], parts)
    done = []  # (a, b, cell, Omega6) of the sub-steps each level accepts
    n_done = n_split = 0
    chunk = _PHI_CHUNK // len(_MAGNUS_C)  # sub-steps per call of F
    while len(a):
        h = b - a
        O6, err = np.empty((len(a), n, n)), np.empty(len(a))
        for c in (slice(i, i + chunk) for i in range(0, len(a), chunk)):
            ts = (a[c, None] + h[c, None] * _MAGNUS_C).ravel()
            Fs = _stack(F, ts)
            with np.errstate(over="ignore", invalid="ignore"):  # raised below
                O6[c], err[c] = _magnus(Fs.reshape(-1, 5, n, n), h[c])
        if not np.isfinite(err).all():
            raise NumericalError("transition generator became non-finite "
                                 f"at t={a[~np.isfinite(err)][0]:.6g}")
        ok = err <= tol
        done.append((a[ok], b[ok], cell[ok], O6[ok]))
        n_done += int(ok.sum())
        a, b, h, cell, err = a[~ok], b[~ok], h[~ok], cell[~ok], err[~ok]
        with np.errstate(over="ignore"):
            j = np.clip(np.ceil(0.2 * np.log2(err / tol)), 1, 5)
        j = np.minimum(j, np.floor(np.log2(h / _PHI_H_MIN)))
        k = (2 ** j).astype(int)
        if (j < 1).any():
            i = int((j < 1).argmax())
            raise StiffnessError(float(a[i]), float(h[i]), why=(
                f"a sub-step of h={h[i]:g} fails tol and cannot be halved "
                f"above h_min={_PHI_H_MIN:g}"))
        if len(a) and (n_done + k.sum()) * n * n > _PHI_ENTRIES:
            raise StiffnessError(float(a[0]), float(h[0]), why=(
                f"Phi needs more than {_PHI_ENTRIES // (n * n)} sub-steps "
                "to meet tol"))
        n_split += len(a)
        a, b, idx = _split(a, b, k)
        cell = cell[idx]
    a, b, cell, O6 = (np.concatenate(x) for x in zip(*done))
    order = np.argsort(a, kind="stable")
    cell, O6 = cell[order], O6[order]
    phis = np.empty((n_out, n, n))
    phis[0] = P = np.eye(n)
    ends = np.append(cell[1:] != cell[:-1], True).tolist()  # a cell's last
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (slice(i, i + chunk) for i in range(0, len(O6), chunk)):
            for Ek, ci, end in zip(_expm(O6[c]), cell[c].tolist(), ends[c]):
                P = Ek @ P
                if end:
                    phis[ci + 1] = P
    bad = ~np.isfinite(phis).all(axis=(1, 2))
    if bad.any():
        raise NumericalError("the fundamental matrix became non-finite at "
                             f"t={grid[bad.argmax()]:.6g}")
    return TransitionTrace(times=grid, phis=phis, step_sizes=(b - a)[order],
                           n_rejected=n_split, tol=tol)


@dataclass
class SandwichReport(Report):
    """Checks of the transition-matrix sandwich

        exp(-int_tau^t mu[-F]) <= ||Phi(t) Phi(tau)^{-1}|| <= exp(+int_tau^t mu[F])

    over sampled pairs ``tau < t``, plus the matching state bounds for
    trajectories started at t0 from unit vectors.  All comparisons happen
    in the log domain with an explicit slack covering the quadrature
    error plus a per-pair integrator-noise allowance; ``slack`` records
    the base (pair-independent) part, each pair dict its own total.  The
    worst margins (>= 0 means the inequality held with room to spare)
    are recorded.
    """
    passed: bool
    n_pairs: int
    worst_upper_margin: float
    worst_lower_margin: float
    p4_worst_margin: float
    slack: float
    pairs: list = field(default_factory=list)
    notes: list = field(default_factory=list)


# verify builds Phi to PHI_TOL and checks the sandwich up to where |int mu|
# first passes PHI_LOG_CAP either way (see phi_horizon): so e^{J-} <= e^12
# in pair_slack, whose noise term stays below about 5e-4 (16 * 1e-10 * 2e^12)
PHI_TOL, PHI_LOG_CAP = 1e-10, 12.0
_NOISE_GAIN = 16.0  # a few steps' worth of local error, absorbed into slack
_PAIRS = 20                       # sampled (tau, t) pairs
_BASE_SLACK = math.log1p(1e-6)    # log-domain slack before quadrature error
_QUAD_TOL = 1e-9                  # per-cell tolerance of the mu integrals
_SEED = 0                         # of the pair and unit-vector sample


def phi_horizon(F: Callable, t0: float, T: float, kind) -> float:
    """The horizon, at most T, on which verify checks the sandwich of the
    loop ``F``: past -log PHI_TOL of |int mu| Phi would sit at its absolute
    noise floor, and transition norms test noise, not the bound.  Where
    ``F`` fails, NumericalError names the earliest time (see :func:`_stack`).
    """
    grid = np.linspace(t0, T, 33)
    J, _, _, _ = cumulative_integral(  # both signs in one quadrature
        lambda ts: lognorm_pair(_stack(F, ts), kind), grid, 1e-6)
    mag = np.abs(J).max(axis=0)
    exceed = np.nonzero(mag > PHI_LOG_CAP)[0]
    if len(exceed) == 0:
        return T
    # interpolate the crossing: mag[0] = 0, so i >= 1, and m_hi > cap >= m_lo
    i = int(exceed[0])
    t_lo, t_hi = float(grid[i - 1]), float(grid[i])
    m_lo, m_hi = float(mag[i - 1]), float(mag[i])
    t_cap = t_lo + (PHI_LOG_CAP - m_lo) * (t_hi - t_lo) / (m_hi - m_lo)
    return max(t_cap, math.nextafter(t0, math.inf))  # > t0 if rounded


def verify_sandwich(tt: TransitionTrace, F: Callable[[float], np.ndarray],
                    kind="two") -> SandwichReport:
    """Check the logarithmic-norm sandwich on a computed fundamental matrix.

    The computed Phi carries absolute noise of roughly the tolerance
    ``tt.tol`` it was built to, and forming a transition norm amplifies
    it by ||Phi(tau)^{-1}||, which can reach exp(int mu[-F]).  Each
    (tau, t) pair therefore gets its own slack: the base slack plus
    log1p(C * tt.tol * (e^{J-(tau)} + e^{J-(t)}))
    with J- the cumulative integral of mu[-F].  The pair sample always
    contains (t0, T), (t0, mid) and (mid, T); the rest is drawn from a
    seeded generator, so the report is reproducible.  A trace of m points
    has only m (m - 1) / 2 pairs; with fewer than ``_PAIRS`` every pair
    is checked once.

    ``F`` follows the contract of :func:`fundamental_matrix`: scalar
    calls are required.  ``int mu[F]`` and ``int mu[-F]`` come from one
    quadrature of both signs, which evaluates ``F`` once per refinement
    level, as a batch if ``F`` is a compiled grid (see :func:`_stack`),
    else as stacked scalar calls.  Where ``F`` fails, NumericalError
    names the earliest time at which it does.
    """
    times = tt.times
    m = len(times)
    n = tt.phis.shape[1]
    # the quadrature asks for a level of nodes at a time
    (J_up, J_low), (e_up, e_low), _, _ = cumulative_integral(
        lambda ts: lognorm_pair(_stack(F, ts), kind), times, _QUAD_TOL)
    base_slack = _BASE_SLACK + 4.0 * (float(e_up) + float(e_low))

    def pair_slack(i: int, j: int) -> float:
        # first-order error in W = Phi(t)Phi(tau)^{-1}: ||dW||/||W|| <=
        # ||E|| ||Phi(tau)^{-1}|| (1/||W|| + 1), bounded via the a-priori
        # estimates ||Phi(s)^{-1}|| <= e^{J-(s)} and ||W|| >= e^{-dJ-}
        noise_log = (math.log(_NOISE_GAIN * tt.tol)
                     + float(np.logaddexp(J_low[i], J_low[j])))
        # log1p(e^x), overflow-safe
        return base_slack + float(np.logaddexp(0.0, noise_log))

    rng = random.Random(_SEED)
    pairs = {p for p in ((0, m - 1), (0, m // 2), (m // 2, m - 1))
             if p[0] < p[1]}
    # a short trace has fewer than _PAIRS distinct pairs; stop at all
    while len(pairs) < min(_PAIRS, m * (m - 1) // 2):
        i, j = sorted((rng.randrange(m), rng.randrange(m)))
        if i < j:
            pairs.add((i, j))
    pairs = sorted(pairs)

    results = []
    notes = []
    worst_up = worst_low = math.inf
    ok = True
    for i, j in pairs:
        up = float(J_up[j] - J_up[i])
        low = float(J_low[j] - J_low[i])
        slack = pair_slack(i, j)
        try:
            X = np.linalg.solve(tt.phis[i].T, tt.phis[j].T).T
        except np.linalg.LinAlgError:
            ok = False
            notes.append(f"Phi({times[i]:g}) is numerically singular; "
                         "the transition norm could not be formed "
                         "(horizon too long for float64)")
            continue
        nrm = induced_norm(X, kind)
        lognrm = math.log(nrm) if nrm > 0.0 else -math.inf
        up_margin = (up + slack) - lognrm
        low_margin = lognrm - (-low - slack)
        worst_up = min(worst_up, up_margin)
        worst_low = min(worst_low, low_margin)
        ok = ok and up_margin >= 0.0 and low_margin >= 0.0
        results.append({"tau": float(times[i]), "t": float(times[j]),
                        "log_transition_norm": lognrm,
                        "int_mu_upper": up, "int_mu_lower": -low,
                        "slack": slack,
                        "upper_margin": up_margin,
                        "lower_margin": low_margin})

    # state bounds for trajectories x(t) = Phi(t) v, ||v|| = 1
    p4_worst = math.inf
    for j in {m // 4, m // 2, (3 * m) // 4, m - 1}:
        slack = pair_slack(0, j)
        for _ in range(3):
            v = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
            v = v / vector_norm(v, kind)
            xn = vector_norm(tt.phis[j] @ v, kind)
            logx = math.log(xn) if xn > 0.0 else -math.inf
            up_margin = (float(J_up[j]) + slack) - logx
            low_margin = logx - (-float(J_low[j]) - slack)
            p4_worst = min(p4_worst, up_margin, low_margin)
            ok = ok and up_margin >= 0.0 and low_margin >= 0.0
    return SandwichReport(passed=ok, n_pairs=len(results),
                          worst_upper_margin=worst_up,
                          worst_lower_margin=worst_low,
                          p4_worst_margin=p4_worst, slack=base_slack,
                          pairs=results, notes=notes)


@dataclass
class ConvergenceReport(Report):
    """Tail behaviour of a trace: the final norm, a fitted exponential
    rate over the second half (at least two points), and whether the final
    quarter of the norm curve is non-increasing (up to 1e-9 of its scale)."""
    final_norm: float
    fitted_rate: float
    tail_nonincreasing: bool
    fit_start: float
    max_norm: float


def convergence_report(trace: Trace) -> ConvergenceReport:
    m = len(trace.times)
    half = min(m // 2, m - 2)
    norms = np.maximum(trace.norms, 1e-300)
    ts = trace.times[half:]  # polyfit squares them: scaled by 2^-e, exactly
    e = math.frexp(max(-ts[0], ts[-1]))[1]
    fit = np.polyfit(np.ldexp(ts, -e), np.log(norms[half:]), 1)
    rate = math.ldexp(fit[0], -e)
    quarter = (3 * m) // 4
    tail = trace.norms[quarter:]
    atol = 1e-9 * (1.0 + float(trace.norms.max()))
    noninc = bool(len(tail) < 2 or np.diff(tail).max() <= atol)
    return ConvergenceReport(final_norm=float(trace.norms[-1]),
                             fitted_rate=rate, tail_nonincreasing=noninc,
                             fit_start=float(trace.times[half]),
                             max_norm=float(trace.norms.max()))


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV: ``t, x_1..x_n, norm_x, mu_cl, bound_upper,
    bound_lower`` with 17 significant digits (enough to round-trip
    float64 exactly), in one write, as ``csv.writer`` would write them."""
    header = (["t"] + [f"x_{i + 1}" for i in range(trace.n)]
              + ["norm_x", "mu_cl", "bound_upper", "bound_lower"])
    cols = np.column_stack((trace.times, trace.states, trace.norms,
                            trace.mu_cl, trace.bound_upper,
                            trace.bound_lower))
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    text = ",".join(header) + "\r\n" + "".join(
        [row % tuple(r) for r in cols.tolist()])
    with open(path, "w", newline="") as fh:
        fh.write(text)
